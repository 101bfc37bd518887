"""Scoring: hand-checked cases, brute-force oracles over random instances,
the evaluation runner, and both report renderings.
"""

import numpy as np
import pytest

from textmoe import (
    Example,
    MetricsReport,
    ModelConfig,
    MoeClassifier,
    TaskDataset,
    UsageError,
    evaluate,
    metrics,
)
from textmoe.data import DEPRESSION, EmbeddingTable, Vocabulary
from textmoe.metrics import metrics_table, parse_record, render_table, report_record


def brute_force(preds, labels, num_classes):
    """Per-class tallies with explicit loops, no shared code with metrics()."""
    f1s, precs, recs = [], [], []
    for c in range(num_classes):
        tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, labels) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precs.append(prec)
        recs.append(rec)
        f1s.append(f1)
    acc = sum(1 for p, t in zip(preds, labels) if p == t) / len(labels)
    return acc, sum(f1s) / num_classes, precs, recs, f1s


def test_hand_case_three_classes():
    labels = [0, 0, 1, 2]
    preds = [0, 1, 1, 1]
    r = metrics(preds, labels, num_classes=3)
    assert r.accuracy == 0.5
    assert r.macro_f1 == pytest.approx(7.0 / 18.0, abs=1e-12)
    assert r.macro_f1 == pytest.approx(0.3889, abs=1e-4)
    assert r.precision == (1.0, 1.0 / 3.0, 0.0)
    assert r.recall == (0.5, 1.0, 0.0)
    assert r.f1 == pytest.approx((2.0 / 3.0, 0.5, 0.0), abs=1e-12)
    assert r.confusion == ((1, 1, 0), (0, 1, 0), (0, 1, 0))


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 50))
        labels = rng.integers(0, c, size=n).tolist()
        preds = rng.integers(0, c, size=n).tolist()
        r = metrics(preds, labels, num_classes=c)
        acc, macro, precs, recs, f1s = brute_force(preds, labels, c)
        assert r.accuracy == acc
        assert abs(r.macro_f1 - macro) < 1e-9
        np.testing.assert_allclose(r.precision, precs, atol=1e-9)
        np.testing.assert_allclose(r.recall, recs, atol=1e-9)
        np.testing.assert_allclose(r.f1, f1s, atol=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, size=40).tolist()
    preds = rng.integers(0, 3, size=40).tolist()
    order = rng.permutation(40)
    a = metrics(preds, labels, 3)
    b = metrics([preds[i] for i in order], [labels[i] for i in order], 3)
    assert a == b


def test_absent_class_scores_zero():
    # Class 2 never occurs; its precision, recall, and F1 are all defined
    # as zero and still count toward the macro average.
    r = metrics([0, 1, 0, 1], [0, 1, 1, 0], num_classes=3)
    assert r.precision[2] == r.recall[2] == r.f1[2] == 0.0
    assert r.macro_f1 == pytest.approx(sum(r.f1) / 3.0, abs=1e-12)


def test_perfect_predictions():
    r = metrics([0, 1, 1], [0, 1, 1], 2)
    assert r.accuracy == 1.0
    assert r.macro_f1 == 1.0
    assert r.confusion == ((1, 0), (0, 2))


def test_input_validation():
    with pytest.raises(UsageError):
        metrics([0], [0, 1], 2)
    with pytest.raises(UsageError):
        metrics([], [], 2)
    with pytest.raises(UsageError):
        metrics([0, 2], [0, 1], 2)
    with pytest.raises(UsageError):
        metrics([0, -1], [0, 1], 2)


# ---------------------------------------------------------------- evaluate


def _tiny_model_and_data():
    cfg = ModelConfig(vocab_size=10, word_dim=4, marker_dim=2, num_heads=2,
                      ff1_dim=4, ff2_hidden=4, ff2_out=3, num_experts=2,
                      dropout=0.0)
    rng = np.random.default_rng(2)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, 4, rng), rng)
    examples = [Example(rng.integers(2, 10, size=4).tolist(),
                        rng.integers(0, 2, size=4).tolist(),
                        int(rng.integers(0, 2))) for _ in range(13)]
    return model, TaskDataset(DEPRESSION, examples, 2)


def test_evaluate_composes_predict_and_metrics():
    model, ds = _tiny_model_and_data()
    got = evaluate(model, ds, DEPRESSION, batch_size=5)
    preds = []
    for start in range(0, len(ds), 5):
        preds += model.predict(ds.examples[start:start + 5], DEPRESSION)
    want = metrics(preds, ds.labels, 2, task_id=DEPRESSION)
    assert got == want
    assert got.task_id == DEPRESSION
    assert got.examples == 13


def test_evaluate_batch_size_does_not_matter():
    model, ds = _tiny_model_and_data()
    a = evaluate(model, ds, DEPRESSION, batch_size=3)
    b = evaluate(model, ds, DEPRESSION, batch_size=13)
    assert a.accuracy == b.accuracy
    assert a.confusion == b.confusion


def test_evaluate_rejects_empty_dataset():
    model, ds = _tiny_model_and_data()
    empty = TaskDataset(DEPRESSION, [], 2)
    with pytest.raises(UsageError):
        evaluate(model, empty, DEPRESSION)


# --------------------------------------------------------------- rendering


def test_report_record_round_trip():
    r = metrics([0, 1, 1, 0], [0, 1, 0, 1], 2, task_id=DEPRESSION)
    record = report_record(r)
    parsed = parse_record(record)
    assert parsed["task"] == DEPRESSION
    assert parsed["examples"] == "4"
    assert parsed["accuracy"] == repr(r.accuracy)
    assert float(parsed["macro_f1"]) == r.macro_f1
    assert parsed["confusion_0_1"] == "1"
    assert parsed["f1_1"] == repr(r.f1[1])


def test_report_record_is_reproducible_text():
    r = metrics([0, 1, 1], [0, 1, 0], 2, task_id=DEPRESSION)
    assert report_record(r) == report_record(r)


def test_render_table_alignment():
    table = render_table(["name", "v"], [["a", "1.0"], ["longer", "22.5"]])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].split() == ["a", "1.0"]
    assert lines[3].split() == ["longer", "22.5"]
    # Numeric column is right-justified against its widest entry.
    assert lines[2].endswith(" 1.0")


def test_metrics_table_contents():
    r = metrics([0, 1], [0, 1], 2)
    out = metrics_table([("full", r), ("-gate", r)], label="variant")
    assert "variant" in out and "accuracy" in out and "macro_f1" in out
    assert "full" in out and "-gate" in out
    assert "1.0000" in out


def test_report_equality_is_structural():
    a = metrics([0, 1], [0, 1], 2)
    b = metrics([0, 1], [0, 1], 2)
    assert a == b
    assert isinstance(a, MetricsReport)
