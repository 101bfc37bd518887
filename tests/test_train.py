"""Training machinery: batch scheduling, the loss, early stopping, splits,
and the full fit loop with its determinism and isolation guarantees.
"""

import math

import numpy as np
import pytest

from textmoe import (
    ConfigError,
    EarlyStopper,
    Example,
    ModelConfig,
    MoeClassifier,
    TaskDataset,
    Tensor,
    TrainConfig,
    TrainingDiverged,
    compute_loss,
    fit,
    schedule_epoch,
    synth_generate,
)
from textmoe.data import DEPRESSION, SENTIMENT, EmbeddingTable, Vocabulary
from textmoe.metrics import evaluate
from textmoe.train import (
    TAG_SPLIT,
    EpochRecord,
    dataset_ce,
    rng_stream,
    stratified_split,
)
from test_acceptance import ACCEPT_DIMS


def make_dataset(task_id, n, num_classes=2, seed=0, length=4):
    rng = np.random.default_rng(seed)
    examples = [Example(rng.integers(2, 9, size=length).tolist(),
                        rng.integers(0, 2, size=length).tolist(),
                        int(rng.integers(0, num_classes)))
                for _ in range(n)]
    return TaskDataset(task_id, examples, num_classes)


def small_model(seed=0, **overrides):
    cfg = ModelConfig(vocab_size=10, word_dim=4, marker_dim=2, num_heads=2,
                      ff1_dim=4, ff2_hidden=4, ff2_out=3, num_experts=2,
                      dropout=0.0, **overrides)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng)
    return MoeClassifier(cfg, emb, rng)


def train_config(**overrides):
    base = dict(learning_rate=1e-3, batch_size=8, lambda_l2=0.0,
                max_epochs=2, ratio=(1, 1), early_stop_patience=5,
                lr_patience=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ----------------------------------------------------------------- streams


def test_rng_streams_are_deterministic_and_distinct():
    a = rng_stream(7, 0).random(5)
    b = rng_stream(7, 0).random(5)
    c = rng_stream(7, 1).random(5)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0


# ------------------------------------------------------------ configuration


def test_train_config_validation():
    with pytest.raises(ConfigError):
        train_config(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        train_config(batch_size=0).validate()
    with pytest.raises(ConfigError):
        train_config(lambda_l2=-1.0).validate()
    with pytest.raises(ConfigError):
        train_config(ratio=(0, 0)).validate()
    with pytest.raises(ConfigError):
        train_config(ratio=(-1, 1)).validate()
    with pytest.raises(ConfigError):
        train_config(lr_decay_factor=0.0).validate()
    with pytest.raises(ConfigError):
        train_config(early_stop_patience=0).validate()
    with pytest.raises(ConfigError):
        train_config(validation_fraction=1.0).validate()
    train_config().validate()


# ---------------------------------------------------------------- scheduling


def test_schedule_ratio_three_to_one():
    sent = make_dataset(SENTIMENT, 400, seed=1)
    dep = make_dataset(DEPRESSION, 80, seed=2)
    cfg = train_config(batch_size=8, ratio=(3, 1))
    sched = schedule_epoch(sent, dep, cfg, rng_stream(0, 3))
    assert sched.count(DEPRESSION) == 10
    assert sched.count(SENTIMENT) == 30


def test_schedule_covers_every_target_example_once():
    dep = make_dataset(DEPRESSION, 37, seed=3)
    cfg = train_config(batch_size=8, ratio=(1, 1))
    sched = schedule_epoch(make_dataset(SENTIMENT, 64, seed=4), dep, cfg,
                           rng_stream(1, 3))
    seen = np.concatenate([idx for t, idx in sched.batches if t == DEPRESSION])
    assert sorted(seen.tolist()) == list(range(37))
    assert all(len(idx) <= 8 for _, idx in sched.batches)


def test_schedule_zero_sentiment_ratio():
    dep = make_dataset(DEPRESSION, 20, seed=5)
    sched = schedule_epoch(None, dep, train_config(ratio=(0, 1)),
                           rng_stream(2, 3))
    assert sched.count(SENTIMENT) == 0
    assert sched.count(DEPRESSION) == 3


def test_schedule_sentiment_anchors_when_dep_ratio_zero():
    sent = make_dataset(SENTIMENT, 20, seed=6)
    sched = schedule_epoch(sent, None, train_config(batch_size=8, ratio=(1, 0)),
                           rng_stream(3, 3))
    assert sched.count(SENTIMENT) == 3
    assert sched.count(DEPRESSION) == 0


def test_schedule_cycles_small_sentiment_pool():
    # Sentiment has one batch worth of data but owes four: reshuffled reuse.
    sent = make_dataset(SENTIMENT, 8, seed=7)
    dep = make_dataset(DEPRESSION, 32, seed=8)
    cfg = train_config(batch_size=8, ratio=(1, 1))
    sched = schedule_epoch(sent, dep, cfg, rng_stream(4, 3))
    assert sched.count(SENTIMENT) == 4
    seen = np.concatenate([idx for t, idx in sched.batches if t == SENTIMENT])
    assert sorted(set(seen.tolist())) == list(range(8))


def test_schedule_requires_data_for_nonzero_ratio():
    dep = make_dataset(DEPRESSION, 16, seed=9)
    with pytest.raises(ConfigError, match="sentiment"):
        schedule_epoch(None, dep, train_config(ratio=(1, 1)), rng_stream(5, 3))
    with pytest.raises(ConfigError, match="depression"):
        schedule_epoch(make_dataset(SENTIMENT, 16), None,
                       train_config(ratio=(1, 1)), rng_stream(5, 3))


def test_schedule_minimum_one_sentiment_batch():
    sent = make_dataset(SENTIMENT, 64, seed=10)
    dep = make_dataset(DEPRESSION, 8, seed=11)
    cfg = train_config(batch_size=8, ratio=(1, 3))
    sched = schedule_epoch(sent, dep, cfg, rng_stream(6, 3))
    assert sched.count(SENTIMENT) == 1  # round(1 * 1/3) clamps up to 1


# --------------------------------------------------------------------- loss


def test_uniform_logits_loss_is_log_c():
    for c in (2, 3, 5):
        logits = Tensor(np.zeros((4, c)), dtype=np.float64)
        labels = np.zeros(4, dtype=np.int64)
        assert compute_loss(logits, labels).item() == pytest.approx(
            math.log(c), abs=1e-6)


def test_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    got = compute_loss(Tensor(logits, dtype=np.float64), labels).item()
    assert got == pytest.approx(want, abs=1e-9)


def test_l2_term_hand_case():
    logits = Tensor(np.zeros((2, 2)), dtype=np.float64)
    labels = np.array([0, 1])
    theta = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    plain = compute_loss(logits, labels).item()
    reg = compute_loss(logits, labels, [theta], lambda_l2=0.01).item()
    assert reg - plain == pytest.approx(0.09, abs=1e-9)


def test_l2_zero_keeps_loss_a_pure_ce():
    logits = Tensor(np.zeros((2, 2)), dtype=np.float64)
    theta = Tensor(np.array([100.0]), requires_grad=True, dtype=np.float64)
    a = compute_loss(logits, np.array([0, 1])).item()
    b = compute_loss(logits, np.array([0, 1]), [theta], lambda_l2=0.0).item()
    assert a == b


# ------------------------------------------------------------ early stopping


def test_early_stopper_boundary():
    s = EarlyStopper(patience=2)
    assert s.update(1.0) is True
    assert not s.should_stop
    assert s.update(1.0) is False  # equality is not an improvement
    assert not s.should_stop
    assert s.update(1.1) is False
    assert s.should_stop


def test_early_stopper_resets_on_improvement():
    s = EarlyStopper(patience=2)
    s.update(1.0)
    s.update(2.0)
    assert s.update(0.5) is True
    assert s.epochs_since_improvement == 0
    assert not s.should_stop


def test_early_stopper_patience_validation():
    with pytest.raises(ConfigError):
        EarlyStopper(patience=0)


# ------------------------------------------------------------------- splits


def test_stratified_split_preserves_classes():
    ds = make_dataset(DEPRESSION, 100, seed=13)
    train, val = stratified_split(ds, 0.2, np.random.default_rng(0))
    assert len(train) + len(val) == 100
    for c in (0, 1):
        total = sum(1 for label in ds.labels if label == c)
        held = sum(1 for label in val.labels if label == c)
        assert held == round(0.2 * total)


def test_stratified_split_keeps_singletons_in_train():
    examples = [Example([2], [0], 0) for _ in range(9)] + [Example([3], [1], 1)]
    ds = TaskDataset(DEPRESSION, examples, 2)
    train, val = stratified_split(ds, 0.5, np.random.default_rng(1))
    assert all(label == 0 for label in val.labels)
    assert 1 in train.labels


# ---------------------------------------------------------------------- fit


def test_fit_zero_epochs_changes_nothing():
    model = small_model()
    before = model.state_arrays()
    report = fit(model, make_dataset(SENTIMENT, 24), make_dataset(DEPRESSION, 24),
                 train_config(max_epochs=0))
    assert report.epochs == []
    assert report.stop_reason == "max_epochs"
    for name, arr in model.state_arrays().items():
        np.testing.assert_array_equal(arr, before[name])


def test_fit_requires_depression_data():
    with pytest.raises(ConfigError):
        fit(small_model(), make_dataset(SENTIMENT, 16), None, train_config())


def test_fit_is_deterministic():
    def run():
        model = small_model(seed=3)
        report = fit(model, make_dataset(SENTIMENT, 32, seed=14),
                     make_dataset(DEPRESSION, 32, seed=15),
                     train_config(max_epochs=3, seed=5))
        return model.state_arrays(), [r.log_line() for r in report.epochs]

    state_a, lines_a = run()
    state_b, lines_b = run()
    assert lines_a == lines_b
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


def test_fit_isolates_idle_task_parameters():
    # Training only the depression task must leave the sentiment head and
    # gate untouched: their gradients are exactly zero every step.
    model = small_model(seed=4)
    before = model.state_arrays()
    fit(model, None, make_dataset(DEPRESSION, 32, seed=16),
        train_config(ratio=(0, 1), max_epochs=2))
    after = model.state_arrays()
    np.testing.assert_array_equal(after["head0.w"], before["head0.w"])
    np.testing.assert_array_equal(after["head0.b"], before["head0.b"])
    np.testing.assert_array_equal(after["gate0"], before["gate0"])
    assert np.abs(after["head1.w"] - before["head1.w"]).max() > 0


def test_fit_restores_best_checkpoint():
    model = small_model(seed=6)
    dep = make_dataset(DEPRESSION, 40, seed=17)
    cfg = train_config(ratio=(0, 1), max_epochs=4, seed=9)
    report = fit(model, None, dep, cfg)
    assert report.best_val_loss == min(r.val_loss for r in report.epochs)
    best = next(r for r in report.epochs if r.epoch == report.best_epoch)
    assert best.val_loss == report.best_val_loss
    # The restored model reproduces the best epoch's validation loss.
    _, val = stratified_split(dep, cfg.validation_fraction,
                              rng_stream(cfg.seed, TAG_SPLIT))
    assert dataset_ce(model, val, cfg.batch_size)[0] == pytest.approx(
        report.best_val_loss, abs=1e-6)


def test_dataset_ce_report_matches_evaluate():
    model = small_model(seed=11)
    ds = make_dataset(DEPRESSION, 21, seed=23)
    loss, report = dataset_ce(model, ds, batch_size=8)
    assert math.isfinite(loss)
    assert report == evaluate(model, ds, DEPRESSION, batch_size=8)


def test_fit_forwards_validation_once_per_epoch(monkeypatch):
    model = small_model(seed=12)
    dep = make_dataset(DEPRESSION, 40, seed=24)
    cfg = train_config(ratio=(0, 1), max_epochs=3)
    forwarded = []
    forward = model.forward

    def counting_forward(batch, task_id, training=False, rng=None):
        if not training:
            forwarded.append(len(batch))
        return forward(batch, task_id, training=training, rng=rng)

    monkeypatch.setattr(model, "forward", counting_forward)
    report = fit(model, None, dep, cfg)
    _, val = stratified_split(dep, cfg.validation_fraction,
                              rng_stream(cfg.seed, TAG_SPLIT))
    assert sum(forwarded) == len(report.epochs) * len(val) == 3 * len(val)


def test_training_loss_graph_size_at_acceptance_shape():
    # One node for the L2 term, not three per parameter: 185 nodes before
    # at ACCEPT_DIMS and 335 at the paper shape.
    paper = dict(word_dim=300, marker_dim=100, num_heads=4, num_experts=4,
                 ff1_dim=400, ff2_hidden=200, ff2_out=200, dropout=0.1)
    for dims, bound in ((ACCEPT_DIMS, 102), (paper, 192)):
        cfg = ModelConfig(vocab_size=10, **dims)
        rng = np.random.default_rng(0)
        vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
        model = MoeClassifier(cfg, EmbeddingTable.random(vocab, cfg.word_dim, rng), rng)
        batch = make_dataset(DEPRESSION, 4, seed=25).examples
        logits = model.forward(batch, DEPRESSION, training=True, rng=rng)
        loss = compute_loss(logits, np.array([ex.label for ex in batch]),
                            model.parameters(), lambda_l2=1e-4)
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) <= bound, dims


def test_fit_early_stop_and_lr_decay():
    model = small_model(seed=7)
    report = fit(model, None, make_dataset(DEPRESSION, 30, seed=18),
                 train_config(ratio=(0, 1), max_epochs=50, seed=2,
                              early_stop_patience=2, lr_patience=1,
                              learning_rate=5e-2))
    assert report.stop_reason == "early_stop"
    assert len(report.epochs) < 50
    lrs = [r.lr for r in report.epochs]
    assert min(lrs) < 5e-2  # decay fired while validation stalled


def test_fit_reports_losses_per_task():
    report = fit(small_model(seed=8), make_dataset(SENTIMENT, 24, seed=19),
                 make_dataset(DEPRESSION, 24, seed=20),
                 train_config(max_epochs=1))
    rec = report.epochs[0]
    assert math.isfinite(rec.sentiment_loss)
    assert math.isfinite(rec.depression_loss)
    assert math.isfinite(rec.val_loss)
    assert 0.0 <= rec.val_accuracy <= 1.0


def test_fit_sentiment_loss_is_nan_when_task_is_off():
    report = fit(small_model(seed=9), None, make_dataset(DEPRESSION, 24, seed=21),
                 train_config(ratio=(0, 1), max_epochs=1))
    assert math.isnan(report.epochs[0].sentiment_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan on purpose
def test_fit_flags_divergence():
    model = small_model(seed=10)
    with pytest.raises(TrainingDiverged, match="epoch"):
        fit(model, None, make_dataset(DEPRESSION, 64, seed=22),
            train_config(ratio=(0, 1), max_epochs=3, batch_size=8,
                         learning_rate=1e30))


def test_epoch_record_log_line_round_trip():
    rec = EpochRecord(epoch=3, sentiment_loss=0.5, depression_loss=0.25,
                      val_loss=0.125, lr=1e-3, val_accuracy=0.75,
                      val_macro_f1=0.5)
    line = rec.log_line()
    fields = dict(part.split("=") for part in line.split())
    assert fields["epoch"] == "3"
    assert float(fields["val_loss"]) == 0.125
    assert float(fields["lr"]) == 1e-3


def test_learning_reduces_loss_on_learnable_data():
    data = synth_generate(2, n_per_task=64, vocab_size=30, signal=1.0)
    cfg = ModelConfig(vocab_size=len(data.vocab), word_dim=4, marker_dim=2,
                      num_heads=2, ff1_dim=6, ff2_hidden=4, ff2_out=4,
                      num_experts=2, dropout=0.0)
    rng = np.random.default_rng(0)
    emb = EmbeddingTable.random(data.vocab, cfg.word_dim, rng)
    model = MoeClassifier(cfg, emb, rng)
    report = fit(model, data.sentiment, data.depression,
                 train_config(max_epochs=10, batch_size=16, learning_rate=5e-3))
    losses = [r.depression_loss for r in report.epochs]
    assert losses[-1] < losses[0]
