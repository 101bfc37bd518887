"""Tokenization, vocabulary, embedding loading, CSV datasets, and the
synthetic two-task generator.
"""

from collections import Counter

import numpy as np
import pytest

from textmoe import (
    ConfigError,
    DataError,
    Example,
    Lexicon,
    ParseError,
    TaskDataset,
    UsageError,
    Vocabulary,
    build_vocab,
    load_csv_dataset,
    load_glove,
    synth_generate,
    tokenize,
)
from textmoe.data import (
    DEPRESSION,
    PAD_ID,
    SENTIMENT,
    UNK_ID,
    UNK_TOKEN,
    EmbeddingTable,
    dataset_rows,
    encode_text,
    write_csv,
)


# -------------------------------------------------------------- tokenization


def test_tokenize_english():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("it's fine... really") == ["it's", "fine", "really"]
    assert tokenize("  spaced   out  ") == ["spaced", "out"]


def test_tokenize_never_empty():
    assert tokenize("") == [UNK_TOKEN]
    assert tokenize("!!! ...") == [UNK_TOKEN]


def test_tokenize_chinese_per_character():
    assert tokenize("我 很好", language="chinese") == ["我", "很", "好"]


def test_tokenize_unknown_language():
    with pytest.raises(ConfigError):
        tokenize("hi", language="klingon")


# ---------------------------------------------------------------- vocabulary


def test_vocabulary_first_appearance_order():
    v = Vocabulary.from_tokens(["b", "a", "b", "c"])
    assert v.token_to_id == {"<pad>": 0, "<unk>": 1, "b": 2, "a": 3, "c": 4}
    assert v.id_to_token == ("<pad>", "<unk>", "b", "a", "c")
    assert len(v) == 5


def test_encode_maps_oov_to_unk():
    v = Vocabulary.from_tokens(["x"])
    assert v.encode(["x", "zzz", "x"]) == [2, UNK_ID, 2]


def test_build_vocab_min_count():
    corpora = [["a", "b", "a"], ["b", "c"]]
    counts = Counter(t for c in corpora for t in c)
    v = build_vocab(corpora, min_count=2)
    kept = set(v.token_to_id) - {"<pad>", "<unk>"}
    assert kept == {t for t, n in counts.items() if n >= 2}


def test_build_vocab_errors():
    with pytest.raises(UsageError):
        build_vocab([])
    with pytest.raises(ConfigError):
        build_vocab([["a"]], min_count=0)


# ---------------------------------------------------------------- embeddings


def test_random_embedding_table():
    v = Vocabulary.from_tokens(["a", "b", "c"])
    table = EmbeddingTable.random(v, 8, np.random.default_rng(0))
    assert table.matrix.shape == (5, 8)
    assert table.matrix.dtype == np.float32
    assert table.matrix.requires_grad
    np.testing.assert_array_equal(table.matrix.data[PAD_ID], 0.0)
    body = table.matrix.data[1:]
    assert (np.abs(body) <= 0.05).all()


def _write_vectors(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for token, values in rows:
            fh.write(token + " " + " ".join(str(v) for v in values) + "\n")


def test_load_glove_copies_known_vectors(tmp_path):
    p = tmp_path / "vec.txt"
    _write_vectors(p, [("alpha", [0.1, 0.2, 0.3]), ("beta", [1.0, -1.0, 0.5]),
                       ("absent", [9.0, 9.0, 9.0])])
    v = Vocabulary.from_tokens(["alpha", "beta", "gamma"])
    table = load_glove(str(p), v, 3, np.random.default_rng(1))
    np.testing.assert_allclose(table.matrix.data[v.token_to_id["alpha"]],
                               [0.1, 0.2, 0.3], atol=1e-7)
    np.testing.assert_allclose(table.matrix.data[v.token_to_id["beta"]],
                               [1.0, -1.0, 0.5], atol=1e-7)
    np.testing.assert_array_equal(table.matrix.data[PAD_ID], 0.0)


def test_load_glove_oov_rows_are_reproducible(tmp_path):
    p = tmp_path / "vec.txt"
    _write_vectors(p, [("alpha", [0.1, 0.2])])
    v = Vocabulary.from_tokens(["alpha", "gamma"])
    a = load_glove(str(p), v, 2, np.random.default_rng(7))
    b = load_glove(str(p), v, 2, np.random.default_rng(7))
    np.testing.assert_array_equal(a.matrix.data, b.matrix.data)
    gamma = a.matrix.data[v.token_to_id["gamma"]]
    assert (np.abs(gamma) <= 0.05).all()


def test_load_glove_dimension_error_reports_line(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("alpha 0.1 0.2\nbeta 0.3\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["alpha"])
    with pytest.raises(ParseError, match=r":2:"):
        load_glove(str(p), v, 2, np.random.default_rng(0))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_glove_non_finite_reports_line(tmp_path, value):
    p = tmp_path / "vec.txt"
    p.write_text(f"alpha 0.1 0.2\nbeta 0.3 {value}\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["alpha", "beta"])
    with pytest.raises(ParseError, match=r"vec\.txt:2: non-finite"):
        load_glove(str(p), v, 2, np.random.default_rng(0))


def test_load_glove_non_numeric(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("alpha 0.1 oops\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["alpha"])
    with pytest.raises(ParseError, match="non-numeric"):
        load_glove(str(p), v, 2, np.random.default_rng(0))


# ------------------------------------------------------------------ datasets


def test_task_dataset_validation():
    good = TaskDataset(SENTIMENT, [Example([2, 3], [0, 1], 1)], 2)
    assert len(good) == 1
    assert good.labels == [1]
    with pytest.raises(ConfigError):
        TaskDataset("other", [], 2)
    with pytest.raises(DataError):
        TaskDataset(SENTIMENT, [Example([2], [0, 1], 0)], 2)
    with pytest.raises(DataError):
        TaskDataset(SENTIMENT, [Example([], [], 0)], 2)
    with pytest.raises(DataError):
        TaskDataset(SENTIMENT, [Example([2], [0], 2)], 2)
    with pytest.raises(DataError):
        TaskDataset(SENTIMENT, [], 1)


def test_without_markers_strips_bits_only():
    ds = TaskDataset(DEPRESSION, [Example([2, 3], [1, 1], 0)], 2)
    stripped = ds.without_markers()
    assert stripped.examples[0].token_ids == [2, 3]
    assert stripped.examples[0].marker_bits == [0, 0]
    assert ds.examples[0].marker_bits == [1, 1]


def test_encode_text_marks_oov_lexicon_words():
    # The lexicon is checked on token strings before vocabulary lookup, so
    # a word outside the vocabulary still gets its marker bit.
    v = Vocabulary.from_tokens(["feel"])
    lex = Lexicon(frozenset({"hopeless"}))
    ids, bits = encode_text("feel hopeless", v, lex)
    assert ids == [2, UNK_ID]
    assert bits == [0, 1]


def test_encode_text_truncates():
    v = Vocabulary.from_tokens(["a"])
    ids, bits = encode_text(" ".join(["a"] * 50), v, Lexicon(frozenset()),
                            max_len=8)
    assert len(ids) == len(bits) == 8


def test_load_csv_dataset(tmp_path):
    p = tmp_path / "data.csv"
    rows = [("feeling good today", "pos"), ('hello, "quoted" world', "neg"),
            ("sad and alone", "neg"), ("multi\nline text", "pos")]
    with open(p, "w", encoding="utf-8", newline="") as fh:
        import csv as _csv
        w = _csv.writer(fh)
        w.writerow(["text", "label"])
        w.writerows(rows)
    v = Vocabulary.from_tokens("feeling good today hello quoted world sad and alone multi line text".split())
    lex = Lexicon(frozenset({"sad"}))
    ds = load_csv_dataset(str(p), SENTIMENT, "text", "label",
                          {"neg": 0, "pos": 1}, lex, v)
    assert len(ds) == 4
    assert ds.labels == [1, 0, 0, 1]
    assert ds.examples[2].marker_bits == [1, 0, 0]
    assert ds.num_classes == 2


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("body,label\nhi,0\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["hi"])
    with pytest.raises(DataError, match="text"):
        load_csv_dataset(str(p), SENTIMENT, "text", "label", {"0": 0, "1": 1},
                         Lexicon(frozenset()), v)


def test_load_csv_unknown_label_reports_row(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("text,label\nfine,0\nodd,maybe\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["fine", "odd"])
    with pytest.raises(DataError, match="row 3.*maybe"):
        load_csv_dataset(str(p), SENTIMENT, "text", "label", {"0": 0, "1": 1},
                         Lexicon(frozenset()), v)


def test_dataset_rows_round_trip(tmp_path):
    data = synth_generate(3, n_per_task=40, vocab_size=30, signal=0.9)
    p = tmp_path / "dep.csv"
    write_csv(str(p), dataset_rows(data.depression, data.vocab))
    back = load_csv_dataset(str(p), DEPRESSION, "text", "label",
                            {"0": 0, "1": 1}, data.lexicon, data.vocab)
    assert [ex.token_ids for ex in back.examples] == \
        [ex.token_ids for ex in data.depression.examples]
    assert back.labels == data.depression.labels
    assert [ex.marker_bits for ex in back.examples] == \
        [ex.marker_bits for ex in data.depression.examples]


# ------------------------------------------------------------ synthetic data


def test_synth_generate_is_deterministic():
    a = synth_generate(11, n_per_task=50, vocab_size=40, signal=0.8)
    b = synth_generate(11, n_per_task=50, vocab_size=40, signal=0.8)
    assert a.depression.examples == b.depression.examples
    assert a.sentiment.examples == b.sentiment.examples
    assert a.lexicon.terms == b.lexicon.terms


def test_synth_generate_structure():
    data = synth_generate(5, n_per_task=60, vocab_size=50, signal=0.8,
                          n_test_per_task=20)
    assert len(data.lexicon) == 5  # a tenth of the vocabulary size
    assert len(data.vocab) == 52  # tokens plus pad and unk
    assert len(data.sentiment) == len(data.depression) == 60
    assert len(data.sentiment_test) == len(data.depression_test) == 20
    for ds in (data.sentiment, data.depression):
        assert ds.num_classes == 2
        assert set(ds.labels) <= {0, 1}


def test_synth_marker_bits_match_lexicon():
    data = synth_generate(6, n_per_task=40, vocab_size=30, signal=0.9)
    for ex in data.depression.examples:
        tokens = [data.vocab.id_to_token[i] for i in ex.token_ids]
        expected = [1 if t in data.lexicon else 0 for t in tokens]
        assert ex.marker_bits == expected


def test_synth_label_rate_near_signal():
    # Monte-Carlo check of the planted correlation at signal 0.8.
    data = synth_generate(0, n_per_task=4000, vocab_size=100, signal=0.8)
    with_marker = [ex.label for ex in data.depression.examples
                   if any(ex.marker_bits)]
    without = [ex.label for ex in data.depression.examples
               if not any(ex.marker_bits)]
    assert 0.75 <= np.mean(with_marker) <= 0.85
    assert 0.15 <= np.mean(without) <= 0.25


def test_synth_signal_one_is_exact_rule():
    data = synth_generate(1, n_per_task=500, vocab_size=60, signal=1.0)
    for ds in (data.sentiment, data.depression):
        for ex in ds.examples:
            assert ex.label == int(any(ex.marker_bits))


def test_synth_argument_validation():
    with pytest.raises(ConfigError):
        synth_generate(0, n_per_task=1, vocab_size=50, signal=0.8)
    with pytest.raises(ConfigError):
        synth_generate(0, n_per_task=10, vocab_size=5, signal=0.8)
    with pytest.raises(ConfigError):
        synth_generate(0, n_per_task=10, vocab_size=50, signal=1.5)
