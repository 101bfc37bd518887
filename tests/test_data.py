"""Tokenization, vocabulary, embedding loading, CSV datasets, and the
synthetic two-task generator.
"""

from collections import Counter
from unittest import mock

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


# 1e39 overflows float32: the typed error must come without a numpy warning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39", "-1e39"])
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


def test_load_glove_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("\ufeffalpha 0.1 0.2\nbeta 0.3 0.4\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["alpha", "beta"])
    m = load_glove(str(p), v, 2, np.random.default_rng(0)).matrix.data
    np.testing.assert_array_equal(m[v.token_to_id["alpha"]],
                                  np.array([0.1, 0.2], dtype=np.float32))


def test_load_glove_later_line_wins_across_chunks(tmp_path):
    from textmoe import data
    n = 2 * data.GLOVE_CHUNK_LINES + 300
    rng = np.random.default_rng(5)
    rows = [(f"w{i}", rng.uniform(-1, 1, 3)) for i in range(n)]
    # Only even tokens are kept. w10 comes again in the next chunk, w20
    # again before its chunk is parsed.
    rows.insert(n - 100, ("w10", [7.0, 8.0, 9.0]))
    rows.insert(30, ("w20", [1.5, 2.5, 3.5]))
    p = tmp_path / "vec.txt"
    _write_vectors(p, rows)
    v = Vocabulary.from_tokens(f"w{i}" for i in range(0, n, 2))
    fast_rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    with mock.patch.object(data, "_load_glove_lines",
                           wraps=data._load_glove_lines) as line_loop:
        m = load_glove(str(p), v, 3, fast_rng).matrix.data
    assert not line_loop.called
    ref = data._load_glove_lines(str(p), v, 3, ref_rng).matrix.data
    assert m.tobytes() == ref.tobytes()
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    assert m[v.token_to_id["w10"]].tolist() == [7.0, 8.0, 9.0]
    assert m[v.token_to_id["w20"]].tolist() == [1.5, 2.5, 3.5]


def test_load_glove_draws_absent_rows_in_one_stream(tmp_path):
    p = tmp_path / "vec.txt"
    _write_vectors(p, [(f"k{i}", [0.25 * i, -0.5]) for i in range(0, 300, 3)])
    v = Vocabulary.from_tokens(f"k{i}" for i in range(300))
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    m = load_glove(str(p), v, 2, rng).matrix.data
    absent = [i for i in range(len(v)) if i < 2 or (i - 2) % 3]
    assert len(absent) >= 100
    # One uniform call per absent row, PAD and UNK included, in row order.
    expected = [ref.uniform(-0.05, 0.05, size=2).astype(np.float32) for _ in absent]
    expected[PAD_ID][:] = 0.0
    assert m[absent].tobytes() == np.array(expected).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_load_glove_peak_memory_is_chunked(tmp_path):
    # Almost 10 chunks of 2048 lines. Peak / matrix bytes measured on this
    # file: 2.7 chunked, 6.4 with one small array per line and 16.6 with one
    # loadtxt call over the whole file.
    import tracemalloc
    n, dim = 20_000, 8
    rng = np.random.default_rng(2)
    p = tmp_path / "vec.txt"
    _write_vectors(p, [(f"w{i}", rng.uniform(-1, 1, dim)) for i in range(n)])
    v = Vocabulary.from_tokens(f"w{i}" for i in range(n))
    tracemalloc.start()
    try:
        table = load_glove(str(p), v, dim, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * table.matrix.data.nbytes


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


def test_load_csv_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("\ufefftext,label\nhi there,1\n", encoding="utf-8")
    v = Vocabulary.from_tokens(["hi", "there"])
    ds = load_csv_dataset(str(p), SENTIMENT, "text", "label", {"0": 0, "1": 1},
                          Lexicon(frozenset()), v)
    assert ds.labels == [1]
    assert ds.examples[0].token_ids == v.encode(["hi", "there"])


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
    assert len(data.lexicon.terms) == 5  # a tenth of the vocabulary size
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
        expected = [1 if t in data.lexicon.terms else 0 for t in tokens]
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
