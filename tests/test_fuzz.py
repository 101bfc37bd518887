"""Mutation fuzzing of the files a run reads: a small trained checkpoint
(bit flips, zip and .npy header bytes, truncation), the quick-start
config.ini, the training and eval CSVs, the GloVe text, both lexicon
formats and predict's stdin. Every mutated input must either work as the
original does or fail with an error that ``cli.main`` turns into exit code
1 or 2; an exception that escapes ``cli.main`` fails the test. Last, one
parameter of the checkpoint's model is set to a huge or non-finite value.
"""

import contextlib
import io
import zipfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from textmoe import (  # noqa: E402
    RmsProp, TrainingDiverged, UsageError, cli, fit, load_checkpoint, load_glove,
    load_run_config, save_checkpoint, write_run_config,
)
from textmoe.data import DEPRESSION, _load_glove_lines, encode_text  # noqa: E402

# Deterministic and bounded: the same examples on every run. The text-file
# fuzzers run a command per example, so they take fewer.
FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)
FUZZ_TEXT = settings(FUZZ, max_examples=30)


def _run(argv, stdin="") -> tuple[int, str]:
    """cli.main's exit code and stdout for argv, with stdin given (a str or
    a text stream) and stderr dropped."""
    out = io.StringIO()
    stdin = io.StringIO(stdin) if isinstance(stdin, str) else stdin
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv), out.getvalue()


def _main(argv, stdin="") -> int:
    """cli.main's exit code for argv, with stdin given and output dropped."""
    return _run(argv, stdin)[0]


def _splice(data, raw: bytes, text: bytes, edits: int) -> bytes:
    """raw with up to 3 bytes at each of ``edits`` drawn places replaced by text."""
    for _ in range(edits):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + text + raw[at + data.draw(st.integers(0, 3)):]
    return raw


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """A quick-start project, a one-epoch checkpoint trained from it, and
    the checkpoint's byte ranges: every zip header, and every .npy header."""
    root = tmp_path_factory.mktemp("fuzz")
    assert _main(["init", str(root / "data"), "--n-per-task", "40",
                  "--vocab-size", "30"]) == 0
    assert _main(["train", str(root / "data" / "config.ini"), "--out", str(root / "run"),
                  "--max-epochs", "1"]) == 0
    path = root / "run" / "model.npz"
    raw = path.read_bytes()
    zip_bytes, npy_bytes = [], []
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    for info in infos:
        local = info.header_offset
        npy = local + 30 + int.from_bytes(raw[local + 26:local + 28], "little") \
            + int.from_bytes(raw[local + 28:local + 30], "little")
        fh = io.BytesIO(raw[npy:])
        np.lib.format.read_array_header_1_0(fh) if np.lib.format.read_magic(fh) == (1, 0) \
            else np.lib.format.read_array_header_2_0(fh)
        zip_bytes += range(local, npy)
        npy_bytes += range(npy, npy + fh.tell())
    central = max(i.header_offset for i in infos)  # the last entry, then the directory
    central = raw.index(b"PK\x01\x02", central + 30)
    zip_bytes += range(central, len(raw))
    weights = {n: t.data.copy() for n, t in load_checkpoint(str(path)).model.named_parameters()}
    return dict(root=root, raw=raw, weights=weights, zip=zip_bytes, npy=npy_bytes,
                config=(root / "data" / "config.ini").read_bytes())


def _check_archive(project, mutated: bytes) -> None:
    # A new file each time: rewriting one in place could change an earlier
    # load's mapped weights under it.
    path, new = project["root"] / "mutated.npz", project["root"] / "mutated.tmp"
    new.write_bytes(mutated)
    new.replace(path)
    code = _main(["predict", str(path)], stdin="w1 w2 w3\n")
    assert code in (0, 1, 2)
    if code == 0:
        got = load_checkpoint(str(path)).model.named_parameters()
        assert {n for n, _ in got} == set(project["weights"])
        for name, t in got:
            want = project["weights"][name]
            assert t.data.dtype == want.dtype and t.data.tobytes() == want.tobytes(), name


@FUZZ
@given(data=st.data(), bits=st.integers(1, 3))
def test_flipped_checkpoint_bits(project, data, bits):
    mutated = bytearray(project["raw"])
    for _ in range(bits):
        at = data.draw(st.integers(0, len(mutated) - 1))
        mutated[at] ^= 1 << data.draw(st.integers(0, 7))
    _check_archive(project, bytes(mutated))


@FUZZ
@given(data=st.data(), region=st.sampled_from(["zip", "npy"]),
       value=st.sampled_from([0x00, 0x20, 0x28, 0x7B, 0x7D, 0x27, 0xAD, 0xFF]))
def test_rewritten_header_bytes(project, data, region, value):
    mutated = bytearray(project["raw"])
    mutated[data.draw(st.sampled_from(project[region]))] = value
    _check_archive(project, bytes(mutated))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_truncated_checkpoint(project, data):
    raw = project["raw"]
    _check_archive(project, raw[:data.draw(st.integers(0, len(raw) - 1))])


def _round_trip(path):
    """A stand-in for `train`: load the config, and check that it survives a
    write and a second load unchanged."""
    def run(args):
        cfg = load_run_config(args.config)
        copy = path.with_name("copy.ini")
        write_run_config(cfg, str(copy))
        assert load_run_config(str(copy)) == cfg
        return 0
    return run


@FUZZ
@given(data=st.data(), edits=st.integers(1, 3),
       text=st.sampled_from([b"%", b"%%", b"%(x)s", b"[", b"]", b"=", b":", b"\n", b"#",
                             b";", b"\x00", b"\xff", "é".encode(), b"1e309", b"-1", b""]))
def test_mutated_config(project, data, edits, text):
    config = _splice(data, project["config"], text, edits)
    path = project["root"] / "data" / "mutated.ini"
    path.write_bytes(config)
    with mock.patch.object(cli, "cmd_train", _round_trip(path)):
        assert _main(["train", str(path)]) in (0, 1, 2)


@pytest.fixture(scope="module")
def small(project):
    """A copy of the quick-start data with six rows per CSV, so that a
    training run takes milliseconds, and an NRC-format lexicon beside the
    plain one with a config that reads it."""
    src, root = project["root"] / "data", project["root"] / "small"
    root.mkdir()
    for name in ("config.ini", "lexicon.txt", "embeddings.txt"):
        (root / name).write_bytes((src / name).read_bytes())
    for name in ("sentiment.csv", "depression.csv", "depression_test.csv"):
        lines = (src / name).read_bytes().splitlines(keepends=True)
        (root / name).write_bytes(b"".join(lines[:7]))
    (root / "lexicon.tsv").write_bytes(b"neg0\tsadness\t1\nNEG1\tfear\t1\nneg2\tjoy\t1\n"
                                       b"w1\tanger\t0\n")
    config = (root / "config.ini").read_text(encoding="utf-8")
    config = config.replace("lexicon = lexicon.txt", "lexicon = lexicon.tsv")
    (root / "nrc.ini").write_text(config.replace("lexicon_format = plain",
                                                 "lexicon_format = nrc"), encoding="utf-8")
    return root


@contextlib.contextmanager
def _mutated(path, raw: bytes):
    """path holds raw inside the block, and its old bytes again after it."""
    original = path.read_bytes()
    path.write_bytes(raw)
    try:
        yield
    finally:
        path.write_bytes(original)


def _load_only(args) -> int:
    """A stand-in for `train` that stops once the config and data are read."""
    cli._prepare_run(args)
    return 0


CSV_TEXT = [b'"', b'""', b",", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\x00", b",x,y", b"2",
            b"maybe", b"", b"\xff", b"text", b"label", b"w" * 140_000, b"w1 " * 300]


@FUZZ_TEXT
@given(data=st.data(), edits=st.integers(1, 3), text=st.sampled_from(CSV_TEXT),
       name=st.sampled_from(["sentiment.csv", "depression.csv", "depression_test.csv"]))
def test_mutated_training_csv(small, data, edits, text, name):
    path = small / name
    with _mutated(path, _splice(data, path.read_bytes(), text, edits)):
        assert _main(["train", str(small / "config.ini"), "--out", str(small / "run"),
                      "--max-epochs", "1"]) in (0, 1, 2)


@FUZZ_TEXT
@given(data=st.data(), edits=st.integers(1, 3), text=st.sampled_from(CSV_TEXT))
def test_mutated_eval_csv(project, small, data, edits, text):
    path = small / "eval.csv"
    path.write_bytes(_splice(data, (small / "depression_test.csv").read_bytes(), text, edits))
    assert _main(["eval", str(project["root"] / "run" / "model.npz"), str(path)]) in (0, 1, 2)


def _glove_against_line_loop(args) -> int:
    """A stand-in for `train`: load_glove on the configured embeddings must
    equal _load_glove_lines bitwise wherever it succeeds."""
    cfg, _, bundle = cli._prepare_run(args)
    path, dim = bundle.embeddings_path, cfg.model.word_dim
    fast = load_glove(path, bundle.vocab, dim, np.random.default_rng(0))
    try:
        slow = _load_glove_lines(path, bundle.vocab, dim, np.random.default_rng(0))
    except Exception as e:  # raised as is, cli.main would map it to an exit code
        raise AssertionError(f"load_glove read a file the line loop rejects: {e}") from e
    assert fast.matrix.data.tobytes() == slow.matrix.data.tobytes()
    return 0


GLOVE_TEXT = [b" ", b"  ", b"\n", b"\r", b"\t", b"\x1c", b"\x1f", b"\xef\xbb\xbf", b"\x00",
              b"\xff", b"\xc2\xa0", b""]
# Whole values: non-numeric ones, values float() and np.loadtxt read
# differently, values past float32's range, and a missing or an extra value.
GLOVE_VALUES = [b"nan", b"inf", b"-inf", b"1e39", b"1e309", b"x", b"1_0", b"+", b".", b"1e",
                b"\x1c1", b"1\x1d", b"\x1e1", b"1\x1f", "\u00a01".encode(), "\u0663".encode(),
                b"", b"0.5 0.5"]


@FUZZ_TEXT
@given(data=st.data(), values=st.integers(0, 2), edits=st.integers(0, 2),
       text=st.sampled_from(GLOVE_TEXT), duplicate=st.booleans())
def test_mutated_glove_text(project, data, values, edits, text, duplicate):
    # The full quick-start data: its vocabulary keeps most vector lines.
    config = project["root"] / "data" / "config.ini"
    path = config.with_name("embeddings.txt")
    lines = [line.split(b" ") for line in path.read_bytes().splitlines()]
    for _ in range(values):
        line = lines[data.draw(st.integers(0, len(lines) - 1))]
        line[data.draw(st.integers(1, len(line) - 1))] = data.draw(st.sampled_from(GLOVE_VALUES))
    if duplicate:  # one line's token again, with another line's values
        token = lines[data.draw(st.integers(0, len(lines) - 1))][:1]
        lines.insert(data.draw(st.integers(0, len(lines))),
                     token + lines[data.draw(st.integers(0, len(lines) - 1))][1:])
    raw = b"".join(b" ".join(line) + b"\n" for line in lines)
    with _mutated(path, _splice(data, raw, text, edits)), \
            mock.patch.object(cli, "cmd_train", _glove_against_line_loop):
        assert _main(["train", str(config)]) in (0, 1, 2)


LEXICON_TEXT = [b"\n", b"\t", b"\t1", b"#", b" ", b"\r", b"\x00", b"\xff", b"\xef\xbb\xbf",
                b"NEG", b"sadness", b"joy", b"nonsense", b"0", b"2", b"", "é".encode()]


@FUZZ_TEXT
@given(data=st.data(), edits=st.integers(1, 3), text=st.sampled_from(LEXICON_TEXT),
       names=st.sampled_from([("lexicon.txt", "config.ini"), ("lexicon.tsv", "nrc.ini")]))
def test_mutated_lexicon(small, data, edits, text, names):
    path = small / names[0]
    with _mutated(path, _splice(data, path.read_bytes(), text, edits)), \
            mock.patch.object(cli, "cmd_train", _load_only):
        assert _main(["train", str(small / names[1])]) in (0, 1, 2)


@FUZZ_TEXT
@given(lines=st.lists(st.one_of(st.text(max_size=30), st.binary(max_size=8).map(repr),
                                st.sampled_from(["w1 " * 200, "w1" * 20_000])),
                      max_size=6),
       junk=st.binary(max_size=4), blank=st.sampled_from([0, 255, 256]),
       errors=st.sampled_from(["strict", "surrogateescape"]))
def test_predict_stdin(project, lines, junk, blank, errors):
    raw = "\n".join(lines).encode() + junk + b"\n" * blank

    def stdin():
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors=errors)

    code, out = _run(["predict", str(project["root"] / "run" / "model.npz")], stdin())
    assert code in (0, 1, 2)
    if code == 0:  # one label and probability per input line
        assert len(out.splitlines()) == len(stdin().readlines())


@FUZZ_TEXT
@given(data=st.data(), value=st.sampled_from([3e38, -3e38, np.inf, -np.inf, np.nan]),
       lr=st.sampled_from([1e-3, 1e30]))
def test_one_extreme_parameter(project, data, value, lr):
    # infer answers with finite logits or raises UsageError, predict exits
    # 0 or 2, an optimizer step reaches every parameter without raising, and
    # a one-epoch fit returns or raises TrainingDiverged. The suite turns a
    # RuntimeWarning into an error, so none may escape any of them.
    ckpt = load_checkpoint(str(project["root"] / "run" / "model.npz"))
    params = dict(ckpt.model.named_parameters())
    name = data.draw(st.sampled_from(sorted(params)))
    params[name].data[...] = value
    batch = [encode_text(line, ckpt.vocab, ckpt.lexicon, ckpt.language,
                         ckpt.model.cfg.max_seq_len) for line in ("w1 w2 w3", "w4")]
    try:
        assert np.isfinite(ckpt.model.infer(batch, DEPRESSION)).all()
    except UsageError:
        pass
    path = project["root"] / "extreme.npz"
    save_checkpoint(str(path), ckpt.model, ckpt.vocab, ckpt.lexicon, ckpt.label_names)
    code, out = _run(["predict", str(path)], stdin="w1 w2 w3\nw4\n")
    assert code in (0, 2)
    assert "nan" not in out
    opt = RmsProp(params.values(), lr=1e-3, weight_decay=2e-4)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    assert all(p.grad is None for p in params.values())
    cfg = load_run_config(str(project["root"] / "data" / "config.ini"))
    bundle = cli.load_bundle(cfg)
    with contextlib.suppress(TrainingDiverged):
        fit(load_checkpoint(str(path)).model, bundle.sentiment, bundle.depression,
            replace(cfg.train_config(), max_epochs=1, learning_rate=lr))
