"""Mutation fuzzing of the files a run reads: a small trained checkpoint
(bit flips, zip and .npy header bytes, truncation) and the quick-start
config.ini. Every mutated input must either work as the original does or
fail with an error that ``cli.main`` turns into exit code 1 or 2; an
exception that escapes ``cli.main`` fails the test.
"""

import contextlib
import io
import zipfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from textmoe import cli, load_checkpoint, load_run_config, write_run_config  # noqa: E402

# Deterministic and bounded: the same examples on every run.
FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def _main(argv, stdin="") -> int:
    """cli.main's exit code for argv, with stdin given and output dropped."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        return cli.main(argv)


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
    config = project["config"]
    for _ in range(edits):  # replace up to 3 bytes at a random place by text
        at = data.draw(st.integers(0, len(config)))
        config = config[:at] + text + config[at + data.draw(st.integers(0, 3)):]
    path = project["root"] / "data" / "mutated.ini"
    path.write_bytes(config)
    with mock.patch.object(cli, "cmd_train", _round_trip(path)):
        assert _main(["train", str(path)]) in (0, 1, 2)
