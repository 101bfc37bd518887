"""Checkpoint save/load: bit-exact round trips and format guards."""

import io
import json
import mmap
import struct
import sys
import threading
import tracemalloc
import zipfile
import zlib
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from textmoe import (
    Lexicon,
    ModelConfig,
    MoeClassifier,
    UsageError,
    load_checkpoint,
    save_checkpoint,
)
from textmoe import checkpoint, cli
from textmoe.data import DEPRESSION, SENTIMENT, EmbeddingTable, Vocabulary


def build(seed=0, dtype=np.float32):
    cfg = ModelConfig(vocab_size=9, word_dim=4, marker_dim=2, num_heads=2,
                      ff1_dim=5, ff2_hidden=4, ff2_out=3, num_experts=2,
                      dropout=0.1)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"w{i}" for i in range(7))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, 4, rng, dtype), rng, dtype=dtype)
    lexicon = Lexicon(frozenset({"w0", "w3"}))
    names = {SENTIMENT: ["neg", "pos"], DEPRESSION: ["control", "depressed"]}
    return model, vocab, lexicon, names


def test_round_trip_is_bit_exact(tmp_path):
    model, vocab, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "model"), model, vocab, lexicon,
                           names, "english", "body", "target")
    assert path.endswith(".npz")
    ckpt = load_checkpoint(path)

    batch = [([2, 3, 4], [1, 0, 0]), ([5, 6], [0, 1])]
    want = model.forward(batch, DEPRESSION).data
    got = ckpt.model.forward(batch, DEPRESSION).data
    np.testing.assert_array_equal(got, want)

    assert ckpt.vocab.id_to_token == vocab.id_to_token
    assert ckpt.lexicon.terms == lexicon.terms
    assert ckpt.label_names == names
    assert ckpt.language == "english"
    assert ckpt.text_column == "body"
    assert ckpt.label_column == "target"
    assert ckpt.model.cfg == model.cfg


def test_every_parameter_survives(tmp_path):
    model, vocab, lexicon, names = build(seed=5)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    ckpt = load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_parameters(),
                                 ckpt.model.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        assert a.data.dtype == b.data.dtype


def test_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, values=np.ones(3))
    with pytest.raises(UsageError, match="meta"):
        load_checkpoint(str(path))


def read_archive(path):
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def rewrite_meta(path, edit):
    """Apply ``edit`` to the archive's meta dict and save it back."""
    payload = read_archive(path)
    meta = json.loads(str(payload["meta"][()]))
    edit(meta)
    payload["meta"] = np.asarray(json.dumps(meta))
    np.savez(path, **payload)


def is_mapped(array):
    """Whether ``array`` is a view of a file mapping."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def reference_layouts(path):
    """Each entry's (data offset, dtype, shape, order) by file name, read by
    numpy's own version 1.0 header parser."""
    layouts = {}
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            fh.seek(info.header_offset + 30 + name_len + extra_len)
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            layouts[info.filename] = (fh.tell(), dtype, shape, "F" if fortran else "C")
    return layouts


def data_offsets(path):
    """File offset of each entry's array data, by entry name."""
    return {name.removesuffix(".npy"): layout[0]
            for name, layout in reference_layouts(path).items()}


def flip_last_data_byte(path, entry):
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(entry + ".npy")
    raw = bytearray(Path(path).read_bytes())
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:
                                                   info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size - 1] ^= 0x40
    Path(path).write_bytes(bytes(raw))


def test_rejects_unknown_version(tmp_path):
    model, vocab, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    rewrite_meta(path, lambda meta: meta.update(version=99))
    with pytest.raises(UsageError, match="version"):
        load_checkpoint(str(path))


def test_loads_format_1_per_head_archive(tmp_path):
    # Format 1 stored expert{e}.h{h}.w{q,k,v} of shape (model_dim, head_dim).
    model, vocab, lexicon, names = build(seed=3)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    payload = read_archive(path)
    heads, d = model.cfg.num_heads, model.cfg.model_dim
    dh = d // heads
    for e in range(model.cfg.num_experts):
        for w in ("wq", "wk", "wv"):
            full = payload.pop(f"param/expert{e}.{w}")
            for h in range(heads):
                payload[f"param/expert{e}.h{h}.{w}"] = full[:, h * dh:(h + 1) * dh]
    np.savez(path, **payload)
    rewrite_meta(path, lambda meta: meta.update(version=1))

    ckpt = load_checkpoint(path)
    batch = [([2, 3, 4], [1, 0, 0]), ([5, 6], [0, 1])]
    for task in (SENTIMENT, DEPRESSION):
        np.testing.assert_array_equal(ckpt.model.forward(batch, task).data,
                                      model.forward(batch, task).data)


def test_corrupt_meta_is_usage_error(tmp_path):
    model, vocab, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    payload = read_archive(path)
    payload["meta"] = np.asarray('{"version": 2, "config": {')
    np.savez(path, **payload)
    with pytest.raises(UsageError, match="corrupt"):
        load_checkpoint(path)


def test_incomplete_meta_is_usage_error(tmp_path):
    model, vocab, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    rewrite_meta(path, lambda meta: meta.pop("vocab"))
    with pytest.raises(UsageError, match="incomplete.*vocab"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["label_names"].update({DEPRESSION: ["control"]}),
     r"label_names\['depression'\] holds 1 names for 2 classes"),
    (lambda meta: meta["label_names"].update({SENTIMENT: ["neg", "pos", "mixed"]}),
     r"label_names\['sentiment'\] holds 3 names for 2 classes"),
    (lambda meta: meta.update(vocab=meta["vocab"][:-1]),
     "vocab holds 8 tokens, 8 distinct, for vocab_size 9"),
    (lambda meta: meta.update(vocab=meta["vocab"][:-1] + ["w0"]),
     "vocab holds 9 tokens, 8 distinct, for vocab_size 9"),
], ids=["too_few_labels", "too_many_labels", "short_vocab", "repeated_token"])
def test_inconsistent_meta_is_usage_error(tmp_path, edit, message):
    model, vocab, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    rewrite_meta(path, edit)
    with pytest.raises(UsageError, match=message):
        load_checkpoint(path)


def test_label_names_are_checked_only_for_the_tasks_they_name(tmp_path):
    model, vocab, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon,
                           {DEPRESSION: names[DEPRESSION]})
    assert load_checkpoint(path).label_names == {DEPRESSION: names[DEPRESSION]}


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model, vocab, lexicon, names = build(seed=2)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    other, *_ = build(seed=3)

    def broken_write_array(file, array, **kwargs):
        file.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array", broken_write_array)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, other, vocab, lexicon, names)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]
    ckpt = load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_parameters(),
                                 ckpt.model.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_loaded_parameters_are_writable_aligned_views(tmp_path):
    # Every entry's data starts at a 64-byte offset, so loading maps every
    # parameter copy-on-write; training a loaded model updates them in place.
    model, vocab, lexicon, names = build(seed=6)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    assert all(at % 64 == 0 for at in data_offsets(path).values())
    for name, t in load_checkpoint(path).model.named_parameters():
        assert is_mapped(t.data), name
        assert t.data.flags.writeable and t.data.flags.aligned, name
        assert t.data.dtype == np.float32 and t.data.flags.c_contiguous, name


def test_fortran_order_entry_loads(tmp_path):
    model, vocab, lexicon, names = build(seed=7)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    payload = read_archive(path)
    payload["param/expert0.w1"] = np.asfortranarray(payload["param/expert0.w1"])
    np.savez(path, **payload)
    loaded = dict(load_checkpoint(path).model.named_parameters())["expert0.w1"]
    np.testing.assert_array_equal(loaded.data, model.experts[0].w1.data)


def test_compressed_archive_is_usage_error(tmp_path):
    model, vocab, lexicon, names = build(seed=9)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    np.savez_compressed(path, **read_archive(path))
    with pytest.raises(UsageError, match="compressed"):
        load_checkpoint(path)


# ------------------------------------------------------------ mapped loading


def test_savez_archive_copies_its_unaligned_entries(tmp_path):
    # np.savez places entries wherever the previous one ended; a parameter
    # is mapped exactly when its data happens to start on a 64-byte boundary.
    model, vocab, lexicon, names = build(seed=10)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    np.savez(path, **read_archive(path))
    offsets = data_offsets(path)
    params = load_checkpoint(path).model.named_parameters()
    for name, t in params:
        assert is_mapped(t.data) == (offsets["param/" + name] % 64 == 0), name
    assert sum(not is_mapped(t.data) for _, t in params) > len(params) // 2


def test_mapped_and_copied_loads_give_equal_logits(tmp_path):
    model, vocab, lexicon, names = build(seed=11)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    mapped = load_checkpoint(path).model
    # A new file: rewriting the mapped one in place would change ``mapped``.
    np.savez(tmp_path / "copy.npz", **read_archive(path))
    copied = load_checkpoint(str(tmp_path / "copy.npz")).model
    assert not is_mapped(copied.embedding.matrix.data)
    batch = [([2, 3, 4], [1, 0, 0]), ([5, 6], [0, 1])]
    for task in (SENTIMENT, DEPRESSION):
        np.testing.assert_array_equal(mapped.forward(batch, task).data,
                                      copied.forward(batch, task).data)


def test_writes_to_a_loaded_parameter_stay_private(tmp_path):
    model, vocab, lexicon, names = build(seed=12)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    saved = (tmp_path / "m.npz").read_bytes()
    loaded = load_checkpoint(path).model
    for _, t in loaded.named_parameters():
        t.data += 1.0
    assert (tmp_path / "m.npz").read_bytes() == saved
    for (name, a), (_, b) in zip(model.named_parameters(),
                                 load_checkpoint(path).model.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


@pytest.mark.parametrize("entry", ["meta", "param/expert1.wo", "param/embedding"])
@pytest.mark.parametrize("rewrite", [False, True], ids=["mapped", "copied"])
def test_flipped_data_byte_fails_the_checksum(tmp_path, entry, rewrite):
    model, vocab, lexicon, names = build(seed=13)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    if rewrite:
        np.savez(path, **read_archive(path))
    # Entries at 64-byte offsets stay views of the mapping, the rest are copied.
    at = data_offsets(path)[entry]
    assert (at % 64 == 0) != rewrite
    whole = Path(path).read_bytes()
    flip_last_data_byte(path, entry)
    with pytest.raises(UsageError, match="CRC"):
        load_checkpoint(path)
    # The descr's byte order turned big-endian still parses; only the
    # checksum over the entry's stored bytes, header included, catches it.
    order = whole.rindex(b"{'descr': '<", 0, at) + len(b"{'descr': '")
    Path(path).write_bytes(whole[:order] + b">" + whole[order + 1:])
    with pytest.raises(UsageError, match="CRC"):
        load_checkpoint(path)


def test_truncated_inside_the_embedding_is_usage_error(tmp_path):
    model, vocab, lexicon, names = build(seed=14)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    at = data_offsets(path)["param/embedding"]
    whole = (tmp_path / "m.npz").read_bytes()
    (tmp_path / "m.npz").write_bytes(whole[:at + model.embedding.matrix.data.nbytes // 2])
    with pytest.raises(UsageError, match="not a checkpoint"):
        load_checkpoint(path)


def _predict_code(path, capsys):
    with mock.patch("sys.stdin", io.StringIO("w1 w2\n")):
        code = cli.main(["predict", str(path)])
    assert "not a checkpoint" in capsys.readouterr().err
    return code


def test_unparsable_npy_header_is_usage_error(tmp_path, capsys):
    # A header padding space made "(" puts the header out of write_array's form.
    model, vocab, lexicon, names = build(seed=15)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    raw = Path(path).read_bytes()
    at = raw.index(b"} ", raw.index(b"{'descr'")) + 1
    Path(path).write_bytes(raw[:at] + b"(" + raw[at + 1:])
    with pytest.raises(UsageError, match="meta.npy: unreadable .npy header"):
        load_checkpoint(path)
    assert _predict_code(path, capsys) == 2


@pytest.mark.parametrize("kind", ["saved", "savez", "fortran", "float64"])
def test_header_reader_agrees_with_numpy(tmp_path, kind):
    dtype = np.float64 if kind == "float64" else np.float32
    model, vocab, lexicon, names = build(seed=25, dtype=dtype)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    if kind in ("savez", "fortran"):
        payload = read_archive(path)
        if kind == "fortran":
            payload["param/expert0.w1"] = np.asfortranarray(payload["param/expert0.w1"])
        np.savez(path, **payload)
    want = reference_layouts(path)
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        got = {info.filename: checkpoint._entry_layout(fh, info)[1:] for info in zf.infolist()}
    assert got == want
    orders = {order for _, _, _, order in got.values()}
    assert orders == ({"C", "F"} if kind == "fortran" else {"C"})
    assert {got[name][1] for name in got if name != "meta.npy"} == {np.dtype(dtype)}


def rewrite_header(path, entry, edit):
    """Replace the .npy magic and header of ``entry`` by ``edit`` of them,
    which must keep their length."""
    start = {name: at for at, name in stored_offsets(path).items()}[entry]
    at = data_offsets(path)[entry]
    raw = Path(path).read_bytes()
    header = edit(raw[start:at])
    assert len(header) == at - start
    Path(path).write_bytes(raw[:start] + header + raw[at:])


def write_version_2(path):
    """Rewrite every entry of the archive at ``path`` with a version 2.0 header."""
    payload = read_archive(path)
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in payload.items():
            with zf.open(name + ".npy", "w") as fh:
                np.lib.format.write_array(fh, array, version=(2, 0), allow_pickle=False)


def write_object_array(path):
    payload = read_archive(path)
    payload["param/embedding"] = np.array([1, "a"], dtype=object)
    np.savez(path, **payload)


@pytest.mark.parametrize("entry, corrupt", [
    ("meta", write_version_2),
    ("meta", lambda path: rewrite_header(
        path, "meta", lambda h: h[:-2] + b"\t\n")),
    ("param/embedding", lambda path: rewrite_header(
        path, "param/embedding", lambda h: h.replace(b"'<f4'", b"'<f3'"))),
    ("param/embedding", write_object_array),
    ("param/embedding", lambda path: rewrite_header(
        path, "param/embedding",
        lambda h: h[:8] + (int.from_bytes(h[8:10], "little") - 16).to_bytes(2, "little") + h[10:])),
], ids=["version_2_0", "tab_in_padding", "f3_descr", "object_array", "header_cut_short"])
def test_header_out_of_form_is_usage_error(tmp_path, capsys, entry, corrupt):
    model, vocab, lexicon, names = build(seed=26)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    corrupt(path)
    with pytest.raises(UsageError, match=f"not a checkpoint: {entry}.npy: unreadable .npy header"):
        load_checkpoint(path)
    assert _predict_code(path, capsys) == 2


def test_unsupported_zip_version_is_usage_error(tmp_path, capsys):
    model, vocab, lexicon, names = build(seed=16)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    raw = bytearray(Path(path).read_bytes())
    raw[raw.index(b"PK\x01\x02") + 6] = 0xAD  # the central directory's version needed
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(UsageError, match="zip file version 17.3"):
        load_checkpoint(path)
    assert _predict_code(path, capsys) == 2


def test_new_checkpoint_is_a_valid_npz(tmp_path):
    model, vocab, lexicon, names = build(seed=15)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    with zipfile.ZipFile(path) as zf:
        assert zf.testzip() is None
    payload = read_archive(path)
    assert json.loads(str(payload["meta"][()]))["version"] == 2
    for name, t in model.named_parameters():
        np.testing.assert_array_equal(payload["param/" + name], t.data, err_msg=name)


def test_saves_are_byte_identical(tmp_path):
    model, vocab, lexicon, names = build(seed=16)
    a = save_checkpoint(str(tmp_path / "a.npz"), model, vocab, lexicon, names)
    b = save_checkpoint(str(tmp_path / "b.npz"), model, vocab, lexicon, names)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_load_allocates_less_than_the_embedding(tmp_path):
    # The embedding holds most of the bytes here; copying it into a buffer
    # alone would trace its full size.
    cfg = ModelConfig(vocab_size=8002, word_dim=300, marker_dim=4, num_heads=2,
                      ff1_dim=8, ff2_hidden=4, ff2_out=3, num_experts=1)
    rng = np.random.default_rng(17)
    vocab = Vocabulary.from_tokens(f"w{i}" for i in range(8000))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, 300, rng), rng)
    _, _, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    embedding_bytes = model.embedding.matrix.data.nbytes
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < embedding_bytes / 2, (peak, embedding_bytes)


def test_load_allocates_no_placeholder_weights(tmp_path):
    # At the default dims the non-embedding weights hold 15 MB. Building
    # the model to load into allocated a throwaway buffer for each, which
    # made the traced peak of a load the size of all of them.
    cfg = ModelConfig(vocab_size=10)
    rng = np.random.default_rng(18)
    vocab = Vocabulary.from_tokens(f"w{i}" for i in range(8))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, cfg.word_dim, rng), rng)
    _, _, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    weight_bytes = sum(t.data.nbytes for _, t in model.named_parameters())
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < weight_bytes / 10, (peak, weight_bytes)


def test_savez_archive_load_copies_each_entry_once(tmp_path):
    # np.savez leaves the embedding unaligned, so it is copied out of the
    # mapping; a load that staged it once more would trace twice its size.
    cfg = ModelConfig(vocab_size=8002, word_dim=300, marker_dim=4, num_heads=2,
                      ff1_dim=8, ff2_hidden=4, ff2_out=3, num_experts=1)
    rng = np.random.default_rng(19)
    vocab = Vocabulary.from_tokens(f"w{i}" for i in range(8000))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, 300, rng), rng)
    _, _, lexicon, names = build()
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    np.savez(path, **read_archive(path))
    weight_bytes = sum(t.data.nbytes for _, t in model.named_parameters())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path).model
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not is_mapped(loaded.embedding.matrix.data)
    np.testing.assert_array_equal(loaded.embedding.matrix.data, model.embedding.matrix.data)
    assert peak < 1.25 * weight_bytes, (peak, weight_bytes)


# ------------------------------------------------------- threaded CRC checks


@pytest.fixture
def threaded(monkeypatch):
    """Check CRC-32s on the worker thread at any archive size. Each thread's
    first check waits until the other thread has begun one, so the worker
    takes the largest entry and the main thread the smallest. Returns the
    (checked on the worker, file offset) of each check of the last load."""
    monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", 0)
    log, began = [], {True: threading.Event(), False: threading.Event()}

    def crc32(data):
        on_worker = threading.current_thread() is not threading.main_thread()
        began[on_worker].set()
        if not began[not on_worker].wait(10):
            raise RuntimeError("only one thread checked entries")
        log.append((on_worker, data.ctypes.data - data.base.ctypes.data))
        return zlib.crc32(data)

    start_checks = checkpoint._start_checks

    def start_checks_afresh(path, checks):
        log.clear()
        for event in began.values():
            event.clear()
        return start_checks(path, checks)

    monkeypatch.setattr(checkpoint, "zlib", SimpleNamespace(crc32=crc32))
    monkeypatch.setattr(checkpoint, "_start_checks", start_checks_afresh)
    return log


def stored_offsets(path):
    """Entry name by the file offset of its stored bytes."""
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        offsets = {}
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            start = info.header_offset + 30 + name_len + extra_len
            offsets[start] = info.filename.removesuffix(".npy")
    return offsets


def first_checked(log, on_worker):
    return next(at for worker, at in log if worker == on_worker)


def test_threaded_load_is_bitwise_the_inline_load(tmp_path, threaded):
    model, vocab, lexicon, names = build(seed=20)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checkpoint, "_THREAD_MIN_BYTES", 1 << 62)
        mp.setattr(checkpoint, "zlib", zlib)
        inline = load_checkpoint(path).model
    before = threading.enumerate()
    loaded = load_checkpoint(path).model
    assert threading.enumerate() == before
    # Every entry checked once; the worker began with the largest.
    offsets = stored_offsets(path)
    assert sorted(at for _, at in threaded) == sorted(offsets)
    assert offsets[first_checked(threaded, True)] == "meta"
    batch = [([2, 3, 4], [1, 0, 0]), ([5, 6], [0, 1])]
    for task in (SENTIMENT, DEPRESSION):
        np.testing.assert_array_equal(loaded.forward(batch, task).data,
                                      inline.forward(batch, task).data)
    for (name, a), (_, b) in zip(inline.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "main"])
def test_threaded_load_catches_a_flipped_byte(tmp_path, threaded, on_worker):
    model, vocab, lexicon, names = build(seed=21)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    load_checkpoint(path)
    at = first_checked(threaded, on_worker)
    entry = stored_offsets(path)[at]
    flip_last_data_byte(path, entry)
    before = threading.enumerate()
    with pytest.raises(UsageError, match=f"{entry}.npy: CRC"):
        load_checkpoint(path)
    assert threading.enumerate() == before
    assert first_checked(threaded, on_worker) == at


@pytest.mark.parametrize("threshold", [0, checkpoint._THREAD_MIN_BYTES],
                         ids=["thread", "inline"])
def test_checksum_failure_precedes_an_incomplete_meta(tmp_path, monkeypatch, threshold):
    monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", threshold)
    model, vocab, lexicon, names = build(seed=22)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    rewrite_meta(path, lambda meta: meta.pop("vocab"))
    with pytest.raises(UsageError, match="incomplete"):
        load_checkpoint(path)
    flip_last_data_byte(path, "param/embedding")
    with pytest.raises(UsageError, match="param/embedding.npy: CRC"):
        load_checkpoint(path)


def test_only_an_archive_of_the_threshold_size_starts_a_thread(tmp_path, monkeypatch):
    model, vocab, lexicon, names = build(seed=23)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    with zipfile.ZipFile(path) as zf:
        stored = sum(info.file_size for info in zf.infolist())
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(checkpoint, "threading", SimpleNamespace(Thread=Thread))
    monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", stored + 1)
    load_checkpoint(path)
    assert started == []
    monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", stored)
    load_checkpoint(path)
    assert len(started) == 1 and not started[0].is_alive()


def test_concurrent_threaded_loads_check_every_entry(tmp_path, monkeypatch):
    # Four loads at once, each with its worker, switching threads as often
    # as the interpreter allows: a lost check would let the bad archive load.
    monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", 0)
    model, vocab, lexicon, names = build(seed=24)
    good = save_checkpoint(str(tmp_path / "good.npz"), model, vocab, lexicon, names)
    bad = save_checkpoint(str(tmp_path / "bad.npz"), model, vocab, lexicon, names)
    flip_last_data_byte(bad, "param/expert1.b2b")
    outcomes = []

    def loads():
        for _ in range(25):
            load_checkpoint(good)
            try:
                load_checkpoint(bad)
            except UsageError as e:
                outcomes.append("CRC-32 mismatch" in str(e))
            else:
                outcomes.append(False)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=loads) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert outcomes == [True] * 100
