"""Checkpoint save/load: bit-exact round trips and format guards."""

import json
import mmap
import struct
import tracemalloc
import zipfile
from pathlib import Path

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
from textmoe.data import DEPRESSION, SENTIMENT, EmbeddingTable, Vocabulary


def build(seed=0):
    cfg = ModelConfig(vocab_size=9, word_dim=4, marker_dim=2, num_heads=2,
                      ff1_dim=5, ff2_hidden=4, ff2_out=3, num_experts=2,
                      dropout=0.1)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"w{i}" for i in range(7))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, 4, rng), rng)
    lexicon = Lexicon(frozenset({"w0", "w3"}), language="english", source="test")
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


def data_offsets(path):
    """File offset of each entry's array data, by entry name."""
    offsets = {}
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            fh.seek(info.header_offset + 30 + name_len + extra_len)
            if np.lib.format.read_magic(fh) == (1, 0):
                np.lib.format.read_array_header_1_0(fh)
            else:
                np.lib.format.read_array_header_2_0(fh)
            offsets[info.filename.removesuffix(".npy")] = fh.tell()
    return offsets


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
    # A padding space of the .npy header turned into a tab still parses;
    # only the checksum over the entry's stored bytes catches it.
    assert whole[at - 2:at] == b" \n"
    Path(path).write_bytes(whole[:at - 2] + b"\t" + whole[at - 1:])
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
