"""Checkpoint save/load: bit-exact round trips and format guards."""

import json

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


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model, vocab, lexicon, names = build(seed=2)
    path = save_checkpoint(str(tmp_path / "m.npz"), model, vocab, lexicon, names)
    other, *_ = build(seed=3)

    def broken_savez(file, **arrays):
        file.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, other, vocab, lexicon, names)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]
    ckpt = load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_parameters(),
                                 ckpt.model.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
