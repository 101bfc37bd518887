"""Model checkpoints.

One .npz archive holds a JSON metadata entry (model config, vocabulary,
lexicon terms, label names, text schema) plus every named parameter array
with its shape. Loading rebuilds the model and reproduces eval logits
bit-exactly at equal precision.

Format 2 stores each expert's query, key and value projections as one
(model_dim, model_dim) matrix per kind, ``expert{e}.w{q,k,v}``, head h in
column block h. Format 1 stored one (model_dim, head_dim) matrix per head,
``expert{e}.h{h}.w{q,k,v}``; such archives still load, their head matrices
joined into the format 2 layout.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .data import EmbeddingTable, Vocabulary, atomic_open
from .errors import UsageError
from .lexicon import Lexicon
from .model import ModelConfig, MoeClassifier
from .tensor import Tensor

FORMAT_VERSION = 2
_PARAM = "param/"


@dataclass
class Checkpoint:
    model: MoeClassifier
    vocab: Vocabulary
    lexicon: Lexicon
    label_names: dict[str, list[str]]  # task_id -> class index -> label string
    language: str
    text_column: str
    label_column: str


def save_checkpoint(path: str, model: MoeClassifier, vocab: Vocabulary,
                    lexicon: Lexicon, label_names: dict[str, list[str]],
                    language: str = "english", text_column: str = "text",
                    label_column: str = "label") -> str:
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    meta = {
        "version": FORMAT_VERSION,
        "config": asdict(model.cfg),
        "vocab": list(vocab.id_to_token),
        "lexicon": sorted(lexicon.terms),
        "lexicon_language": lexicon.language,
        "label_names": label_names,
        "language": language,
        "text_column": text_column,
        "label_column": label_column,
    }
    arrays = {_PARAM + name: t.data for name, t in model.named_parameters()}
    # np.savez appends ".npz" to a path without it, so it gets the open file.
    with atomic_open(path, "wb") as fh:
        np.savez(fh, meta=np.asarray(json.dumps(meta)), **arrays)
    return path


def _join_heads(arrays: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Rewrite format 1 per-head projections as format 2 column blocks."""
    for e in range(cfg.num_experts):
        for w in ("wq", "wk", "wv"):
            heads = [arrays.pop(f"expert{e}.h{h}.{w}") for h in range(cfg.num_heads)]
            arrays[f"expert{e}.{w}"] = np.concatenate(heads, axis=1)


def _read_archive(path: str) -> tuple[str, dict[str, np.ndarray]]:
    """The meta text and parameter arrays of the archive at ``path``.

    A file that is not an .npz archive of plain arrays raises UsageError; a
    missing or unreadable file keeps its OSError.
    """
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise UsageError(f"{path}: not a checkpoint: a bare array, not an .npz archive")
        with z:
            if "meta" not in z.files:
                raise UsageError(f"{path}: not a checkpoint: no meta entry")
            meta = str(z["meta"][()])
            arrays = {k[len(_PARAM):]: z[k] for k in z.files if k.startswith(_PARAM)}
    # ValueError: pickled or object data; EOFError: an empty file.
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise UsageError(f"{path}: not a checkpoint: {e}") from None
    return meta, arrays


def load_checkpoint(path: str) -> Checkpoint:
    text, arrays = _read_archive(path)
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: corrupt checkpoint meta: {e}") from None
    version = meta.get("version") if isinstance(meta, dict) else None
    if version not in (1, FORMAT_VERSION):
        raise UsageError(f"{path}: unsupported checkpoint version {version}")
    try:
        raw = dict(meta["config"])
        raw["classes_per_task"] = tuple(raw["classes_per_task"])
        cfg = ModelConfig(**raw)
        tokens = list(meta["vocab"])
        lexicon = Lexicon(frozenset(meta["lexicon"]),
                          language=meta["lexicon_language"], source=path)
        label_names = {k: list(v) for k, v in meta["label_names"].items()}
        schema = {k: meta[k] for k in ("language", "text_column", "label_column")}
        if version == 1:
            _join_heads(arrays, cfg)
        embedding = arrays["embedding"]
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise UsageError(f"{path}: incomplete checkpoint: {type(e).__name__}: {e}") from None
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tuple(tokens))
    emb = EmbeddingTable(Tensor(embedding, requires_grad=True), cfg.word_dim)
    # The archive holds every weight: draw none, and adopt its arrays uncopied.
    model = MoeClassifier(cfg, emb, None, dtype=embedding.dtype)
    model.load_state_arrays(arrays, copy=False)
    return Checkpoint(model=model, vocab=vocab, lexicon=lexicon,
                      label_names=label_names, **schema)
