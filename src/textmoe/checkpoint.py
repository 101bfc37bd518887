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

Entries are stored uncompressed, each local header padded with one
extra-field record (ID 0xD935, as zipalign writes) so that the entry's
.npy data starts at a multiple of 64 bytes in the file; numpy pads the
.npy header to 64 as well, so the array data is 64-byte aligned too.
Loading maps the file copy-on-write and takes every entry from that
mapping: an aligned entry stays a view of it, and any other entry
(``np.savez`` puts most of its entries at arbitrary offsets) is copied
out of it. Each entry's CRC-32 is checked over its stored bytes, .npy
header and data. A compressed archive is not a checkpoint.

An archive of at least 8 MiB of stored bytes is checked on two threads:
a worker checks the largest entries while the loading thread parses the
meta and builds the model, then the loading thread checks the rest and
joins the worker. ``load_checkpoint`` returns only after every check has
passed, so it never hands out unverified weights, and a checksum failure
is reported in place of any meta or config error. With a single CPU
the second thread gains nothing. A smaller archive is checked on the
loading thread alone, where starting a thread would cost more than it
saves.

A loaded parameter is private: writing to it never reaches the file. The
mapping does see the file, though, so truncating or rewriting a loaded
checkpoint in place can change the loaded weights or kill the process
with SIGBUS. ``save_checkpoint`` replaces the file with a new one, so it
never does that to a process that has the old one loaded.
"""

from __future__ import annotations

import json
import math
import mmap
import struct
import threading
import zipfile
import zlib
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .data import TASK_IDS, EmbeddingTable, Vocabulary, atomic_open
from .errors import UsageError
from .lexicon import Lexicon
from .model import ModelConfig, MoeClassifier
from .tensor import Tensor

FORMAT_VERSION = 2
_PARAM = "param/"
_ALIGN = 64
_PAD_ID = 0xD935  # zipalign's extra-field ID for alignment padding
# Archives with this many stored bytes check their CRC-32s on two threads.
_THREAD_MIN_BYTES = 8 << 20


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
    arrays = {"meta": np.asarray(json.dumps(meta))}
    arrays.update((_PARAM + name, t.data) for name, t in model.named_parameters())
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, array in arrays.items():
            # ZipInfo's default timestamp is np.savez's fixed 1980 one.
            info = zipfile.ZipInfo(name + ".npy")
            # The local header: 30 fixed bytes, the name, the padding record
            # (at least 6 bytes) and the 20-byte zip64 record force_zip64 adds.
            end = fh.tell() + 30 + len(info.filename.encode()) + 6 + 20
            pad = -end % _ALIGN
            info.extra = struct.pack("<HHH", _PAD_ID, 2 + pad, _ALIGN) + bytes(pad)
            with zf.open(info, "w", force_zip64=True) as entry:
                np.lib.format.write_array(entry, array, allow_pickle=False)
    return path


def _join_heads(arrays: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Rewrite format 1 per-head projections as format 2 column blocks."""
    for e in range(cfg.num_experts):
        for w in ("wq", "wk", "wv"):
            heads = [arrays.pop(f"expert{e}.h{h}.{w}") for h in range(cfg.num_heads)]
            arrays[f"expert{e}.{w}"] = np.concatenate(heads, axis=1)


def _entry_layout(fh, info: zipfile.ZipInfo) -> tuple[int, int, np.dtype, tuple, str]:
    """The file offsets of a stored archive entry's bytes and of its array
    data, and the array's dtype, shape and order."""
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{info.filename}: compressed entries are not supported")
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise zipfile.BadZipFile(f"{info.filename}: bad local header")
    name_len, extra_len = struct.unpack("<HH", local[26:])
    start = info.header_offset + 30 + name_len + extra_len
    fh.seek(start)
    version = np.lib.format.read_magic(fh)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"{info.filename}: unsupported .npy version {version}")
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, fortran, dtype = read_header(fh)
    if dtype.hasobject:
        raise ValueError(f"{info.filename}: object arrays are not allowed")
    if fh.tell() - start + math.prod(shape) * dtype.itemsize != info.file_size:
        raise ValueError(f"{info.filename}: size does not match its .npy header")
    return start, fh.tell(), dtype, shape, "F" if fortran else "C"


def _start_checks(path: str, checks: list[tuple[str, np.ndarray, int]]) -> Callable[[], None]:
    """Start checking each ``(file name, stored bytes, CRC-32)`` of
    ``checks`` on a worker thread, and return the function that finishes:
    it checks what is left on the calling thread, joins the worker, and
    raises UsageError for the first entry, in ``checks`` order, whose
    CRC-32 does not match.

    The worker takes the largest entries first while the caller goes on;
    the caller takes the smallest ones when it finishes. zlib.crc32
    releases the GIL over large buffers, so the two run at once.
    """
    by_size = deque(sorted(range(len(checks)), key=lambda i: -checks[i][1].size))
    good = [False] * len(checks)  # False until checked: a lost check fails the load

    def check(take: Callable[[], int]) -> None:
        while True:
            try:
                i = take()
            except IndexError:
                return
            _, stored, crc = checks[i]
            good[i] = zlib.crc32(stored) == crc

    worker = threading.Thread(target=check, args=(by_size.popleft,), name="checkpoint-crc32")
    worker.start()

    def finish() -> None:
        try:
            check(by_size.pop)
        finally:
            worker.join()
        for (name, _, _), ok in zip(checks, good):
            if not ok:
                raise UsageError(f"{path}: not a checkpoint: {name}: CRC-32 mismatch")

    return finish


def _read_archive(path: str) -> tuple[np.ndarray, dict[str, np.ndarray], Callable[[], None]]:
    """The meta entry and parameter arrays of the archive at ``path``, and
    the function that finishes checking them.

    Every entry comes from one copy-on-write mapping of the file, and is
    checked against its CRC-32 over its stored bytes (.npy header and
    data). An entry whose array data starts at a 64-byte file offset stays
    a view of the mapping; any other is copied out of it.

    An archive of at least _THREAD_MIN_BYTES stored bytes starts its checks
    on a second thread (_start_checks) and returns with them still running:
    its arrays are unverified until the returned function has returned. A
    smaller one is checked here, entry by entry, where a thread would cost
    more than it saves; its returned function does nothing.

    A file that is not an .npz archive of plain stored arrays, or whose
    entry fails its checksum, raises UsageError, here or from the returned
    function; a missing or unreadable file keeps its OSError.
    """
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            entries = {info.filename.removesuffix(".npy"): info for info in zf.infolist()}
            if "meta" not in entries:
                raise UsageError(f"{path}: not a checkpoint: no meta entry")
            layouts = {name: _entry_layout(fh, info) for name, info in entries.items()}
            mapped = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY), np.uint8)
            threaded = sum(info.file_size for info in entries.values()) >= _THREAD_MIN_BYTES
            found, checks = {}, []
            for name, info in entries.items():
                start, at, dtype, shape, order = layouts[name]
                end = start + info.file_size
                if end > mapped.size:
                    raise EOFError(f"{info.filename}: truncated")
                if threaded:
                    checks.append((info.filename, mapped[start:end], info.CRC))
                elif zlib.crc32(mapped[start:end]) != info.CRC:
                    raise zipfile.BadZipFile(f"{info.filename}: CRC-32 mismatch")
                data = mapped[at:end] if at % _ALIGN == 0 else mapped[at:end].copy()
                found[name] = data.view(dtype).reshape(shape, order=order)
    # ValueError: object data or a malformed entry; EOFError: a short file.
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise UsageError(f"{path}: not a checkpoint: {e}") from None
    params = {k[len(_PARAM):]: v for k, v in found.items() if k.startswith(_PARAM)}
    return found["meta"], params, _start_checks(path, checks) if threaded else lambda: None


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint at ``path``, every entry checked against its CRC-32.

    A large archive's model is built while its checks run; a checksum
    failure raises UsageError in place of any meta or config error the
    build met.
    """
    meta, arrays, finish_checks = _read_archive(path)
    try:
        return _build(path, str(meta[()]), arrays)
    finally:
        finish_checks()


def _build(path: str, text: str, arrays: dict[str, np.ndarray]) -> Checkpoint:
    """The checkpoint that the meta ``text`` and ``arrays`` describe; a
    corrupt, incomplete or inconsistent meta raises UsageError."""
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
    index = {t: i for i, t in enumerate(tokens)}
    if len(tokens) != cfg.vocab_size or len(index) != len(tokens):
        raise UsageError(f"{path}: vocab holds {len(tokens)} tokens, "
                         f"{len(index)} distinct, for vocab_size {cfg.vocab_size}")
    classes = dict(zip(TASK_IDS, cfg.classes_per_task))
    for task, names in label_names.items():
        if task in classes and len(names) != classes[task]:
            raise UsageError(f"{path}: label_names[{task!r}] holds {len(names)} "
                             f"names for {classes[task]} classes")
    vocab = Vocabulary(index, tuple(tokens))
    emb = EmbeddingTable(Tensor(embedding, requires_grad=True))
    # The archive holds every weight: draw none, and adopt its arrays uncopied.
    model = MoeClassifier(cfg, emb, None, dtype=embedding.dtype)
    model.load_state_arrays(arrays, copy=False)
    return Checkpoint(model=model, vocab=vocab, lexicon=lexicon,
                      label_names=label_names, **schema)
