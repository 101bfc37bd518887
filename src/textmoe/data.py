"""Tokenization, vocabulary, embeddings, dataset loading, synthetic data,
and the atomic file writes every artifact goes through.

Both tasks share one vocabulary. Reserved ids: PAD=0, UNK=1. Each CSV is
read and tokenized once; the vocabulary counts every token of a row, and
encoding truncates it to the model's ``max_seq_len`` (MAX_SEQ_LEN by
default). Marker bits are computed on token strings before vocabulary
encoding, so out-of-vocabulary words still match the lexicon.
"""

from __future__ import annotations

import contextlib
import csv
import os
import string
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, ParseError, UsageError
from .lexicon import Lexicon, mark_tokens
from .tensor import Tensor

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

MAX_SEQ_LEN = 128

SENTIMENT = "sentiment"
DEPRESSION = "depression"
TASK_IDS = (SENTIMENT, DEPRESSION)


def tokenize(text: str, language: str = "english") -> list[str]:
    """Normalize text to tokens; never returns an empty list."""
    if language == "english":
        tokens = [t.strip(string.punctuation) for t in text.lower().split()]
        tokens = [t for t in tokens if t]
    elif language == "chinese":
        tokens = [ch for ch in text if not ch.isspace()]
    else:
        raise ConfigError(f"unknown language {language!r}")
    return tokens if tokens else [UNK_TOKEN]


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Ids in order of first appearance, after the reserved entries."""
        mapping = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        for tok in tokens:
            if tok not in mapping:
                mapping[tok] = len(mapping)
        return cls(mapping, tuple(mapping))

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def __len__(self) -> int:
        return len(self.token_to_id)


def build_vocab(corpora: Iterable[list[str]], min_count: int = 1) -> Vocabulary:
    """Vocabulary over tokens appearing >= min_count times across all corpora."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    ordered: list[str] = []
    for tokens in corpora:
        for tok in tokens:
            if tok not in counts:
                ordered.append(tok)
            counts[tok] += 1
    if not counts:
        raise UsageError("build_vocab: empty corpus")
    return Vocabulary.from_tokens(t for t in ordered if counts[t] >= min_count)


@dataclass
class EmbeddingTable:
    """Word vectors as one trainable matrix; the PAD row stays zero."""

    matrix: Tensor

    @classmethod
    def random(cls, vocab: Vocabulary, dim: int, rng: np.random.Generator,
               dtype=np.float32) -> "EmbeddingTable":
        m = rng.uniform(-0.05, 0.05, size=(len(vocab), dim)).astype(dtype)
        m[PAD_ID] = 0.0
        return cls(Tensor(m, requires_grad=True))


# Kept vector lines parsed per np.loadtxt call: bounds the raw text held at once.
GLOVE_CHUNK_LINES = 2048
# ASCII separators np.loadtxt strips around a value like spaces but float()
# rejects; a chunk holding one goes to the line loop.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_glove(path: str, vocab: Vocabulary, dim: int, rng: np.random.Generator,
               dtype=np.float32) -> EmbeddingTable:
    """Text-format vectors (`token v1 ... vN`); absent tokens get U(-0.05, 0.05).

    A later line for the same token wins. Python only splits each line; the
    values of up to GLOVE_CHUNK_LINES kept lines are parsed by one
    np.loadtxt call to float64 and then cast, the same bits as float() and
    a cast. Any line the fast path cannot take (a wrong value count, a value
    loadtxt rejects or a non-finite one) sends the file to
    _load_glove_lines, which names the first bad line and accepts all that
    float() accepts. The absent rows are drawn in one call, the same stream
    as one call per row.
    """
    m = np.empty((len(vocab), dim), dtype=dtype)
    found = np.zeros(len(vocab), dtype=bool)
    pending: dict[int, str] = {}  # vocab row -> its line's values, in file order

    def flush() -> bool:
        """Parse the pending lines into their rows; False if the line loop
        must decide."""
        rests = list(pending.values())
        block = "\n".join(rests)
        if any(c in block for c in _LOADTXT_ONLY_SPACE):
            return False
        try:
            values = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None,
                                quotechar=None, ndmin=2)
        except ValueError:
            return False
        # A value past the dtype's range becomes inf, rejected below.
        with np.errstate(over="ignore"):
            values = values.astype(dtype)
        if values.shape != (len(rests), dim) or not np.isfinite(values).all():
            return False
        rows = list(pending)
        m[rows] = values
        found[rows] = True
        pending.clear()
        return True

    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            token, _, rest = line.rstrip("\n").partition(" ")
            idx = vocab.token_to_id.get(token)
            # loadtxt's shape check counts a kept line's values, so only a
            # skipped line is counted here; an empty rest loadtxt would skip.
            if not rest or (idx is None and rest.count(" ") != dim - 1):
                return _load_glove_lines(path, vocab, dim, rng, dtype)
            if idx is None:
                continue
            # A token seen again while pending: flush so the later line wins.
            if (idx in pending or len(pending) == GLOVE_CHUNK_LINES) and not flush():
                return _load_glove_lines(path, vocab, dim, rng, dtype)
            pending[idx] = rest
    if pending and not flush():
        return _load_glove_lines(path, vocab, dim, rng, dtype)
    absent = np.flatnonzero(~found)
    m[absent] = rng.uniform(-0.05, 0.05, size=(len(absent), dim)).astype(dtype)
    m[PAD_ID] = 0.0
    return EmbeddingTable(Tensor(m, requires_grad=True))


def _load_glove_lines(path: str, vocab: Vocabulary, dim: int, rng: np.random.Generator,
                      dtype=np.float32) -> EmbeddingTable:
    """load_glove one line at a time through float(): raises ParseError
    naming the first bad line, and is the reference load_glove must match."""
    found: dict[int, np.ndarray] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}"
                )
            idx = vocab.token_to_id.get(token)
            if idx is None:
                continue
            try:
                # A value past the dtype's range becomes inf, rejected below.
                with np.errstate(over="ignore"):
                    vector = np.asarray([float(v) for v in values], dtype=dtype)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: non-numeric value") from e
            if not np.isfinite(vector).all():
                raise ParseError(f"{path}:{lineno}: non-finite value")
            found[idx] = vector
    m = np.empty((len(vocab), dim), dtype=dtype)
    for idx in range(len(vocab)):
        if idx in found:
            m[idx] = found[idx]
        else:
            m[idx] = rng.uniform(-0.05, 0.05, size=dim).astype(dtype)
    m[PAD_ID] = 0.0
    return EmbeddingTable(Tensor(m, requires_grad=True))


class Example(NamedTuple):
    token_ids: list[int]
    marker_bits: list[int]
    label: int


@dataclass
class TaskDataset:
    task_id: str
    examples: list[Example]
    num_classes: int

    def __post_init__(self) -> None:
        if self.task_id not in TASK_IDS:
            raise ConfigError(f"unknown task_id {self.task_id!r}")
        if self.num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {self.num_classes}")
        for i, ex in enumerate(self.examples):
            if len(ex.token_ids) != len(ex.marker_bits) or not ex.token_ids:
                raise DataError(f"example {i}: ids/bits lengths invalid")
            if not 0 <= ex.label < self.num_classes:
                raise DataError(f"example {i}: label {ex.label} out of range")

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def labels(self) -> list[int]:
        return [ex.label for ex in self.examples]

    def without_markers(self) -> "TaskDataset":
        """Copy with every marker bit forced to NOT_IN_LEXICON."""
        stripped = [Example(ex.token_ids, [0] * len(ex.marker_bits), ex.label)
                    for ex in self.examples]
        return TaskDataset(self.task_id, stripped, self.num_classes)


def encode_text(text: str, vocab: Vocabulary, lexicon: Lexicon,
                language: str = "english", max_len: int = MAX_SEQ_LEN) -> tuple[list[int], list[int]]:
    """text -> (token_ids, marker_bits), truncated to max_len."""
    tokens = tokenize(text, language)[:max_len]
    return vocab.encode(tokens), mark_tokens(lexicon, tokens)


def read_csv_rows(path: str, columns: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """(line number, row) for each row of an RFC-4180 CSV with a header row.
    A missing column, a row without one of ``columns`` and a malformed or
    oversized field raise DataError naming the path and line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for col in columns:
                if col not in header:
                    raise DataError(f"{path}: missing column {col!r} (header: {header})")
            for row in reader:
                for col in columns:
                    if row[col] is None:
                        raise DataError(f"{path}: row {reader.line_num}: no {col!r} field")
                yield reader.line_num, row
        except csv.Error as e:
            # DictReader copies line_num only after a row parses.
            raise DataError(f"{path}: row {reader.reader.line_num}: {e}") from e


def read_token_rows(path: str, text_column: str, label_column: str,
                    language: str = "english") -> Iterator[tuple[int, list[str], str]]:
    """(line number, every token of the text, label) per read_csv_rows row."""
    for line, row in read_csv_rows(path, (text_column, label_column)):
        yield line, tokenize(row[text_column], language), row[label_column]


def encode_rows(path: str, rows: Iterable[tuple[int, list[str], str]], task_id: str,
                label_map: dict[str, int], lexicon: Lexicon, vocab: Vocabulary,
                max_len: int = MAX_SEQ_LEN) -> TaskDataset:
    """read_token_rows' rows of ``path`` -> TaskDataset, truncated to max_len."""
    examples: list[Example] = []
    for line, tokens, raw_label in rows:
        if raw_label not in label_map:
            raise DataError(f"{path}: row {line}: unknown label {raw_label!r}")
        tokens = tokens[:max_len]
        examples.append(Example(vocab.encode(tokens), mark_tokens(lexicon, tokens),
                                label_map[raw_label]))
    return TaskDataset(task_id, examples, max(label_map.values()) + 1)


def load_csv_dataset(path: str, task_id: str, text_column: str, label_column: str,
                     label_map: dict[str, int], lexicon: Lexicon, vocab: Vocabulary,
                     language: str = "english", max_len: int = MAX_SEQ_LEN) -> TaskDataset:
    """RFC-4180 CSV with a header row -> TaskDataset, one row at a time."""
    rows = read_token_rows(path, text_column, label_column, language)
    return encode_rows(path, rows, task_id, label_map, lexicon, vocab, max_len)


# ------------------------------------------------------------ synthetic data


@dataclass
class SynthData:
    """Two correlated binary tasks planted over a shared vocabulary."""

    sentiment: TaskDataset
    depression: TaskDataset
    lexicon: Lexicon
    vocab: Vocabulary
    sentiment_test: TaskDataset | None = None
    depression_test: TaskDataset | None = None


def synth_generate(seed: int, n_per_task: int, vocab_size: int, signal: float,
                   n_test_per_task: int = 0) -> SynthData:
    """Generate two correlated binary-label tasks of 4 to 12 token posts.

    A planted set of "negative" tokens (a tenth of the vocabulary, at least
    2, returned as the lexicon) drives label 1 in both tasks:
    P(label=1 | planted present) averages `signal`, P(label=1 | absent) =
    1 - signal. Every 5th planted token is "ambiguous" with P(label=1) =
    max(0, 1 - 4*(1 - signal)); the rest are strong, solved so the pooled
    probability stays exactly `signal` (and signal=1.0 stays an exact
    presence rule). The marker bit alone therefore under-determines the
    label, and token identity, learnable from either task, carries real
    extra information.
    """
    if n_per_task < 2 or vocab_size < 10:
        raise ConfigError(
            f"synth_generate needs n_per_task >= 2 and vocab_size >= 10, "
            f"got {n_per_task}/{vocab_size}"
        )
    if not 0.0 <= signal <= 1.0:
        raise ConfigError(f"signal must be in [0, 1], got {signal}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n_planted = max(2, round(vocab_size * 0.1))
    planted = [f"neg{i}" for i in range(n_planted)]
    fillers = [f"w{i}" for i in range(vocab_size - n_planted)]
    vocab = Vocabulary.from_tokens(planted + fillers)
    lexicon = Lexicon(frozenset(planted), language="english", source="synthetic")

    ambiguous = np.array([i % 5 == 4 for i in range(n_planted)])
    w = ambiguous.mean()
    u_amb = max(0.0, 1.0 - 4.0 * (1.0 - signal))
    u_strong = (signal - w * u_amb) / (1.0 - w) if w < 1.0 else signal
    strength = np.where(ambiguous, u_amb, u_strong)

    def draw(task_id: str, n: int) -> TaskDataset:
        examples = []
        for _ in range(n):
            length = int(rng.integers(4, 13))
            tokens = [fillers[j] for j in rng.integers(0, len(fillers), length)]
            if rng.random() < 0.5:
                t = int(rng.integers(0, n_planted))
                tokens[int(rng.integers(0, length))] = planted[t]
                label = int(rng.random() < strength[t])
            else:
                label = int(rng.random() < 1.0 - signal)
            examples.append(Example(vocab.encode(tokens),
                                    mark_tokens(lexicon, tokens), label))
        return TaskDataset(task_id, examples, num_classes=2)

    data = SynthData(
        sentiment=draw(SENTIMENT, n_per_task),
        depression=draw(DEPRESSION, n_per_task),
        lexicon=lexicon,
        vocab=vocab,
    )
    if n_test_per_task:
        data.sentiment_test = draw(SENTIMENT, n_test_per_task)
        data.depression_test = draw(DEPRESSION, n_test_per_task)
    return data


def dataset_rows(ds: TaskDataset, vocab: Vocabulary) -> list[tuple[str, str]]:
    """Decode a dataset back to (text, label) rows, e.g. for CSV export."""
    return [(" ".join(vocab.id_to_token[i] for i in ex.token_ids), str(ex.label))
            for ex in ds.examples]


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` that replaces ``path`` once the
    block completes. If the block raises, ``path`` keeps its old content and
    the temporary file is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_csv(path: str, rows: list[tuple[str, str]],
              text_column: str = "text", label_column: str = "label") -> None:
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([text_column, label_column])
        writer.writerows(rows)
