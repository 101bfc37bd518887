"""The network: marker-augmented embeddings, shared attention experts,
per-task gates, task heads.

Every token embedding is the concatenation of its word vector and a
trainable 2-row marker embedding selected by the token's lexicon bit.
A shared bank of expert units (multi-head self-attention, a feed-forward
layer, dual max/mean pooling, a two-layer feed-forward head) maps each
sequence to fixed-size vectors; each task mixes the experts with its own
softmax gate and applies its own affine head. No residual connections or
layer normalization anywhere.

Each expert holds one (model_dim, model_dim) matrix for each of the query,
key and value projections. Head h owns column block h, that is columns
h * head_dim to (h + 1) * head_dim with head_dim = model_dim // num_heads,
and each block is drawn as its own Xavier-uniform (model_dim, head_dim)
matrix. All heads are projected, attend and are merged through ``wo`` in
one ``packed_attention`` node.

A batch is padded to its longest sequence, with a (batch, seq_len) mask
that is True at real positions; a single sequence is a batch of one. The
token-wise layers run on packed rows, only the real positions of the
mask in row-major order, as one (tokens, dim) matrix: the embedding
lookup, the attention layer, whose per-head padded layout is no graph
value, and its dropout, and the ``w1``/``b1``/relu/dropout feed-forward
layer. Pooling and the gate see the padded (batch, seq_len, ·) layout,
with zeros at padded positions. Each dropout draws one mask value per
real unit it is given, so padded positions consume no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MAX_SEQ_LEN, PAD_ID, TASK_IDS, EmbeddingTable
from .errors import ConfigError, UsageError
# mul and slice_last are unused here, but perfbench/spans.py wraps tensor ops
# by the names this module imports and looks each of them up, so they stay.
from .tensor import (  # noqa: F401
    MASK_FILL,
    Tensor,
    add,
    add_const,
    concat_last,
    dropout,
    embedding_lookup,
    masked_max,
    masked_mean,
    matmul,
    mul,
    no_grad,
    packed_attention,
    relu,
    reshape,
    scale,
    slice_last,
    softmax,
    to_padded,
    transpose_last,
)

# Attention score denominators: "dim" divides by d1 itself, "sqrt_dim" by
# sqrt(d1). Both modes agree when d1 == 1.
SCALE_MODES = ("dim", "sqrt_dim")


@dataclass
class ModelConfig:
    vocab_size: int
    word_dim: int = 300
    marker_dim: int = 100
    num_heads: int = 4
    ff1_dim: int = 400
    ff2_hidden: int = 200
    ff2_out: int = 200
    num_experts: int = 4
    classes_per_task: tuple[int, ...] = (2, 2)
    dropout: float = 0.1
    attention_scale: str = "dim"
    use_gate: bool = True
    max_seq_len: int = MAX_SEQ_LEN

    @property
    def model_dim(self) -> int:
        return self.word_dim + self.marker_dim

    @property
    def num_tasks(self) -> int:
        return len(self.classes_per_task)

    def validate(self) -> None:
        dims = {
            "vocab_size": self.vocab_size, "word_dim": self.word_dim,
            "marker_dim": self.marker_dim, "num_heads": self.num_heads,
            "ff1_dim": self.ff1_dim, "ff2_hidden": self.ff2_hidden,
            "ff2_out": self.ff2_out, "num_experts": self.num_experts,
            "max_seq_len": self.max_seq_len,
        }
        for name, value in dims.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.attention_scale not in SCALE_MODES:
            raise ConfigError(
                f"attention_scale must be one of {SCALE_MODES}, got {self.attention_scale!r}"
            )
        if len(self.classes_per_task) != len(TASK_IDS):
            raise ConfigError(
                f"classes_per_task needs {len(TASK_IDS)} entries, got {self.classes_per_task}"
            )
        if any(c < 2 for c in self.classes_per_task):
            raise ConfigError(f"each task needs >= 2 classes: {self.classes_per_task}")


class _Init:
    """Xavier-uniform weights, zero biases, one rng stream."""

    def __init__(self, rng: np.random.Generator | None, dtype):
        self.rng = rng
        self.dtype = dtype

    def weight(self, fan_in: int, fan_out: int, blocks: int = 1) -> Tensor:
        """(fan_in, blocks * fan_out); each column block is drawn in turn
        as its own Xavier-uniform (fan_in, fan_out) matrix. With no rng the
        weight is a read-only zero placeholder of that shape and dtype that
        allocates no buffer of its size, for a saved state to replace."""
        if self.rng is None:
            zero = np.zeros((), dtype=self.dtype)
            return Tensor(np.broadcast_to(zero, (fan_in, blocks * fan_out)),
                          requires_grad=True)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = self.rng.uniform(-limit, limit, size=(blocks, fan_in, fan_out))
        # Cast and lay the blocks side by side in a single copy.
        w = w.transpose(1, 0, 2).astype(self.dtype, order="C")
        return Tensor(w.reshape(fan_in, blocks * fan_out), requires_grad=True)

    def bias(self, dim: int) -> Tensor:
        return Tensor(np.zeros(dim, dtype=self.dtype), requires_grad=True)


class ExpertUnit:
    def __init__(self, cfg: ModelConfig, init: _Init):
        d, heads = cfg.model_dim, cfg.num_heads
        self.num_heads = heads
        self.wq = init.weight(d, d // heads, heads)
        self.wk = init.weight(d, d // heads, heads)
        self.wv = init.weight(d, d // heads, heads)
        self.wo = init.weight(d, d)
        self.w1 = init.weight(d, cfg.ff1_dim)
        self.b1 = init.bias(cfg.ff1_dim)
        self.w2a = init.weight(2 * cfg.ff1_dim, cfg.ff2_hidden)
        self.b2a = init.bias(cfg.ff2_hidden)
        self.w2b = init.weight(cfg.ff2_hidden, cfg.ff2_out)
        self.b2b = init.bias(cfg.ff2_out)

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk),
                (f"{prefix}.wv", self.wv), (f"{prefix}.wo", self.wo),
                (f"{prefix}.w1", self.w1), (f"{prefix}.b1", self.b1),
                (f"{prefix}.w2a", self.w2a), (f"{prefix}.b2a", self.b2a),
                (f"{prefix}.w2b", self.w2b), (f"{prefix}.b2b", self.b2b)]


# ------------------------------------------------------------- forward ops


def embed_with_markers(token_ids: np.ndarray, marker_bits: np.ndarray,
                       table: Tensor, markers: Tensor) -> Tensor:
    """(..., s) ids and bits -> (..., s, word_dim + marker_dim)."""
    token_ids = np.asarray(token_ids)
    marker_bits = np.asarray(marker_bits)
    if token_ids.shape != marker_bits.shape:
        raise UsageError(
            f"ids shape {token_ids.shape} != marker bits shape {marker_bits.shape}"
        )
    for what, arr, rows in (("token ids", token_ids, table.shape[0]),
                            ("marker bits", marker_bits, markers.shape[0])):
        if arr.size and (arr.min() < 0 or arr.max() >= rows):
            raise UsageError(f"{what} must lie in [0, {rows}), got "
                             f"{arr.min()}..{arr.max()}")
    words = embedding_lookup(table, token_ids, pad_id=PAD_ID)
    marks = embedding_lookup(markers, marker_bits)
    return concat_last([words, marks])


def _score_scale(scale_mode: str, d1: int) -> float:
    """The factor attention scores of width d1 are multiplied by."""
    if scale_mode not in SCALE_MODES:
        raise ConfigError(f"unknown attention scale mode {scale_mode!r}")
    return 1.0 / (float(d1) if scale_mode == "dim" else math.sqrt(d1))


def attention(q: Tensor, k: Tensor, v: Tensor, scale_mode: str = "dim",
              key_mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / denom) v for q (..., sq, d), k (..., sk, d), v (..., sk, dv),
    from single graph ops. Keys where key_mask (..., sk) is False get ~zero weight."""
    c = _score_scale(scale_mode, q.shape[-1])
    if key_mask is not None and not key_mask.any(axis=-1).all():
        raise UsageError("attention: every position is masked")
    scores = scale(matmul(q, transpose_last(k)), c)
    if key_mask is not None:
        bias = np.where(key_mask, 0.0, MASK_FILL).astype(scores.dtype)
        scores = add_const(scores, bias[..., None, :])
    return matmul(softmax(scores), v)


def expert_forward(unit: ExpertUnit, x: Tensor, mask: np.ndarray,
                   training: bool = False, dropout_rate: float = 0.0,
                   rng: np.random.Generator | None = None,
                   scale_mode: str = "dim") -> Tensor:
    """Packed rows x (tokens, model_dim) at the True positions of the
    (b, s) mask -> (b, ff2_out)."""
    c = _score_scale(scale_mode, x.shape[-1] // unit.num_heads)
    h = packed_attention(x, unit.wq, unit.wk, unit.wv, unit.wo, mask, unit.num_heads, c)
    h = dropout(h, dropout_rate, training, rng)
    h = relu(add(matmul(h, unit.w1), unit.b1))         # (tokens, ff1)
    h = to_padded(dropout(h, dropout_rate, training, rng), mask)  # (b, s, ff1)
    pooled = concat_last([masked_max(h, mask), masked_mean(h, mask)])
    z = relu(add(matmul(pooled, unit.w2a), unit.b2a))
    z = add(matmul(z, unit.w2b), unit.b2b)             # (b, ff2_out)
    return dropout(z, dropout_rate, training, rng)


def gate_weights(w_gn: Tensor, x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of unmasked rows of x (b, s, d) through w_gn, softmaxed: (b, experts)."""
    return softmax(matmul(masked_mean(x, mask), w_gn))


# -------------------------------------------------------------------- model


class MoeClassifier:
    def __init__(self, cfg: ModelConfig, embedding: EmbeddingTable,
                 rng: np.random.Generator | None, dtype=np.float32):
        """With rng None every weight but the embedding is a zero
        placeholder, for load_state_arrays to replace."""
        cfg.validate()
        if embedding.matrix.shape != (cfg.vocab_size, cfg.word_dim):
            raise ConfigError(
                f"embedding shape {embedding.matrix.shape} does not match "
                f"config ({cfg.vocab_size}, {cfg.word_dim})"
            )
        self.cfg = cfg
        self.embedding = embedding
        init = _Init(rng, dtype)
        self.markers = init.weight(2, cfg.marker_dim)
        self.experts = [ExpertUnit(cfg, init) for _ in range(cfg.num_experts)]
        # Gates are created even when use_gate is off so that the init
        # stream, and with it every other parameter, matches the gated model.
        self.gates = [init.weight(cfg.model_dim, cfg.num_experts)
                      for _ in range(cfg.num_tasks)]
        self.heads = [(init.weight(cfg.ff2_out, c), init.bias(c))
                      for c in cfg.classes_per_task]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding.matrix), ("markers", self.markers)]
        for i, unit in enumerate(self.experts):
            out += unit.named_params(f"expert{i}")
        out += [(f"gate{k}", g) for k, g in enumerate(self.gates)]
        for k, (w, b) in enumerate(self.heads):
            out += [(f"head{k}.w", w), (f"head{k}.b", b)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def task_index(self, task_id: str) -> int:
        if task_id not in TASK_IDS:
            raise ConfigError(f"unknown task_id {task_id!r}")
        return TASK_IDS.index(task_id)

    def pad_batch(self, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """list of (token_ids, marker_bits, ...) -> ids, bits, mask arrays."""
        if not batch:
            raise UsageError("forward needs a non-empty batch")
        for ex in batch:
            if not ex[0]:
                raise UsageError("forward needs at least one token per example")
            if len(ex[0]) != len(ex[1]):
                raise UsageError(f"{len(ex[0])} token ids but {len(ex[1])} marker bits")
            if len(ex[0]) > self.cfg.max_seq_len:
                raise UsageError(f"sequence of {len(ex[0])} tokens exceeds "
                                 f"max_seq_len {self.cfg.max_seq_len}")
        width = max(len(ex[0]) for ex in batch)
        ids = np.full((len(batch), width), PAD_ID, dtype=np.int64)
        bits = np.zeros((len(batch), width), dtype=np.int64)
        mask = np.zeros((len(batch), width), dtype=bool)
        for r, ex in enumerate(batch):
            n = len(ex[0])
            ids[r, :n] = ex[0]
            bits[r, :n] = ex[1]
            mask[r, :n] = True
        return ids, bits, mask

    def forward(self, batch, task_id: str, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """batch of (token_ids, marker_bits) -> logits (batch, classes)."""
        k = self.task_index(task_id)
        cfg = self.cfg
        ids, bits, mask = self.pad_batch(batch)
        x = embed_with_markers(ids[mask], bits[mask], self.embedding.matrix,
                               self.markers)             # (tokens, d)
        outs = [expert_forward(unit, x, mask, training, cfg.dropout, rng,
                               cfg.attention_scale)
                for unit in self.experts]
        n, e, f = len(batch), cfg.num_experts, cfg.ff2_out
        if cfg.use_gate:
            gw = reshape(gate_weights(self.gates[k], to_padded(x, mask), mask),
                         (n, 1, e))
        else:
            gw = Tensor(np.full((n, 1, e), 1.0 / e, dtype=x.dtype))
        mixed = reshape(matmul(gw, reshape(concat_last(outs), (n, e, f))), (n, f))
        w, b = self.heads[k]
        return add(matmul(mixed, w), b)

    def infer(self, examples, task_id: str, batch_size: int = 256) -> np.ndarray:
        """Eval-mode logits (n, classes) in input order, with no graph.

        Examples are grouped by width bucket, the smallest power of two at
        least as long as the example, so a batch pads each one to less than
        twice its length. Each bucket keeps input order and is forwarded in
        slices of at most ``batch_size`` examples. That pays at the paper shape
        (1 BLAS thread, median of 30): 28.9 ms against 84.0 ms unbucketed for 12
        lines of 4-12 tokens plus 16 of 4-128, 82.4 against 97.4 ms for 200 of 4-12.
        """
        if batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {batch_size}")
        _, b = self.heads[self.task_index(task_id)]
        out = np.empty((len(examples), b.shape[0]), dtype=b.dtype)
        buckets: dict[int, list[int]] = {}
        for i, ex in enumerate(examples):
            buckets.setdefault(1 << max(len(ex[0]) - 1, 0).bit_length(), []).append(i)
        with no_grad():
            for width in sorted(buckets):
                rows = buckets[width]
                for start in range(0, len(rows), batch_size):
                    idx = rows[start:start + batch_size]
                    out[idx] = self.forward([examples[i] for i in idx], task_id).data
        return out

    def predict(self, examples, task_id: str, batch_size: int = 256) -> list[int]:
        """Argmax class per example; ties go to the lowest index."""
        return np.argmax(self.infer(examples, task_id, batch_size), axis=1).tolist()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray], copy: bool = True) -> None:
        """Take every parameter from ``arrays``. With copy False, an array
        of the parameter's dtype becomes the parameter itself."""
        for name, t in self.named_parameters():
            if name not in arrays:
                raise UsageError(f"missing parameter {name!r} in state")
            if arrays[name].shape != t.data.shape:
                raise UsageError(
                    f"parameter {name!r}: shape {arrays[name].shape} != {t.data.shape}"
                )
            t.data = arrays[name].astype(t.data.dtype, copy=copy)
