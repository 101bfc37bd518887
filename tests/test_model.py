"""Model components: marker-fused embeddings, attention against a loop
oracle, expert units, gates, the assembled classifier, and its invariants.
"""

import math
import tracemalloc

import numpy as np
import pytest

from textmoe import (
    ConfigError,
    ModelConfig,
    MoeClassifier,
    ShapeError,
    Tensor,
    UsageError,
    attention,
    embed_with_markers,
    expert_forward,
    gate_weights,
    synth_generate,
)
from textmoe import tensor
from textmoe.data import DEPRESSION, SENTIMENT, EmbeddingTable, Example, TaskDataset, Vocabulary
from textmoe.metrics import evaluate
from textmoe.model import SCALE_MODES, ExpertUnit, _Init, _score_scale
from textmoe.tensor import (
    add,
    concat_last,
    dropout,
    masked_max,
    masked_mean,
    matmul,
    no_grad,
    relu,
    reshape,
    slice_last,
    sum_all,
    swap_axes,
)
from textmoe.train import compute_loss, dataset_ce
from conftest import PAPER_DIMS, composed_attention
from test_acceptance import ACCEPT_DIMS


def tiny_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=12, word_dim=4, marker_dim=2, num_heads=2,
                ff1_dim=5, ff2_hidden=4, ff2_out=3, num_experts=2,
                dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, **overrides) -> MoeClassifier:
    cfg = tiny_config(**overrides)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(cfg.vocab_size - 2))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng)
    return MoeClassifier(cfg, emb, rng)


def example_batch(rng, n, max_id=11, max_len=6):
    batch = []
    for _ in range(n):
        length = int(rng.integers(2, max_len + 1))
        ids = rng.integers(2, max_id + 1, size=length).tolist()
        bits = rng.integers(0, 2, size=length).tolist()
        batch.append((ids, bits))
    return batch


# -------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ConfigError, match="divisible"):
        tiny_config(word_dim=4, marker_dim=2, num_heads=4).validate()
    with pytest.raises(ConfigError, match="dropout"):
        tiny_config(dropout=1.0).validate()
    with pytest.raises(ConfigError, match="attention_scale"):
        tiny_config(attention_scale="inverse").validate()
    with pytest.raises(ConfigError, match="classes_per_task"):
        tiny_config(classes_per_task=(2,)).validate()
    with pytest.raises(ConfigError, match=">= 2 classes"):
        tiny_config(classes_per_task=(2, 1)).validate()
    with pytest.raises(ConfigError, match="positive"):
        tiny_config(num_experts=0).validate()
    tiny_config().validate()


def test_model_dim_property():
    assert tiny_config().model_dim == 6
    assert tiny_config().num_tasks == 2


# --------------------------------------------------------------- embeddings


def test_embed_with_markers_layout():
    rng = np.random.default_rng(0)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    markers = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    ids = np.array([[2, 5, 0]])
    bits = np.array([[1, 0, 0]])
    out = embed_with_markers(ids, bits, table, markers)
    assert out.shape == (1, 3, 7)
    np.testing.assert_allclose(out.data[0, 0, :4], table.data[2], atol=1e-7)
    np.testing.assert_allclose(out.data[0, 0, 4:], markers.data[1], atol=1e-7)
    np.testing.assert_allclose(out.data[0, 1, 4:], markers.data[0], atol=1e-7)


def test_embed_with_markers_length_mismatch():
    table = Tensor(np.zeros((4, 2)))
    markers = Tensor(np.zeros((2, 2)))
    with pytest.raises(UsageError):
        embed_with_markers(np.array([1, 2]), np.array([0]), table, markers)


def test_forward_rejects_token_id_outside_vocabulary():
    # -1 would silently read the last embedding row; vocab_size would
    # raise a bare IndexError.
    model = tiny_model()
    for bad in (-1, model.cfg.vocab_size):
        with pytest.raises(UsageError, match="token ids"):
            model.forward([([2, bad], [0, 0])], SENTIMENT)


def test_forward_rejects_marker_bit_outside_0_1():
    model = tiny_model()
    for bad in (-1, 2):
        with pytest.raises(UsageError, match="marker bits"):
            model.forward([([2, 3], [0, bad])], SENTIMENT)


def test_pad_batch_rejects_sequence_longer_than_max_seq_len():
    model = tiny_model(max_seq_len=4)
    model.pad_batch([([2] * 4, [0] * 4)])
    with pytest.raises(UsageError, match="max_seq_len 4"):
        model.pad_batch([([2] * 4, [0] * 4), ([2] * 6, [0] * 6)])


@pytest.mark.parametrize("batch", [[([], [])], [([], []), ([], [])],
                                   [([2, 3], [0, 1]), ([], []), ([4], [1])]],
                         ids=["one-empty", "all-empty", "mixed"])
def test_an_example_with_no_tokens_is_a_usage_error(batch):
    model = tiny_model()
    with pytest.raises(UsageError, match="at least one token"):
        model.forward(batch, SENTIMENT)
    with pytest.raises(UsageError, match="at least one token"):
        model.infer(batch, DEPRESSION)


def test_pad_batch_rejects_ids_and_bits_of_different_lengths():
    # A single bit would otherwise broadcast across the whole row.
    model = tiny_model()
    with pytest.raises(UsageError, match="marker bits"):
        model.pad_batch([([2, 3, 4], [1])])


# ---------------------------------------------------------------- attention


def _loop_attention(q, k, v, denom, mask=None):
    b, s, d = q.shape
    out = np.zeros_like(v)
    for i in range(b):
        scores = np.zeros((s, s))
        for a in range(s):
            for c in range(s):
                scores[a, c] = np.dot(q[i, a], k[i, c]) / denom
                if mask is not None and not mask[i, c]:
                    scores[a, c] = -1e9
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        out[i] = w @ v[i]
    return out


@pytest.mark.parametrize("mode", SCALE_MODES)
def test_attention_matches_loop_oracle(mode):
    rng = np.random.default_rng(1)
    q = rng.normal(size=(2, 4, 3))
    k = rng.normal(size=(2, 4, 3))
    v = rng.normal(size=(2, 4, 3))
    mask = np.array([[True, True, True, False], [True, False, True, True]])
    denom = 3.0 if mode == "dim" else math.sqrt(3.0)
    got = attention(Tensor(q, dtype=np.float64), Tensor(k, dtype=np.float64),
                    Tensor(v, dtype=np.float64), mode, mask)
    want = _loop_attention(q, k, v, denom, mask)
    assert np.abs(got.data - want).max() < 1e-6


def test_attention_single_position_is_identity():
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(1, 1, 4)))
    k = Tensor(rng.normal(size=(1, 1, 4)))
    v = Tensor(rng.normal(size=(1, 1, 4)))
    for mode in SCALE_MODES:
        out = attention(q, k, v, mode)
        np.testing.assert_allclose(out.data, v.data, atol=1e-7)


def test_attention_zero_query_is_masked_mean():
    rng = np.random.default_rng(3)
    k = Tensor(rng.normal(size=(1, 5, 2)))
    v = Tensor(rng.normal(size=(1, 5, 2)))
    q = Tensor(np.zeros((1, 5, 2)))
    mask = np.array([[True, True, True, False, False]])
    out = attention(q, k, v, "dim", mask)
    want = v.data[0, :3].mean(axis=0)
    for pos in range(5):
        np.testing.assert_allclose(out.data[0, pos], want, atol=1e-6)


def test_attention_scale_modes_agree_only_at_dim_one():
    rng = np.random.default_rng(4)
    q1 = Tensor(rng.normal(size=(1, 3, 1)))
    k1 = Tensor(rng.normal(size=(1, 3, 1)))
    v1 = Tensor(rng.normal(size=(1, 3, 1)))
    a = attention(q1, k1, v1, "dim")
    b = attention(q1, k1, v1, "sqrt_dim")
    np.testing.assert_allclose(a.data, b.data, atol=1e-7)

    q2 = Tensor(rng.normal(size=(1, 3, 4)))
    k2 = Tensor(rng.normal(size=(1, 3, 4)))
    v2 = Tensor(rng.normal(size=(1, 3, 4)))
    c = attention(q2, k2, v2, "dim")
    d = attention(q2, k2, v2, "sqrt_dim")
    assert np.abs(c.data - d.data).max() > 1e-6


def test_attention_rejects_fully_masked():
    x = Tensor(np.ones((1, 2, 2)))
    with pytest.raises(UsageError):
        attention(x, x, x, "dim", np.array([[False, False]]))
    with pytest.raises(ConfigError):
        attention(x, x, x, "inverse")


def test_attention_shape_errors():
    x = Tensor(np.ones((2, 3, 4)))
    for k, v, mask in [(Tensor(np.ones((2, 3, 5))), x, None),  # k's width
                       (Tensor(np.ones((3, 3, 4))), x, None),  # k's batch axis
                       (x, Tensor(np.ones((2, 4, 4))), None),  # v's length
                       (x, x, np.ones((5, 3), dtype=bool)),  # a mask that does not fit
                       (x, x, np.ones((2, 2, 3), dtype=bool))]:  # one that would enlarge
        with pytest.raises(ShapeError):
            attention(x, k, v, "dim", mask)


# ------------------------------------------------------------- expert units


def test_expert_forward_shapes_and_single_sequence():
    cfg = tiny_config()
    unit = ExpertUnit(cfg, _Init(np.random.default_rng(5), np.float32))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4, cfg.model_dim)).astype(np.float32)
    mask = np.array([[True] * 4, [True, True, True, False],
                     [True, True, False, False]])
    batched = expert_forward(unit, Tensor(x[mask]), mask)
    assert batched.shape == (3, cfg.ff2_out)

    single = expert_forward(unit, Tensor(x[1, :3]), mask[1:2, :3])
    assert single.shape == (1, cfg.ff2_out)
    np.testing.assert_allclose(single.data[0], batched.data[1], atol=1e-5)


def _per_head_expert(unit, x, mask, scale_mode):
    """Reference expert: each head projected by its own column block."""
    d = x.shape[-1]
    dh = d // unit.num_heads
    heads = []
    for h in range(unit.num_heads):
        q, k, v = (matmul(x, slice_last(w, h * dh, (h + 1) * dh))
                   for w in (unit.wq, unit.wk, unit.wv))
        heads.append(attention(q, k, v, scale_mode, mask))
    y = relu(add(matmul(matmul(concat_last(heads), unit.wo), unit.w1), unit.b1))
    pooled = concat_last([masked_max(y, mask), masked_mean(y, mask)])
    z = relu(add(matmul(pooled, unit.w2a), unit.b2a))
    return add(matmul(z, unit.w2b), unit.b2b)


@pytest.mark.parametrize("mode", SCALE_MODES)
def test_batched_heads_match_per_head_reference(mode):
    cfg = tiny_config(word_dim=9, marker_dim=3, num_heads=3)
    unit = ExpertUnit(cfg, _Init(np.random.default_rng(31), np.float64))
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(3, 5, cfg.model_dim)), dtype=np.float64)
    mask = np.array([[True] * 5, [True, True, True, False, False],
                     [True, False, False, False, False]])
    got = expert_forward(unit, Tensor(x.data[mask]), mask, scale_mode=mode)
    want = _per_head_expert(unit, x, mask, mode)
    assert np.abs(got.data - want.data).max() < 1e-6


def test_head_blocks_match_per_head_draws():
    # Column block h of each projection is the matrix that drawing one
    # (model_dim, head_dim) weight per head, in order, would give.
    cfg = tiny_config(word_dim=9, marker_dim=3, num_heads=3)
    unit = ExpertUnit(cfg, _Init(np.random.default_rng(33), np.float32))
    rng = np.random.default_rng(33)
    d, dh = cfg.model_dim, cfg.model_dim // cfg.num_heads
    limit = math.sqrt(6.0 / (d + dh))
    for w in (unit.wq, unit.wk, unit.wv):
        for h in range(cfg.num_heads):
            draw = rng.uniform(-limit, limit, size=(d, dh)).astype(np.float32)
            np.testing.assert_array_equal(w.data[:, h * dh:(h + 1) * dh], draw)
    limit = math.sqrt(6.0 / (2 * d))
    np.testing.assert_array_equal(
        unit.wo.data, rng.uniform(-limit, limit, size=(d, d)).astype(np.float32))


def test_expert_forward_ignores_padding_rows():
    cfg = tiny_config()
    unit = ExpertUnit(cfg, _Init(np.random.default_rng(7), np.float32))
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 2, cfg.model_dim)).astype(np.float32)
    short = expert_forward(unit, Tensor(x[0]), np.array([[True, True]]))
    padded_x = np.concatenate(
        [x, rng.normal(size=(1, 2, cfg.model_dim)).astype(np.float32)], axis=1)
    padded_mask = np.array([[True, True, False, False]])
    long = expert_forward(unit, Tensor(padded_x[padded_mask]), padded_mask)
    np.testing.assert_allclose(short.data, long.data, atol=1e-5)


# ------------------------------------------------------------------- gates


def test_gate_weights_sum_to_one():
    rng = np.random.default_rng(9)
    w = Tensor(rng.normal(size=(6, 4)))
    x = Tensor(rng.normal(size=(5, 3, 6)))
    mask = np.ones((5, 3), dtype=bool)
    gw = gate_weights(w, x, mask)
    assert gw.shape == (5, 4)
    np.testing.assert_allclose(gw.data.sum(axis=-1), 1.0, atol=1e-6)


def test_gate_weights_zero_matrix_is_uniform():
    x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 6)))
    gw = gate_weights(Tensor(np.zeros((6, 4))), x, np.ones((2, 3), dtype=bool))
    np.testing.assert_allclose(gw.data, 0.25, atol=1e-7)


def test_gate_weights_single_expert_is_one():
    x = Tensor(np.random.default_rng(11).normal(size=(2, 3, 6)))
    gw = gate_weights(Tensor(np.ones((6, 1))), x, np.ones((2, 3), dtype=bool))
    np.testing.assert_array_equal(gw.data, 1.0)


# ------------------------------------------------------------ assembled model


@pytest.mark.parametrize("use_gate", [True, False])
def test_forward_mixes_experts_by_gate_weights(use_gate):
    cfg = tiny_config(num_experts=3, use_gate=use_gate)
    rng = np.random.default_rng(34)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(cfg.vocab_size - 2))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng, dtype=np.float64)
    model = MoeClassifier(cfg, emb, rng, dtype=np.float64)
    batch = example_batch(np.random.default_rng(35), 4)
    ids, bits, mask = model.pad_batch(batch)
    x = embed_with_markers(ids, bits, model.embedding.matrix, model.markers)
    packed = embed_with_markers(ids[mask], bits[mask], model.embedding.matrix,
                                model.markers)
    outs = [expert_forward(u, packed, mask).data for u in model.experts]
    if use_gate:
        gw = gate_weights(model.gates[1], x, mask).data
    else:
        gw = np.full((len(batch), 3), 1.0 / 3)
    mixed = sum(gw[:, e:e + 1] * outs[e] for e in range(3))
    w, b = model.heads[1]
    want = mixed @ w.data + b.data
    got = model.forward(batch, DEPRESSION).data
    assert np.abs(got - want).max() < 1e-9


def test_forward_logit_shapes_per_task():
    model = tiny_model()
    batch = example_batch(np.random.default_rng(12), 4)
    assert model.forward(batch, SENTIMENT).shape == (4, 2)
    assert model.forward(batch, DEPRESSION).shape == (4, 2)


def test_unknown_task_and_empty_batch():
    model = tiny_model()
    with pytest.raises(ConfigError):
        model.forward([([2], [0])], "other")
    with pytest.raises(UsageError):
        model.forward([], SENTIMENT)


def test_embedding_shape_guard():
    cfg = tiny_config()
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(20))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="embedding shape"):
        MoeClassifier(cfg, emb, np.random.default_rng(0))


def test_padding_invariance():
    # An example's logits must not depend on how much padding its batch
    # forces onto it.
    model = tiny_model(seed=13)
    short = ([2, 3, 4], [0, 1, 0])
    long = ([5, 6, 7, 8, 9, 10], [0] * 6)
    alone = model.forward([short], DEPRESSION).data[0]
    padded = model.forward([short, long], DEPRESSION).data[0]
    assert np.abs(alone - padded).max() <= 1e-5


def test_duplicate_rows_get_identical_logits():
    model = tiny_model(seed=14)
    ex = ([4, 5, 6], [1, 0, 0])
    out = model.forward([ex, ex, ex], SENTIMENT).data
    assert np.abs(out - out[0]).max() < 1e-6


def test_identical_experts_make_gates_irrelevant():
    model = tiny_model(seed=15, num_experts=3)
    source = model.experts[0]
    for unit in model.experts[1:]:
        for (_, dst), (_, src) in zip(unit.named_params("x"),
                                      source.named_params("x")):
            dst.data = src.data.copy()
    batch = example_batch(np.random.default_rng(16), 5)
    gated = model.forward(batch, DEPRESSION).data
    model.cfg.use_gate = False
    uniform = model.forward(batch, DEPRESSION).data
    assert np.abs(gated - uniform).max() < 1e-6


def test_single_expert_gating_equals_averaging():
    gated = tiny_model(seed=17, num_experts=1)
    ungated = tiny_model(seed=17, num_experts=1, use_gate=False)
    batch = example_batch(np.random.default_rng(18), 4)
    a = gated.forward(batch, SENTIMENT).data
    b = ungated.forward(batch, SENTIMENT).data
    np.testing.assert_array_equal(a, b)


def test_gate_flag_changes_nothing_else_at_init():
    # The two variants must draw identical initial parameters.
    a = tiny_model(seed=19)
    b = tiny_model(seed=19, use_gate=False)
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(),
                                          b.named_parameters()):
        assert name_a == name_b
        np.testing.assert_array_equal(pa.data, pb.data)


def test_eval_forward_is_deterministic_with_dropout_configured():
    model = tiny_model(seed=20, dropout=0.4)
    batch = example_batch(np.random.default_rng(21), 3)
    a = model.forward(batch, DEPRESSION, training=False).data
    b = model.forward(batch, DEPRESSION, training=False).data
    np.testing.assert_array_equal(a, b)


def test_training_dropout_needs_rng_and_perturbs():
    model = tiny_model(seed=22, dropout=0.4)
    batch = example_batch(np.random.default_rng(23), 3)
    with pytest.raises(UsageError):
        model.forward(batch, DEPRESSION, training=True)
    a = model.forward(batch, DEPRESSION, training=True,
                      rng=np.random.default_rng(1)).data
    b = model.forward(batch, DEPRESSION, training=False).data
    assert np.abs(a - b).max() > 1e-6


def test_named_parameters_inventory():
    cfg = tiny_config()
    model = tiny_model()
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    per_expert = 10
    expected = 2 + cfg.num_experts * per_expert + cfg.num_tasks + 2 * cfg.num_tasks
    assert len(names) == expected
    assert names[0] == "embedding" and names[1] == "markers"
    assert "expert0.wq" in names and "gate1" in names and "head1.b" in names
    d = cfg.model_dim
    assert dict(model.named_parameters())["expert1.wv"].shape == (d, d)


def test_predict_returns_argmax_classes():
    model = tiny_model(seed=24)
    batch = example_batch(np.random.default_rng(25), 6)
    preds = model.predict(batch, DEPRESSION)
    logits = model.forward(batch, DEPRESSION).data
    assert preds == [int(i) for i in logits.argmax(axis=1)]
    assert all(p in (0, 1) for p in preds)


def test_state_round_trip_is_bit_exact():
    model = tiny_model(seed=26)
    batch = example_batch(np.random.default_rng(27), 3)
    want = model.forward(batch, SENTIMENT).data.copy()
    state = model.state_arrays()

    other = tiny_model(seed=99)
    other.load_state_arrays(state)
    got = other.forward(batch, SENTIMENT).data
    np.testing.assert_array_equal(got, want)


def test_state_adopted_without_draw_or_copy():
    model = tiny_model(seed=26)
    batch = example_batch(np.random.default_rng(27), 3)
    state = model.state_arrays()
    emb = EmbeddingTable(Tensor(state["embedding"], requires_grad=True))
    blank = MoeClassifier(model.cfg, emb, None)
    blank.load_state_arrays(state, copy=False)
    for name, t in blank.named_parameters():
        assert t.data is state[name], name
    np.testing.assert_array_equal(blank.forward(batch, SENTIMENT).data,
                                  model.forward(batch, SENTIMENT).data)
    model.load_state_arrays(state)
    for name, t in model.named_parameters():
        assert not np.shares_memory(t.data, state[name]), name


def test_load_state_errors():
    model = tiny_model()
    state = model.state_arrays()
    del state["markers"]
    with pytest.raises(UsageError, match="markers"):
        model.load_state_arrays(state)
    state = model.state_arrays()
    state["markers"] = np.zeros((3, 3))
    with pytest.raises(UsageError, match="shape"):
        model.load_state_arrays(state)


def test_whole_model_gradients(gradcheck):
    # End-to-end finite differences through embeddings, markers, attention,
    # pooling, gates, and a head, in double precision.
    cfg = tiny_config(num_experts=2)
    rng = np.random.default_rng(28)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(cfg.vocab_size - 2))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng, dtype=np.float64)
    model = MoeClassifier(cfg, emb, rng, dtype=np.float64)
    batch = [([2, 3, 4], [0, 1, 0]), ([5, 6], [1, 0])]

    params = [model.markers, model.gates[1], model.experts[0].wq,
              model.experts[0].wo, model.heads[1][0]]
    gradcheck(lambda: sum_all(model.forward(batch, DEPRESSION)), params,
              tol=1e-4)


# ------------------------------------------------------- inference path


def accept_model(seed, dtype=np.float32, vocab_size=50) -> MoeClassifier:
    cfg = ModelConfig(vocab_size=vocab_size, **ACCEPT_DIMS)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(vocab_size - 2))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng, dtype=dtype)
    return MoeClassifier(cfg, emb, rng, dtype=dtype)


def lines_of(rng, lengths, vocab_size=50):
    return [Example(rng.integers(2, vocab_size, size=n).tolist(),
                    rng.integers(0, 2, size=n).tolist(), int(rng.integers(0, 2)))
            for n in lengths]


# 12 short lines plus a long tail, as social-network posts come.
def mixed_lines(rng):
    tail = [4, 5, 5, 6, 6, 7, 8, 9, 10, 12, 14, 17, 22, 32, 56, 128]
    return lines_of(rng, list(rng.integers(4, 13, size=12)) + tail)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_forward_is_bitwise_the_recording_forward(dtype):
    model = accept_model(seed=30, dtype=dtype)
    batch = mixed_lines(np.random.default_rng(31))
    for task in (DEPRESSION, SENTIMENT):
        recorded = model.forward(batch, task).data
        with no_grad():
            free = model.forward(batch, task).data
        assert free.dtype == dtype
        np.testing.assert_array_equal(free, recorded)


def test_eval_mode_outputs_record_no_graph(monkeypatch):
    model = accept_model(seed=32)
    rng = np.random.default_rng(33)
    ds = TaskDataset(DEPRESSION, lines_of(rng, rng.integers(1, 20, size=9)), 2)
    outputs = []
    make = tensor._from_op

    def spy(data, parents, backward):
        outputs.append(make(data, parents, backward))
        return outputs[-1]

    monkeypatch.setattr(tensor, "_from_op", spy)
    model.infer(ds.examples, SENTIMENT, batch_size=4)
    model.predict(ds.examples, DEPRESSION)
    evaluate(model, ds, DEPRESSION, batch_size=4)
    dataset_ce(model, ds, batch_size=4)
    assert outputs
    assert all(t._parents == () and t._backward is None for t in outputs)


def test_training_step_after_evaluate_fills_every_touched_gradient():
    model = accept_model(seed=34)
    rng = np.random.default_rng(35)
    ds = TaskDataset(DEPRESSION, lines_of(rng, rng.integers(1, 12, size=6)), 2)
    evaluate(model, ds, DEPRESSION)
    dataset_ce(model, ds)
    logits = model.forward(ds.examples, DEPRESSION, training=True,
                           rng=np.random.default_rng(0))
    compute_loss(logits, np.array(ds.labels)).backward()
    other = 1 - model.task_index(DEPRESSION)  # the idle task's gate and head
    idle = {f"gate{other}", f"head{other}.w", f"head{other}.b"}
    for name, p in model.named_parameters():
        assert (p.grad is None) == (name in idle), name


def test_infer_keeps_input_order_across_buckets():
    model = accept_model(seed=36)
    batch = mixed_lines(np.random.default_rng(37))
    got = model.infer(batch, DEPRESSION, batch_size=3)
    one_by_one = np.stack([model.forward([ex], DEPRESSION).data[0] for ex in batch])
    assert got.shape == (len(batch), 2)
    assert np.abs(got - one_by_one).max() <= 1e-5
    assert model.predict(batch, DEPRESSION) == got.argmax(axis=1).tolist()


def test_infer_empty_input_and_errors():
    model = accept_model(seed=38)
    assert model.infer([], DEPRESSION).shape == (0, 2)
    with pytest.raises(UsageError, match="max_seq_len"):
        model.infer(lines_of(np.random.default_rng(0), [3, 129]), DEPRESSION)
    with pytest.raises(ConfigError):
        model.infer(lines_of(np.random.default_rng(0), [3]), "nope")


@pytest.mark.parametrize("batch_size", [0, -3])
@pytest.mark.parametrize("call", ["infer", "predict", "evaluate", "dataset_ce"])
def test_eval_batch_size_below_one_is_a_usage_error(call, batch_size):
    # Unchecked, 0 fails inside range() and -3 returns an unwritten buffer
    # as logits, which evaluate then scores.
    model = tiny_model(seed=40)
    batch = example_batch(np.random.default_rng(41), 3)
    ds = TaskDataset(DEPRESSION, [Example(ids, bits, 0) for ids, bits in batch], 2)
    calls = {"infer": lambda: model.infer(batch, DEPRESSION, batch_size),
             "predict": lambda: model.predict(batch, DEPRESSION, batch_size),
             "evaluate": lambda: evaluate(model, ds, DEPRESSION, batch_size),
             "dataset_ce": lambda: dataset_ce(model, ds, batch_size)}
    with pytest.raises(UsageError, match="batch_size"):
        calls[call]()


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bucketed_inference_peaks_below_a_padded_forward():
    # The padded forward makes (28, heads, 128, 128) attention scores and,
    # recording, keeps every activation until it returns; the 4..128-token
    # buckets stay far below both.
    model = accept_model(seed=39)
    batch = mixed_lines(np.random.default_rng(40))

    def padded_without_graph():
        with no_grad():
            model.forward(batch, DEPRESSION)

    recorded = _peak_bytes(lambda: model.forward(batch, DEPRESSION))
    padded = _peak_bytes(padded_without_graph)
    bucketed = _peak_bytes(lambda: model.infer(batch, DEPRESSION))
    assert bucketed < recorded, (bucketed, recorded)
    assert bucketed < padded, (bucketed, padded)


# ------------------------------------------------------------ packed path


def _real_token_dropout(h, mask, rate, training, rng):
    """Dropout on padded h (b, s, d) whose mask is drawn for the real
    tokens only, at the packed shape (tokens, d), and then scattered."""
    if not training or rate == 0.0:
        return h
    keep = np.zeros(h.shape, dtype=bool)
    keep[mask] = rng.random((int(mask.sum()), h.shape[-1])) >= rate
    return tensor.mul(h, Tensor(keep.astype(h.dtype) / (1.0 - rate)))


def _padded_forward(model, batch, task_id, training=False, rng=None):
    """Reference forward with every layer on the padded (b, s, ·) layout,
    padded positions included, and each token-wise dropout mask drawn for
    the real tokens only."""
    cfg = model.cfg
    ids, bits, mask = model.pad_batch(batch)
    x = embed_with_markers(ids, bits, model.embedding.matrix, model.markers)
    b, s, d = x.shape
    e, f = cfg.num_experts, cfg.ff2_out
    outs = []
    for unit in model.experts:
        q, k, v = (swap_axes(reshape(matmul(x, w), (b, s, cfg.num_heads, -1)), 1, 2)
                   for w in (unit.wq, unit.wk, unit.wv))
        att = composed_attention(q, k, v, _score_scale(cfg.attention_scale, q.shape[-1]),
                                 mask[:, None])
        h = matmul(reshape(swap_axes(att, 1, 2), (b, s, d)), unit.wo)
        h = _real_token_dropout(h, mask, cfg.dropout, training, rng)
        h = _real_token_dropout(relu(add(matmul(h, unit.w1), unit.b1)), mask,
                                cfg.dropout, training, rng)
        pooled = concat_last([masked_max(h, mask), masked_mean(h, mask)])
        z = relu(add(matmul(pooled, unit.w2a), unit.b2a))
        z = add(matmul(z, unit.w2b), unit.b2b)
        outs.append(dropout(z, cfg.dropout, training, rng))
    t = model.task_index(task_id)
    gw = reshape(gate_weights(model.gates[t], x, mask), (b, 1, e))
    mixed = reshape(matmul(gw, reshape(concat_last(outs), (b, e, f))), (b, f))
    w, bias = model.heads[t]
    return add(matmul(mixed, w), bias)


@pytest.mark.parametrize("dims", [ACCEPT_DIMS, PAPER_DIMS], ids=["accept", "paper"])
def test_packed_forward_matches_padded_reference(dims):
    cfg = ModelConfig(vocab_size=10, **dims)
    rng = np.random.default_rng(50)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng, dtype=np.float64)
    model = MoeClassifier(cfg, emb, rng, dtype=np.float64)
    batch = lines_of(np.random.default_rng(51), [1, 12, 4, 7, 12, 3, 9, 5],
                     vocab_size=10)
    labels = np.array([ex.label for ex in batch])
    runs = []
    for forward in (model.forward, lambda *a, **kw: _padded_forward(model, *a, **kw)):
        logits = forward(batch, DEPRESSION, training=True, rng=np.random.default_rng(52))
        compute_loss(logits, labels, model.parameters(), lambda_l2=1e-4).backward()
        runs.append((logits.data, {n: p.grad for n, p in model.named_parameters()}))
        for p in model.parameters():
            p.grad = None
    (packed, packed_grads), (padded, padded_grads) = runs
    assert np.abs(packed - padded).max() < 1e-6
    for name, want in padded_grads.items():
        got = packed_grads[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.abs(got - want).max() < 1e-6, name


def test_training_forward_draws_dropout_masks_for_real_tokens_only():
    model = tiny_model(seed=53, dropout=0.1)
    batch = example_batch(np.random.default_rng(54), 5)
    rng = np.random.default_rng(55)
    model.forward(batch, DEPRESSION, training=True, rng=rng)
    cfg, b, tokens = model.cfg, len(batch), sum(len(ids) for ids, _ in batch)
    assert tokens < b * max(len(ids) for ids, _ in batch)  # the batch has padding
    want = np.random.default_rng(55)
    for _ in model.experts:
        for shape in ((tokens, cfg.model_dim), (tokens, cfg.ff1_dim), (b, cfg.ff2_out)):
            want.random(shape)
    assert rng.bit_generator.state == want.bit_generator.state
