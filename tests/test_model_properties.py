"""Randomised model invariants: bucketed inference against one-line
forwards (padding invariance), fused attention against its composed
chain, gate rows summing to 1, and the sentiment batch count of an epoch
schedule.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from textmoe import (  # noqa: E402
    Example,
    ModelConfig,
    MoeClassifier,
    TaskDataset,
    Tensor,
    TrainConfig,
    gate_weights,
    schedule_epoch,
)
from textmoe.data import DEPRESSION, SENTIMENT, EmbeddingTable, Vocabulary  # noqa: E402
from textmoe.model import SCALE_MODES, _score_scale  # noqa: E402
from textmoe.tensor import packed_attention  # noqa: E402
from conftest import attention_runs, composed_packed_attention  # noqa: E402

FEW = settings(max_examples=25, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
MAX_SEQ_LEN = 20  # buckets of width 1, 2, 4, 8, 16 and 32


def _model(seed: int) -> MoeClassifier:
    cfg = ModelConfig(vocab_size=12, word_dim=4, marker_dim=2, num_heads=2,
                      ff1_dim=5, ff2_hidden=4, ff2_out=3, num_experts=2,
                      dropout=0.0, max_seq_len=MAX_SEQ_LEN)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(cfg.vocab_size - 2))
    return MoeClassifier(cfg, EmbeddingTable.random(vocab, cfg.word_dim, rng), rng)


@FEW
@given(lengths=st.lists(st.integers(1, MAX_SEQ_LEN), min_size=1, max_size=12),
       batch_size=st.integers(1, 5), seed=SEEDS)
def test_infer_matches_one_line_forwards_in_input_order(lengths, batch_size, seed):
    model = _model(seed % 1000)
    rng = np.random.default_rng(seed)
    lines = [(rng.integers(1, 12, size=n).tolist(), rng.integers(0, 2, size=n).tolist())
             for n in lengths]
    got = model.infer(lines, DEPRESSION, batch_size=batch_size)
    alone = np.stack([model.forward([line], DEPRESSION).data[0] for line in lines])
    assert np.abs(got - alone).max() <= 1e-5


@FEW
@given(b=st.integers(1, 4), s=st.integers(1, 7), heads=st.integers(1, 3),
       head_dim=st.integers(1, 4), d_in=st.integers(1, 5), d_out=st.integers(1, 5),
       mode=st.sampled_from(SCALE_MODES), seed=SEEDS)
def test_fused_attention_matches_the_composed_chain(b, s, heads, head_dim, d_in, d_out,
                                                    mode, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((b, s)) < 0.6
    mask[np.arange(b), rng.integers(0, s, size=b)] = True  # >= 1 real position a row
    tokens, c, d = int(mask.sum()), _score_scale(mode, head_dim), heads * head_dim
    packed = (packed_attention, composed_packed_attention)
    shapes = [(tokens, d_in), (d_in, d), (d_in, d), (d_in, d), (d, d_out)]
    for dtype in (np.float32, np.float64):
        fused, composed = attention_runs(packed, shapes, (mask, heads, c), dtype, seed)
        for got, want in zip(fused, composed):
            if dtype == np.float32:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-12


@FEW
@given(b=st.integers(1, 4), s=st.integers(1, 6), d=st.integers(1, 6),
       experts=st.integers(1, 5), spread=st.floats(0.1, 10.0), seed=SEEDS)
def test_gate_rows_sum_to_one(b, s, d, experts, spread, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((b, s)) < 0.5
    mask[:, 0] = True
    x = Tensor(rng.uniform(-spread, spread, size=(np.count_nonzero(mask), d)),
               dtype=np.float32)  # one row per real position
    w = Tensor(rng.uniform(-spread, spread, size=(d, experts)), dtype=np.float32)
    rows = gate_weights(w, x, mask).data
    assert rows.shape == (b, experts)
    assert (rows >= 0).all()
    assert np.abs(rows.astype(np.float64).sum(axis=1) - 1.0).max() <= 1e-6


def _dataset(task_id: str, n: int) -> TaskDataset:
    return TaskDataset(task_id, [Example([2], [0], i % 2) for i in range(n)], 2)


@FEW
@given(n_dep=st.integers(1, 300), n_sent=st.integers(1, 300),
       batch_size=st.integers(1, 64), r_s=st.integers(1, 6), r_d=st.integers(1, 6),
       seed=SEEDS)
def test_schedule_sentiment_batches_follow_the_ratio(n_dep, n_sent, batch_size,
                                                     r_s, r_d, seed):
    cfg = TrainConfig(batch_size=batch_size, ratio=(r_s, r_d))
    sched = schedule_epoch(_dataset(SENTIMENT, n_sent), _dataset(DEPRESSION, n_dep),
                           cfg, np.random.default_rng(seed))
    dep_batches = -(-n_dep // batch_size)
    assert sched.count(DEPRESSION) == dep_batches
    assert sched.count(SENTIMENT) == max(1, round(dep_batches * r_s / r_d))
