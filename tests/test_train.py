"""Training machinery: batch scheduling, the loss, early stopping, splits,
and the full fit loop with its determinism and isolation guarantees.
"""

import math
import tracemalloc

import numpy as np
import pytest

from textmoe import (
    ConfigError,
    EarlyStopper,
    Example,
    ModelConfig,
    MoeClassifier,
    TaskDataset,
    Tensor,
    TrainConfig,
    TrainingDiverged,
    UsageError,
    compute_loss,
    fit,
    schedule_epoch,
    synth_generate,
)
from textmoe.data import DEPRESSION, SENTIMENT, EmbeddingTable, Vocabulary
from textmoe.metrics import evaluate
from textmoe.optim import BLOCK, RmsProp
from textmoe import train as train_module
from textmoe.tensor import cross_entropy
from textmoe.train import (
    TAG_SPLIT,
    EpochRecord,
    dataset_ce,
    rng_stream,
    stratified_split,
)
from conftest import PAPER_DIMS
from test_acceptance import ACCEPT_DIMS
from test_optim import reference_step


def make_dataset(task_id, n, num_classes=2, seed=0, length=4):
    rng = np.random.default_rng(seed)
    examples = [Example(rng.integers(2, 9, size=length).tolist(),
                        rng.integers(0, 2, size=length).tolist(),
                        int(rng.integers(0, num_classes)))
                for _ in range(n)]
    return TaskDataset(task_id, examples, num_classes)


def small_model(seed=0, **overrides):
    cfg = ModelConfig(vocab_size=10, word_dim=4, marker_dim=2, num_heads=2,
                      ff1_dim=4, ff2_hidden=4, ff2_out=3, num_experts=2,
                      dropout=0.0, **overrides)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
    emb = EmbeddingTable.random(vocab, cfg.word_dim, rng)
    return MoeClassifier(cfg, emb, rng)


def train_config(**overrides):
    base = dict(learning_rate=1e-3, batch_size=8, lambda_l2=0.0,
                max_epochs=2, ratio=(1, 1), early_stop_patience=5,
                lr_patience=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ----------------------------------------------------------------- streams


def test_rng_streams_are_deterministic_and_distinct():
    a = rng_stream(7, 0).random(5)
    b = rng_stream(7, 0).random(5)
    c = rng_stream(7, 1).random(5)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0


# ------------------------------------------------------------ configuration


def test_train_config_validation():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="learning_rate"):
            train_config(learning_rate=bad).validate()
    with pytest.raises(ConfigError):
        train_config(batch_size=0).validate()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="lambda_l2"):
            train_config(lambda_l2=bad).validate()
    with pytest.raises(ConfigError):
        train_config(ratio=(0, 0)).validate()
    with pytest.raises(ConfigError):
        train_config(ratio=(-1, 1)).validate()
    with pytest.raises(ConfigError):
        train_config(lr_decay_factor=0.0).validate()
    with pytest.raises(ConfigError):
        train_config(early_stop_patience=0).validate()
    with pytest.raises(ConfigError):
        train_config(validation_fraction=1.0).validate()
    train_config().validate()


# ---------------------------------------------------------------- scheduling


def test_schedule_ratio_three_to_one():
    sent = make_dataset(SENTIMENT, 400, seed=1)
    dep = make_dataset(DEPRESSION, 80, seed=2)
    cfg = train_config(batch_size=8, ratio=(3, 1))
    sched = schedule_epoch(sent, dep, cfg, rng_stream(0, 3))
    assert sched.count(DEPRESSION) == 10
    assert sched.count(SENTIMENT) == 30


def test_schedule_covers_every_target_example_once():
    dep = make_dataset(DEPRESSION, 37, seed=3)
    cfg = train_config(batch_size=8, ratio=(1, 1))
    sched = schedule_epoch(make_dataset(SENTIMENT, 64, seed=4), dep, cfg,
                           rng_stream(1, 3))
    seen = np.concatenate([idx for t, idx in sched.batches if t == DEPRESSION])
    assert sorted(seen.tolist()) == list(range(37))
    assert all(len(idx) <= 8 for _, idx in sched.batches)


def test_schedule_zero_sentiment_ratio():
    dep = make_dataset(DEPRESSION, 20, seed=5)
    sched = schedule_epoch(None, dep, train_config(ratio=(0, 1)),
                           rng_stream(2, 3))
    assert sched.count(SENTIMENT) == 0
    assert sched.count(DEPRESSION) == 3


def test_schedule_sentiment_anchors_when_dep_ratio_zero():
    sent = make_dataset(SENTIMENT, 20, seed=6)
    sched = schedule_epoch(sent, None, train_config(batch_size=8, ratio=(1, 0)),
                           rng_stream(3, 3))
    assert sched.count(SENTIMENT) == 3
    assert sched.count(DEPRESSION) == 0


def test_schedule_cycles_small_sentiment_pool():
    # Sentiment has one batch worth of data but owes four: reshuffled reuse.
    sent = make_dataset(SENTIMENT, 8, seed=7)
    dep = make_dataset(DEPRESSION, 32, seed=8)
    cfg = train_config(batch_size=8, ratio=(1, 1))
    sched = schedule_epoch(sent, dep, cfg, rng_stream(4, 3))
    assert sched.count(SENTIMENT) == 4
    seen = np.concatenate([idx for t, idx in sched.batches if t == SENTIMENT])
    assert sorted(set(seen.tolist())) == list(range(8))


def test_schedule_requires_data_for_nonzero_ratio():
    dep = make_dataset(DEPRESSION, 16, seed=9)
    with pytest.raises(ConfigError, match="sentiment"):
        schedule_epoch(None, dep, train_config(ratio=(1, 1)), rng_stream(5, 3))
    with pytest.raises(ConfigError, match="depression"):
        schedule_epoch(make_dataset(SENTIMENT, 16), None,
                       train_config(ratio=(1, 1)), rng_stream(5, 3))


def test_schedule_minimum_one_sentiment_batch():
    sent = make_dataset(SENTIMENT, 64, seed=10)
    dep = make_dataset(DEPRESSION, 8, seed=11)
    cfg = train_config(batch_size=8, ratio=(1, 3))
    sched = schedule_epoch(sent, dep, cfg, rng_stream(6, 3))
    assert sched.count(SENTIMENT) == 1  # round(1 * 1/3) clamps up to 1


# --------------------------------------------------------------------- loss


def test_uniform_logits_loss_is_log_c():
    for c in (2, 3, 5):
        logits = Tensor(np.zeros((4, c)), dtype=np.float64)
        labels = np.zeros(4, dtype=np.int64)
        assert compute_loss(logits, labels).item() == pytest.approx(
            math.log(c), abs=1e-6)


def test_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    got = compute_loss(Tensor(logits, dtype=np.float64), labels).item()
    assert got == pytest.approx(want, abs=1e-9)


def test_l2_term_hand_case():
    logits = Tensor(np.zeros((2, 2)), dtype=np.float64)
    labels = np.array([0, 1])
    theta = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    plain = compute_loss(logits, labels).item()
    reg = compute_loss(logits, labels, [theta], lambda_l2=0.01).item()
    assert reg - plain == pytest.approx(0.09, abs=1e-9)


def test_l2_zero_keeps_loss_a_pure_ce():
    logits = Tensor(np.zeros((2, 2)), dtype=np.float64)
    theta = Tensor(np.array([100.0]), requires_grad=True, dtype=np.float64)
    a = compute_loss(logits, np.array([0, 1])).item()
    b = compute_loss(logits, np.array([0, 1]), [theta], lambda_l2=0.0).item()
    assert a == b


# ------------------------------------------------------------ early stopping


def test_early_stopper_boundary():
    s = EarlyStopper(patience=2)
    assert s.update(1.0) is True
    assert not s.should_stop
    assert s.update(1.0) is False  # equality is not an improvement
    assert not s.should_stop
    assert s.update(1.1) is False
    assert s.should_stop


def test_early_stopper_resets_on_improvement():
    s = EarlyStopper(patience=2)
    s.update(1.0)
    s.update(2.0)
    assert s.update(0.5) is True
    assert s.epochs_since_improvement == 0
    assert not s.should_stop


def test_early_stopper_patience_validation():
    with pytest.raises(ConfigError):
        EarlyStopper(patience=0)


# ------------------------------------------------------------------- splits


def test_stratified_split_preserves_classes():
    ds = make_dataset(DEPRESSION, 100, seed=13)
    train, val = stratified_split(ds, 0.2, np.random.default_rng(0))
    assert len(train) + len(val) == 100
    for c in (0, 1):
        total = sum(1 for label in ds.labels if label == c)
        held = sum(1 for label in val.labels if label == c)
        assert held == round(0.2 * total)


def test_stratified_split_keeps_singletons_in_train():
    examples = [Example([2], [0], 0) for _ in range(9)] + [Example([3], [1], 1)]
    ds = TaskDataset(DEPRESSION, examples, 2)
    train, val = stratified_split(ds, 0.5, np.random.default_rng(1))
    assert all(label == 0 for label in val.labels)
    assert 1 in train.labels


# ---------------------------------------------------------------------- fit


def test_fit_zero_epochs_changes_nothing():
    model = small_model()
    before = model.state_arrays()
    report = fit(model, make_dataset(SENTIMENT, 24), make_dataset(DEPRESSION, 24),
                 train_config(max_epochs=0))
    assert report.epochs == []
    assert report.stop_reason == "max_epochs"
    for name, arr in model.state_arrays().items():
        np.testing.assert_array_equal(arr, before[name])


def test_fit_requires_depression_data():
    with pytest.raises(ConfigError):
        fit(small_model(), make_dataset(SENTIMENT, 16), None, train_config())


def test_fit_is_deterministic():
    def run():
        model = small_model(seed=3)
        report = fit(model, make_dataset(SENTIMENT, 32, seed=14),
                     make_dataset(DEPRESSION, 32, seed=15),
                     train_config(max_epochs=3, seed=5))
        return model.state_arrays(), [r.log_line() for r in report.epochs]

    state_a, lines_a = run()
    state_b, lines_b = run()
    assert lines_a == lines_b
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


def test_fit_isolates_idle_task_parameters():
    # Training only the depression task must leave the sentiment head and
    # gate untouched: their gradients are exactly zero every step.
    model = small_model(seed=4)
    before = model.state_arrays()
    fit(model, None, make_dataset(DEPRESSION, 32, seed=16),
        train_config(ratio=(0, 1), max_epochs=2))
    after = model.state_arrays()
    np.testing.assert_array_equal(after["head0.w"], before["head0.w"])
    np.testing.assert_array_equal(after["head0.b"], before["head0.b"])
    np.testing.assert_array_equal(after["gate0"], before["gate0"])
    assert np.abs(after["head1.w"] - before["head1.w"]).max() > 0


def test_fit_restores_best_checkpoint():
    model = small_model(seed=6)
    dep = make_dataset(DEPRESSION, 40, seed=17)
    cfg = train_config(ratio=(0, 1), max_epochs=4, seed=9)
    report = fit(model, None, dep, cfg)
    assert report.best_val_loss == min(r.val_loss for r in report.epochs)
    best = next(r for r in report.epochs if r.epoch == report.best_epoch)
    assert best.val_loss == report.best_val_loss
    # The restored model reproduces the best epoch's validation loss.
    _, val = stratified_split(dep, cfg.validation_fraction,
                              rng_stream(cfg.seed, TAG_SPLIT))
    assert dataset_ce(model, val, cfg.batch_size)[0] == pytest.approx(
        report.best_val_loss, abs=1e-6)


def test_dataset_ce_report_matches_evaluate():
    model = small_model(seed=11)
    ds = make_dataset(DEPRESSION, 21, seed=23)
    loss, report = dataset_ce(model, ds, batch_size=8)
    assert math.isfinite(loss)
    assert report == evaluate(model, ds, DEPRESSION, batch_size=8)


def test_dataset_ce_rejects_empty_dataset():
    # Unchecked, the mean loss divides by zero.
    with pytest.raises(UsageError, match="empty dataset"):
        dataset_ce(small_model(seed=11), TaskDataset(DEPRESSION, [], 2))


def test_fit_forwards_validation_once_per_epoch(monkeypatch):
    model = small_model(seed=12)
    dep = make_dataset(DEPRESSION, 40, seed=24)
    cfg = train_config(ratio=(0, 1), max_epochs=3)
    forwarded = []
    forward = model.forward

    def counting_forward(batch, task_id, training=False, rng=None):
        if not training:
            forwarded.append(len(batch))
        return forward(batch, task_id, training=training, rng=rng)

    monkeypatch.setattr(model, "forward", counting_forward)
    report = fit(model, None, dep, cfg)
    _, val = stratified_split(dep, cfg.validation_fraction,
                              rng_stream(cfg.seed, TAG_SPLIT))
    assert sum(forwarded) == len(report.epochs) * len(val) == 3 * len(val)


def test_fit_backpropagates_from_the_cross_entropy(monkeypatch):
    # The L2 term's value joins only the logged loss and its gradient is
    # the optimizer's, so each step's backward starts at the cross-entropy,
    # whose only parent is that step's logits.
    model = small_model(seed=13)
    logits_seen, losses_seen, calls = [], [], []
    forward, backward = model.forward, Tensor.backward

    def recording_forward(batch, task_id, training=False, rng=None):
        out = forward(batch, task_id, training=training, rng=rng)
        if training:
            logits_seen.append(out)
        return out

    def recording_cross_entropy(logits, labels):
        out = cross_entropy(logits, labels)
        losses_seen.append(out)
        return out

    def recording_backward(self):
        calls.append((self, self._parents))  # backward consumes the parents
        backward(self)

    monkeypatch.setattr(model, "forward", recording_forward)
    monkeypatch.setattr(train_module, "cross_entropy", recording_cross_entropy)
    monkeypatch.setattr(Tensor, "backward", recording_backward)
    fit(model, None, make_dataset(DEPRESSION, 24, seed=26),
        train_config(ratio=(0, 1), max_epochs=1, lambda_l2=1e-4))
    assert calls and len(calls) == len(logits_seen)
    for (loss, parents), logits in zip(calls, logits_seen):
        assert any(loss is seen for seen in losses_seen)
        assert len(parents) == 1 and parents[0] is logits


def test_training_loss_graph_size_at_acceptance_shape():
    # One node for the L2 term, not three per parameter: 185 nodes before
    # at ACCEPT_DIMS and 335 at the paper shape. The packed layout ops
    # replace a reshape and a swap_axes per head split and merge, which
    # took 102 and 192 nodes; that left 97 and 181. One packed_attention
    # node per expert replaced its 10 nodes from the Q/K/V products to wo
    # (79 and 145), and taking the Q/K/V and wo products into it left 71
    # and 129. Pooling and the gate on packed rows drop the node per expert,
    # and the gate's, that padded them: 71 - 3 and 129 - 5. Pinned exactly,
    # so a node that comes back fails here.
    for dims, count in ((ACCEPT_DIMS, 71 - 3), (PAPER_DIMS, 129 - 5)):
        cfg = ModelConfig(vocab_size=10, **dims)
        rng = np.random.default_rng(0)
        vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
        model = MoeClassifier(cfg, EmbeddingTable.random(vocab, cfg.word_dim, rng), rng)
        batch = make_dataset(DEPRESSION, 4, seed=25).examples
        logits = model.forward(batch, DEPRESSION, training=True, rng=rng)
        loss = compute_loss(logits, np.array([ex.label for ex in batch]),
                            model.parameters(), lambda_l2=1e-4)
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) == count, dims


def test_paper_shape_step_peak_memory():
    # 64 posts of 4-12 tokens padded to 12. The traced peak of one step was
    # 143 MB with every intermediate gradient kept until backward returned,
    # and 96 MB with spent gradients freed. Freeing each node's closure and
    # parents as backward passes it as well brings it to 80 MB: the 78 MB
    # the forward holds shrinks while the gradients grow. Running b1, relu
    # and the tail dropout on the packed rows, and scattering once before
    # pooling, brings it to 75 MB. Fused attention keeps only the softmax
    # of each expert, not the scores and their scaled and masked copies as
    # well: 68 MB. Projecting inside that node keeps the padded Q/K/V heads
    # but not their packed products as graph values: 58 MB.
    cfg = ModelConfig(vocab_size=10, **PAPER_DIMS)
    rng = np.random.default_rng(3)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))
    model = MoeClassifier(cfg, EmbeddingTable.random(vocab, cfg.word_dim, rng), rng)
    lengths = [12] + rng.integers(4, 13, size=63).tolist()
    batch = [(rng.integers(2, 10, size=n).tolist(), rng.integers(0, 2, size=n).tolist())
             for n in lengths]
    labels = rng.integers(0, 2, size=len(batch))
    tracemalloc.start()
    try:
        logits = model.forward(batch, DEPRESSION, training=True, rng=rng)
        compute_loss(logits, labels, model.parameters(), lambda_l2=1e-4).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 61 * 2**20, peak


def blocked_l2_value(params, lam):
    """lam * sum(p * p) summed as RmsProp.step sums it: each BLOCK of a
    parameter's values gives one dot product, added as a float64 in
    parameter and block order."""
    total = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        for start in range(0, flat.size, BLOCK):
            block = flat[start:start + BLOCK]
            total += float(np.dot(block, block))
    return lam * total


@pytest.mark.parametrize("dims", [ACCEPT_DIMS, PAPER_DIMS], ids=["accept", "paper"])
def test_l2_in_the_optimizer_is_bitwise_the_graph_term(dims):
    # fit's step (backward from the cross-entropy, the penalty's gradient
    # and value from RmsProp) against the graph l2_penalty term plus the
    # whole-array update, over steps that alternate the tasks, so the idle
    # head gets only the L2 gradient. Updates are bitwise; the logged value
    # sums the squares in block order, so it is bitwise the blocked
    # reference and within float32 rounding of the graph term. PAPER_DIMS
    # train with dropout 0.1.
    lam = 1e-4
    cfg = ModelConfig(vocab_size=10, **dims)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(8))

    def build():
        rng = np.random.default_rng(5)
        return MoeClassifier(cfg, EmbeddingTable.random(vocab, cfg.word_dim, rng), rng)

    ours, ref = build(), build()
    params, ref_params = ours.parameters(), ref.parameters()
    opt = RmsProp(params, lr=1e-3, weight_decay=2.0 * lam)
    ref_acc = [np.zeros_like(p.data) for p in ref_params]
    data_rng = np.random.default_rng(6)
    drop_ours, drop_ref = np.random.default_rng(7), np.random.default_rng(7)
    for step in range(3):
        task = (DEPRESSION, SENTIMENT)[step % 2]
        batch = [(data_rng.integers(2, 10, size=n).tolist(),
                  data_rng.integers(0, 2, size=n).tolist())
                 for n in data_rng.integers(3, 9, size=6)]
        labels = data_rng.integers(0, 2, size=len(batch))

        loss = compute_loss(ours.forward(batch, task, training=True, rng=drop_ours), labels)
        ref_loss = compute_loss(ref.forward(batch, task, training=True, rng=drop_ref),
                                labels, ref_params, lam)
        ce, graph_value = loss.item(), ref_loss.item()
        want = ce + blocked_l2_value(params, lam)
        loss.backward()
        ref_loss.backward()
        value = ce + opt.step()
        reference_step(ref_params, ref_acc, 1e-3)
        assert value == want, step
        assert abs(value - graph_value) <= 1e-6 * graph_value, (step, value, graph_value)
        for i, (a, b) in enumerate(zip(params, ref_params)):
            assert a.data.tobytes() == b.data.tobytes(), (step, i)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(opt.acc, ref_acc))


def test_fit_early_stop_and_lr_decay():
    model = small_model(seed=7)
    report = fit(model, None, make_dataset(DEPRESSION, 30, seed=18),
                 train_config(ratio=(0, 1), max_epochs=50, seed=2,
                              early_stop_patience=2, lr_patience=1,
                              learning_rate=5e-2))
    assert report.stop_reason == "early_stop"
    assert len(report.epochs) < 50
    lrs = [r.lr for r in report.epochs]
    assert min(lrs) < 5e-2  # decay fired while validation stalled


def test_fit_reports_losses_per_task():
    report = fit(small_model(seed=8), make_dataset(SENTIMENT, 24, seed=19),
                 make_dataset(DEPRESSION, 24, seed=20),
                 train_config(max_epochs=1))
    rec = report.epochs[0]
    assert math.isfinite(rec.sentiment_loss)
    assert math.isfinite(rec.depression_loss)
    assert math.isfinite(rec.val_loss)
    assert 0.0 <= rec.val_accuracy <= 1.0


def test_fit_sentiment_loss_is_nan_when_task_is_off():
    report = fit(small_model(seed=9), None, make_dataset(DEPRESSION, 24, seed=21),
                 train_config(ratio=(0, 1), max_epochs=1))
    assert math.isnan(report.epochs[0].sentiment_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan on purpose
def test_fit_flags_divergence():
    model = small_model(seed=10)
    with pytest.raises(TrainingDiverged, match="epoch"):
        fit(model, None, make_dataset(DEPRESSION, 64, seed=22),
            train_config(ratio=(0, 1), max_epochs=3, batch_size=8,
                         learning_rate=1e30))


def test_fit_flags_a_nan_cross_entropy_before_its_step(monkeypatch):
    # With the L2 term on, batch 1's cross-entropy is NaN: fit names that
    # batch before its backward, so only batch 0's update was applied.
    losses, steps = [], []
    step = RmsProp.step

    def nan_at_batch_1(logits, labels):
        out = cross_entropy(logits, labels)
        if len(losses) == 1:
            out.data[...] = np.nan
        losses.append(out)
        return out

    def counting_step(self):
        steps.append(self)
        return step(self)

    monkeypatch.setattr(train_module, "cross_entropy", nan_at_batch_1)
    monkeypatch.setattr(RmsProp, "step", counting_step)
    with pytest.raises(TrainingDiverged, match=r"epoch 1, batch 1 \("):
        fit(small_model(seed=14), None, make_dataset(DEPRESSION, 32, seed=27),
            train_config(ratio=(0, 1), max_epochs=1, lambda_l2=1e-4))
    assert len(steps) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_fit_flags_an_overflowing_l2_value():
    # Under ratio 0:1 the sentiment head is idle, so the cross-entropy stays
    # finite while the squares of its 1e20 weights overflow the L2 value.
    model = small_model(seed=15)
    w, _ = model.heads[model.task_index(SENTIMENT)]
    w.data[...] = 1e20
    with pytest.raises(TrainingDiverged, match=r"epoch 1, batch 0 \("):
        fit(model, None, make_dataset(DEPRESSION, 32, seed=28),
            train_config(ratio=(0, 1), max_epochs=1, lambda_l2=1e-4))


def test_epoch_record_log_line_round_trip():
    rec = EpochRecord(epoch=3, sentiment_loss=0.5, depression_loss=0.25,
                      val_loss=0.125, lr=1e-3, val_accuracy=0.75,
                      val_macro_f1=0.5)
    line = rec.log_line()
    fields = dict(part.split("=") for part in line.split())
    assert fields["epoch"] == "3"
    assert float(fields["val_loss"]) == 0.125
    assert float(fields["lr"]) == 1e-3


def test_learning_reduces_loss_on_learnable_data():
    data = synth_generate(2, n_per_task=64, vocab_size=30, signal=1.0)
    cfg = ModelConfig(vocab_size=len(data.vocab), word_dim=4, marker_dim=2,
                      num_heads=2, ff1_dim=6, ff2_hidden=4, ff2_out=4,
                      num_experts=2, dropout=0.0)
    rng = np.random.default_rng(0)
    emb = EmbeddingTable.random(data.vocab, cfg.word_dim, rng)
    model = MoeClassifier(cfg, emb, rng)
    report = fit(model, data.sentiment, data.depression,
                 train_config(max_epochs=10, batch_size=16, learning_rate=5e-3))
    losses = [r.depression_loss for r in report.epochs]
    assert losses[-1] < losses[0]
