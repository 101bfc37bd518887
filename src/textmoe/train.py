"""Joint multi-task training: ratio-scheduled single-task batches,
cross-entropy + L2 loss, RMSprop, LR decay, early stopping.

Each optimizer step sees one batch from one task. Per epoch the depression
(target) task contributes all its batches; the sentiment task contributes
round(ratio) as many, cycling through reshuffles of its data. One pass
per epoch over a stratified split of the depression data gives the
validation loss and metrics. ``fit`` counts the epochs since that loss
last improved, decays the LR and stops early on that count alone, and
restores the best checkpoint at the end. The idle task's head and gate
get no gradient in a step, which the optimizer reads as zero.

``fit`` keeps the L2 term out of the graph: backward starts at the
cross-entropy, and ``RmsProp(weight_decay=2 * lambda_l2)`` adds the
penalty's gradient in the blocked pass of the update and returns the
penalty's value, which the logged loss adds. The updates are bitwise
those of the ``l2_penalty`` graph node ``compute_loss`` builds, and the
logged value is that node's within float32 rounding: it sums in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DEPRESSION, SENTIMENT, TaskDataset
from .errors import ConfigError, TrainingDiverged, UsageError
# evaluate, mul, scale and sum_all are unused here, but perfbench/spans.py
# wraps each by its name in this module, so they stay.
from .metrics import MetricsReport, evaluate, metrics  # noqa: F401
from .model import EVAL_BATCH_SIZE
from .optim import RmsProp
from .tensor import (  # noqa: F401
    Tensor, add, cross_entropy, l2_penalty, mul, no_grad, scale, sum_all,
)

# Fixed tags give every consumer its own deterministic stream per seed.
TAG_EMBEDDING, TAG_MODEL, TAG_SPLIT, TAG_SCHEDULE, TAG_DROPOUT = range(5)


def rng_stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 512
    lambda_l2: float = 1e-4
    max_epochs: int = 30
    ratio: tuple[int, int] = (1, 1)  # sentiment : depression batches per epoch
    lr_decay_factor: float = 0.5
    lr_patience: int = 2
    early_stop_patience: int = 5
    seed: int = 0
    validation_fraction: float = 0.1

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.lambda_l2 < math.inf:
            raise ConfigError(f"lambda_l2 must be >= 0 and finite, got {self.lambda_l2}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}")
        if self.lr_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patience values must be >= 1")
        r_s, r_d = self.ratio
        if r_s < 0 or r_d < 0 or (r_s == 0 and r_d == 0):
            raise ConfigError(f"ratio components must be >= 0 and not both 0: {self.ratio}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )


def _chunks(indices: np.ndarray, size: int) -> list[np.ndarray]:
    return [indices[i:i + size] for i in range(0, len(indices), size)]


def schedule_epoch(sentiment: TaskDataset | None, depression: TaskDataset | None,
                   cfg: TrainConfig, rng: np.random.Generator,
                   ) -> list[tuple[str, np.ndarray]]:
    """One epoch of single-task batches realizing cfg.ratio, as a shuffled
    list of (task_id, example indices) pairs.

    The depression side anchors the epoch (every example once); sentiment
    contributes round(depression_batches * ratio) batches, reshuffling and
    cycling its data as needed. With a zero depression component the
    sentiment side anchors instead.
    """
    r_s, r_d = cfg.ratio
    for task_id, r, ds in ((SENTIMENT, r_s, sentiment), (DEPRESSION, r_d, depression)):
        if r > 0 and (ds is None or len(ds) == 0):
            raise ConfigError(f"ratio requires {task_id} data but its dataset is empty")

    if r_d > 0:
        dep_batches = _chunks(rng.permutation(len(depression)), cfg.batch_size)
        n_sent = max(1, round(len(dep_batches) * r_s / r_d)) if r_s > 0 else 0
    else:
        dep_batches = []
        n_sent = math.ceil(len(sentiment) / cfg.batch_size)
    batches = [(DEPRESSION, idx) for idx in dep_batches]

    pool: list[np.ndarray] = []
    for _ in range(n_sent):
        if not pool:
            pool = _chunks(rng.permutation(len(sentiment)), cfg.batch_size)
        batches.append((SENTIMENT, pool.pop(0)))

    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def compute_loss(logits: Tensor, labels: np.ndarray, params=(),
                 lambda_l2: float = 0.0) -> Tensor:
    """Mean cross-entropy plus lambda * sum of squared parameters."""
    loss = cross_entropy(logits, labels)
    params = list(params)
    if lambda_l2 > 0.0 and params:
        loss = add(loss, l2_penalty(params, lambda_l2))
    return loss


@dataclass
class EpochRecord:
    epoch: int
    sentiment_loss: float
    depression_loss: float
    val_loss: float
    lr: float
    val_accuracy: float
    val_macro_f1: float

    def log_line(self) -> str:
        return (f"epoch={self.epoch} sentiment_loss={self.sentiment_loss:.6g} "
                f"depression_loss={self.depression_loss:.6g} "
                f"val_loss={self.val_loss:.6g} lr={self.lr:.6g} "
                f"val_accuracy={self.val_accuracy:.6g} "
                f"val_macro_f1={self.val_macro_f1:.6g}")


@dataclass
class TrainingReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = "max_epochs"
    best_epoch: int = 0
    best_val_loss: float = math.inf

    def log_lines(self) -> list[str]:
        lines = [r.log_line() for r in self.epochs]
        lines.append(f"stop_reason={self.stop_reason} best_epoch={self.best_epoch} "
                     f"best_val_loss={self.best_val_loss:.6g}")
        return lines


def stratified_split(ds: TaskDataset, fraction: float,
                     rng: np.random.Generator) -> tuple[TaskDataset, TaskDataset]:
    """(train, held_out) with per-class proportions preserved."""
    held: list[int] = []
    for c in range(ds.num_classes):
        members = np.array([i for i, ex in enumerate(ds.examples) if ex.label == c],
                           dtype=np.int64)
        if len(members) < 2:
            continue  # singleton classes stay in train
        take = min(len(members) - 1, max(1, round(fraction * len(members))))
        held += list(rng.permutation(members)[:take])
    held_set = set(held)
    train = [ex for i, ex in enumerate(ds.examples) if i not in held_set]
    val = [ds.examples[i] for i in sorted(held_set)]
    return (TaskDataset(ds.task_id, train, ds.num_classes),
            TaskDataset(ds.task_id, val, ds.num_classes))


def dataset_ce(model, ds: TaskDataset,
               batch_size: int = EVAL_BATCH_SIZE) -> tuple[float, MetricsReport]:
    """Mean eval-mode cross-entropy over a dataset (no L2 term) and the
    metrics of its argmax predictions, from one forward per batch."""
    if len(ds) == 0:
        raise UsageError("dataset_ce: empty dataset")
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    total = 0.0
    preds: list[int] = []
    # Input-order batches, not length buckets: the loss drives LR decay and
    # early stopping, so its summation order stays fixed.
    with no_grad():
        for start in range(0, len(ds), batch_size):
            batch = ds.examples[start:start + batch_size]
            logits = model.forward(batch, ds.task_id, training=False)
            labels = np.array([ex.label for ex in batch])
            total += compute_loss(logits, labels).item() * len(batch)
            preds += np.argmax(logits.data, axis=1).tolist()
    return total / len(ds), metrics(preds, ds.labels, ds.num_classes, task_id=ds.task_id)


def fit(model, sentiment: TaskDataset | None, depression: TaskDataset,
        cfg: TrainConfig, on_epoch=None) -> TrainingReport:
    """Train in place; the model ends at its best-validation checkpoint.

    An epoch improves only on a validation loss strictly below the best so
    far, so an equal loss or a NaN does not. The LR decays each time the
    number of epochs since the last improvement reaches a multiple of
    ``lr_patience``, and training stops once it reaches
    ``early_stop_patience``.

    Steps and validation run with numpy's overflow and invalid-value
    warnings off, so a non-finite loss raises TrainingDiverged naming its
    epoch and batch instead of a warning: a non-finite cross-entropy
    before backward and the update; a non-finite L2 value after the
    optimizer step that returned it, which is applied."""
    cfg.validate()
    if depression is None or len(depression) == 0:
        raise ConfigError("fit requires a non-empty depression dataset")
    dep_train, dep_val = stratified_split(
        depression, cfg.validation_fraction, rng_stream(cfg.seed, TAG_SPLIT))
    if len(dep_val) == 0:
        raise ConfigError("validation split is empty; provide more depression data")

    sched_rng = rng_stream(cfg.seed, TAG_SCHEDULE)
    drop_rng = rng_stream(cfg.seed, TAG_DROPOUT)
    opt = RmsProp(model.parameters(), lr=cfg.learning_rate,
                  weight_decay=2.0 * cfg.lambda_l2)
    report = TrainingReport()
    best_state = model.state_arrays()
    stalled = 0  # epochs since the validation loss last improved
    datasets = {SENTIMENT: sentiment, DEPRESSION: dep_train}

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            sums = {SENTIMENT: 0.0, DEPRESSION: 0.0}
            counts = {SENTIMENT: 0, DEPRESSION: 0}
            schedule = schedule_epoch(sentiment, dep_train, cfg, sched_rng)
            for b, (task_id, idx) in enumerate(schedule):
                ds = datasets[task_id]
                batch = [ds.examples[i] for i in idx]
                labels = np.array([ex.label for ex in batch])
                logits = model.forward(batch, task_id, training=True, rng=drop_rng)
                loss = compute_loss(logits, labels)
                value = loss.item()
                if math.isfinite(value):
                    loss.backward()
                    value += opt.step()
                if not math.isfinite(value):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {b} ({task_id})"
                    )
                sums[task_id] += value
                counts[task_id] += 1

            val_loss, val_metrics = dataset_ce(model, dep_val, cfg.batch_size)
            if val_loss < report.best_val_loss:
                report.best_val_loss, report.best_epoch = val_loss, epoch
                best_state = model.state_arrays()
                stalled = 0
            else:
                stalled += 1
                if stalled % cfg.lr_patience == 0:
                    opt.lr *= cfg.lr_decay_factor
            record = EpochRecord(
                epoch=epoch,
                sentiment_loss=sums[SENTIMENT] / counts[SENTIMENT] if counts[SENTIMENT] else math.nan,
                depression_loss=sums[DEPRESSION] / counts[DEPRESSION] if counts[DEPRESSION] else math.nan,
                val_loss=val_loss,
                lr=opt.lr,
                val_accuracy=val_metrics.accuracy,
                val_macro_f1=val_metrics.macro_f1,
            )
            report.epochs.append(record)
            if on_epoch is not None:
                on_epoch(record)
            if stalled >= cfg.early_stop_patience:
                report.stop_reason = "early_stop"
                break

    model.load_state_arrays(best_state)
    return report
