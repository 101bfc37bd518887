"""Accuracy, macro F1, confusion matrices, evaluation runs, and the two
report renderings (aligned text table, key=value record).

Macro F1 averages over all configured classes, including classes absent
from the split; any zero-denominator precision/recall/F1 is defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TaskDataset
from .errors import UsageError


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: tuple[tuple[int, ...], ...]  # rows = true class, cols = predicted

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_f1: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    confusion: ConfusionMatrix
    task_id: str = ""
    examples: int = 0


def metrics(preds, labels, num_classes: int, task_id: str = "") -> MetricsReport:
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels):
        raise UsageError(f"metrics: {len(preds)} preds vs {len(labels)} labels")
    if not preds:
        raise UsageError("metrics: empty inputs")
    if any(not 0 <= v < num_classes for v in preds + labels):
        raise UsageError(f"metrics: value out of range for {num_classes} classes")

    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(labels, preds):
        cm[t, p] += 1
    correct = int(np.trace(cm))
    precision, recall, f1 = [], [], []
    for c in range(num_classes):
        tp = int(cm[c, c])
        pred_c = int(cm[:, c].sum())
        true_c = int(cm[c, :].sum())
        p = tp / pred_c if pred_c else 0.0
        r = tp / true_c if true_c else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    return MetricsReport(
        accuracy=correct / len(labels),
        macro_f1=sum(f1) / num_classes,
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        confusion=ConfusionMatrix(tuple(tuple(int(v) for v in row) for row in cm)),
        task_id=task_id,
        examples=len(labels),
    )


def evaluate(model, dataset: TaskDataset, task_id: str,
             batch_size: int = 256) -> MetricsReport:
    """Predict over the whole dataset, grouped into length buckets of at
    most ``batch_size`` examples, and score against its labels."""
    if len(dataset) == 0:
        raise UsageError("evaluate: empty dataset")
    preds = model.predict(dataset.examples, task_id, batch_size)
    return metrics(preds, dataset.labels, dataset.num_classes, task_id=task_id)


# ---------------------------------------------------------------- rendering


def report_record(report: MetricsReport) -> str:
    """Machine-readable key=value lines; floats via repr for exactness."""
    lines = [
        f"task={report.task_id}",
        f"examples={report.examples}",
        f"accuracy={report.accuracy!r}",
        f"macro_f1={report.macro_f1!r}",
    ]
    for c in range(len(report.f1)):
        lines.append(f"precision_{c}={report.precision[c]!r}")
        lines.append(f"recall_{c}={report.recall[c]!r}")
        lines.append(f"f1_{c}={report.f1[c]!r}")
    for i, row in enumerate(report.confusion.counts):
        for j, v in enumerate(row):
            lines.append(f"confusion_{i}_{j}={v}")
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            out[key] = value
    return out


def render_table(header: list[str], rows: list[list[str]]) -> str:
    """Aligned text table: left-justified first column, right-justified rest."""
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        cells = [str(row[0]).ljust(widths[0])]
        cells += [str(v).rjust(w) for v, w in zip(row[1:], widths[1:])]
        return "  ".join(cells).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"


def metrics_table(rows: list[tuple[str, MetricsReport]], label: str = "variant") -> str:
    body = [[name, f"{r.accuracy:.4f}", f"{r.macro_f1:.4f}"] for name, r in rows]
    return render_table([label, "accuracy", "macro_f1"], body)
