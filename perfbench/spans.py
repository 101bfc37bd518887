"""Outside-in span tracing of textmoe's layers, and the per-layer metrics
computed from the spans.

The traced run replaces the public functions each layer exposes with
wrappers, in the namespace of the module that calls them (for example
``textmoe.model.matmul`` or ``textmoe.cli.load_checkpoint``), so the
program's own source is untouched. Every wrapper records one span: name,
start, end, parent and scope. Tensor ops also wrap the backward closure
they attach to their output, so backward work is recorded under the op's
name with ``.bwd`` and charged to the scope (the layer span, such as
``model.attention``) that was open when the forward op ran.

Spans live in flat in-memory arrays and are written once, at the end. A
span's self time is its duration minus the time its children cover. Work
the tracer adds for counting (parameter snapshots, token sets) is
recorded as ``trace.bookkeeping`` spans and taken out of every span
around it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

BOOKKEEPING = "trace.bookkeeping"

# Tensor ops as each calling module imports them. The L2 term is the only
# user of add/mul/scale/sum_all inside textmoe.train, so ops called from
# there are charged to the scope train.l2; cross_entropy is charged to the
# layer span that is open (train.loss).
MODEL_OPS = ("matmul", "add", "add_const", "concat_last", "dropout",
             "embedding_lookup", "masked_max", "masked_mean", "mul", "relu",
             "reshape", "scale", "slice_last", "softmax", "transpose_last")
TRAIN_L2_OPS = ("add", "mul", "scale", "sum_all")

# Layer functions: (calling module, attribute, span name).
LAYER_FUNCS = (
    ("textmoe.model", "embed_with_markers", "model.embed"),
    ("textmoe.model", "expert_forward", "model.expert"),
    ("textmoe.model", "attention", "model.attention"),
    ("textmoe.model", "gate_weights", "model.gate"),
    ("textmoe.train", "compute_loss", "train.loss"),
    ("textmoe.train", "dataset_ce", "train.validate_loss"),
    ("textmoe.train", "evaluate", "metrics.evaluate"),
    ("textmoe.train", "fit", "train.fit"),
    ("textmoe.metrics", "evaluate", "metrics.evaluate"),
    ("textmoe.metrics", "metrics", "metrics.score"),
    ("textmoe.config", "load_run_config", "config.load"),
    ("textmoe.cli", "main", "cli.main"),
    ("textmoe.cli", "cmd_predict", "cli.predict"),
    ("textmoe.cli", "cmd_eval", "cli.eval"),
    ("textmoe.cli", "load_bundle", "cli.load_bundle"),
    ("textmoe.cli", "load_plain_lexicon", "lexicon.load"),
    ("textmoe.cli", "tokenize", "data.tokenize"),
    ("textmoe.cli", "build_vocab", "data.build_vocab"),
    ("textmoe.cli", "load_csv_dataset", "data.load_csv"),
    ("textmoe.cli", "encode_text", "data.encode"),
    ("textmoe.cli", "load_checkpoint", "checkpoint.load"),
    ("textmoe.cli", "evaluate", "metrics.evaluate"),
    ("textmoe.data", "mark_tokens", "lexicon.mark_tokens"),
    ("textmoe.ablation", "build_model", "model.build"),
    ("textmoe.ablation", "load_glove", "data.load_glove"),
    ("textmoe.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("textmoe.checkpoint", "save_checkpoint", "checkpoint.save"),
)


class Tracer:
    """Spans in flat arrays; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.scope = array("q")
        self.work = array("q")  # flops on matmul spans, 0 elsewhere
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.info: dict[int, dict] = {}  # span index -> counts
        self.embedding = None  # the model's embedding Tensor, set by the caller
        self._undo: list[tuple[object, str, object]] = []
        self.intern(BOOKKEEPING)

    def intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int, scope: int = -1) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.scope.append(scope)
        self.work.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str):
        """Context manager for the benchmark's own spans."""
        return _Span(self, self.intern(name))

    def bookkeeping(self, fn):
        i = self.open(self.intern(BOOKKEEPING))
        try:
            return fn()
        finally:
            self.close(i)

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_fn(self, fn, name: str):
        nid = self.intern(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapped

    def op_fn(self, fn, op: str, scope_name: str | None = None):
        """Wrap a tensor op and the backward closure of the tensor it returns."""
        fwd, bwd = self.intern(f"tensor.{op}"), self.intern(f"tensor.{op}.bwd")
        fixed = self.intern(scope_name) if scope_name else None
        is_matmul = op == "matmul"
        open_, close, stack, name, work = (self.open, self.close, self.stack,
                                           self.name, self.work)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            scope = fixed if fixed is not None else (name[stack[-1]] if stack else -1)
            i = open_(fwd, scope)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            flops = 2 * args[0].shape[-1] * out.data.size if is_matmul else 0
            work[i] = flops
            backward = out._backward
            # An op that hands back its input (dropout in eval mode) made
            # no node; that closure is wrapped already.
            if backward is None or any(out is a for a in args):
                return out
            bflops = flops * (args[0].requires_grad + args[1].requires_grad) if is_matmul else 0

            def traced_backward(g):
                j = open_(bwd, scope)
                work[j] = bflops
                try:
                    backward(g)
                finally:
                    close(j)

            out._backward = traced_backward
            return out

        return wrapped


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        self.start_ns, self.end_ns = self.tracer.start[self.i], self.tracer.end[self.i]


class NoTracer:
    """Stands in for Tracer in the untraced run: a span only reads the clock."""

    embedding = None

    def span(self, name: str):
        return _Window()


class _Window:
    def __enter__(self):
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end_ns = time.perf_counter_ns()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    from textmoe import cli, model, optim, tensor, train

    for op in MODEL_OPS:
        tracer.patch(model, op, tracer.op_fn(getattr(model, op), op))
    for op in TRAIN_L2_OPS:
        tracer.patch(train, op, tracer.op_fn(getattr(train, op), op, "train.l2"))
    tracer.patch(train, "cross_entropy",
                 tracer.op_fn(train.cross_entropy, "cross_entropy"))
    tracer.patch(cli, "softmax", tracer.op_fn(cli.softmax, "softmax"))
    for module, attr, name in LAYER_FUNCS:
        mod = importlib.import_module(module)
        tracer.patch(mod, attr, tracer.span_fn(getattr(mod, attr), name))
    tracer.patch(tensor.Tensor, "backward",
                 tracer.span_fn(tensor.Tensor.backward, "tensor.backward"))
    tracer.patch(tensor.Tensor, "zero_grad",
                 tracer.span_fn(tensor.Tensor.zero_grad, "train.zero_grad"))
    tracer.patch(model.MoeClassifier, "pad_batch",
                 tracer.span_fn(model.MoeClassifier.pad_batch, "model.pad"))
    tracer.patch(model.MoeClassifier, "forward",
                 _traced_forward(tracer, model.MoeClassifier.forward))
    tracer.patch(optim.RmsProp, "step", _traced_step(tracer, optim.RmsProp.step))


def _traced_forward(tracer: Tracer, forward):
    """model.forward span with example, token and padded-cell counts."""
    nid = tracer.intern("model.forward")

    @functools.wraps(forward)
    def wrapped(self, batch, task_id, training=False, rng=None):
        i = tracer.open(nid)
        try:
            def count():
                lengths = [len(ex[0]) for ex in batch]
                info = {"training": bool(training), "examples": len(batch),
                        "tokens": sum(lengths),
                        "cells": len(batch) * max(lengths, default=0)}
                if training:
                    info["rows"] = len({t for ex in batch for t in ex[0]} - {0})
                else:
                    info["ids"] = {id(ex) for ex in batch}
                tracer.info[i] = info
            tracer.bookkeeping(count)
            return forward(self, batch, task_id, training=training, rng=rng)
        finally:
            tracer.close(i)

    return wrapped


def _traced_step(tracer: Tracer, step):
    """optim.step span with the parameter elements and embedding rows it changed."""
    nid = tracer.intern("optim.step")

    @functools.wraps(step)
    def wrapped(self):
        i = tracer.open(nid)
        try:
            before = tracer.bookkeeping(lambda: [p.data.copy() for p in self.params])
            result = step(self)

            def count():
                changed = rows = 0
                for p, old in zip(self.params, before):
                    diff = p.data != old
                    changed += int(diff.sum())
                    if p is tracer.embedding:
                        rows = int(diff.any(axis=1).sum())
                tracer.info[i] = {"elements": changed, "rows": rows}
            tracer.bookkeeping(count)
            return result
        finally:
            tracer.close(i)

    return wrapped


# ---------------------------------------------------------------- analysis


class Spans:
    """A finished trace as numpy columns, with net (bookkeeping-free) times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.info = tracer.info
        col = lambda a: np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
        self.name, self.parent, self.scope = col(tracer.name), col(tracer.parent), col(tracer.scope)
        self.work, self.start, self.end = col(tracer.work), col(tracer.start), col(tracer.end)
        dur = (self.end - self.start).astype(np.float64)
        booked = np.zeros(len(dur))
        for j in self.ids(BOOKKEEPING):
            p = self.parent[j]
            while p >= 0:
                booked[p] += dur[j]
                p = self.parent[p]
        self.net = dur - booked
        is_layer = np.array([not n.startswith("tensor.") for n in self.names], dtype=bool)
        is_layer[self.nid(BOOKKEEPING)] = False
        counted = (self.parent >= 0) & (self.name != self.nid(BOOKKEEPING))

        def minus(kids):
            return self.net - np.bincount(self.parent[kids], weights=self.net[kids],
                                          minlength=len(dur))
        # Net time minus that of the layer spans directly under it, and
        # minus that of every span directly under it.
        self.own = minus(np.flatnonzero(counted & is_layer[self.name]))
        self.self_ = minus(np.flatnonzero(counted))

    def nid(self, name: str) -> int:
        """Id of a span name; -2 (matching no span, and no scope) if never recorded."""
        return self.names.index(name) if name in self.names else -2

    def ids(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.name == self.nid(name))

    def inside(self, idx: np.ndarray, windows) -> np.ndarray:
        """The spans of idx that lie inside any (start, end) window."""
        if not len(idx) or not len(windows):
            return idx[:0]
        w = np.asarray(windows, dtype=np.int64)
        k = np.searchsorted(w[:, 0], self.start[idx], side="right") - 1
        ok = (k >= 0) & (self.end[idx] <= w[np.maximum(k, 0), 1])
        return idx[ok]

    def save(self, path: str, extra: dict) -> None:
        meta = {"names": self.names, **extra}
        np.savez(path, name=self.name, parent=self.parent, scope=self.scope,
                 work=self.work, start_ns=self.start, end_ns=self.end,
                 meta=np.asarray(json.dumps(meta)))


# Per-layer metrics and their units. "Per step" figures are per optimizer
# step on the train workloads and per bulk predict call on serve-paper.
PER_LAYER = {
    "train.step_ms": "ms", "train.forward_ms": "ms", "train.loss_ms": "ms",
    "train.backward_ms": "ms", "train.zero_grad_ms": "ms", "train.l2_ms": "ms",
    "train.step_accounted_ratio": "ratio", "train.validate_ms_per_epoch": "ms",
    "train.val_examples_forwarded_ratio": "ratio",
    "optim.step_ms": "ms", "optim.elements_updated_per_step": "count",
    "optim.embedding_rows_useful_ratio": "ratio",
    "tensor.op_calls_per_step": "count", "tensor.matmul_calls_per_step": "count",
    "tensor.backward_graph_ms": "ms", "tensor.embedding_bwd_ms": "ms",
    "tensor.matmul_ms": "ms", "tensor.matmul_gflop_per_step": "GFLOP",
    "tensor.matmul_gflops": "GFLOP/s", "machine.sgemm_gflops": "GFLOP/s",
    "model.pad_ms": "ms", "model.embed_ms": "ms", "model.expert_ms": "ms",
    "model.attention_ms": "ms", "model.gate_ms": "ms", "model.mix_head_ms": "ms",
    "model.embed_bwd_ms": "ms", "model.expert_bwd_ms": "ms",
    "model.attention_bwd_ms": "ms", "model.gate_bwd_ms": "ms",
    "model.mix_head_bwd_ms": "ms", "model.pad_efficiency": "ratio",
    "config.load_s": "s", "lexicon.load_s": "s", "data.load_csv_s": "s",
    "data.build_vocab_s": "s", "data.load_glove_s": "s", "model.build_s": "s",
    "data.encode_ms_per_line": "ms", "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes", "cli.predict_forward_ms": "ms",
    "cli.predict_other_ms": "ms", "metrics.score_ms": "ms",
}

# model.* scopes: forward ops run inside these spans; model.forward's own
# ops are the expert mix and the task head.
MODEL_SCOPES = {"embed": "model.embed", "expert": "model.expert",
                "attention": "model.attention", "gate": "model.gate",
                "mix_head": "model.forward"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def training_steps(sp: Spans, fits: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) of every optimizer step directly inside the fit spans.

    A step starts at the first zero_grad or training forward after the
    previous step and ends when optim.step returns.
    """
    zero, fwd, opt = sp.nid("train.zero_grad"), sp.nid("model.forward"), sp.nid("optim.step")
    steps = []
    for f in fits:
        start = None
        for k in np.flatnonzero(sp.parent == f):
            n = sp.name[k]
            if start is None and (n == zero or (n == fwd and sp.info[k]["training"])):
                start = sp.start[k]
            elif n == opt and start is not None:
                steps.append((start, sp.end[k]))
                start = None
    return steps


def per_layer(sp: Spans, *, setup_window, measure_window, setups: int, epochs: int,
              checkpoint_bytes: int, sgemm_gflops: float) -> dict[str, float]:
    """Every PER_LAYER metric; 0.0 where the workload has no such work."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["checkpoint.bytes"] = float(checkpoint_bytes)
    m["machine.sgemm_gflops"] = sgemm_gflops
    ms = 1e-6
    run = [measure_window]

    def total(name, windows, col=None):
        return float((sp.net if col is None else col)[sp.inside(sp.ids(name), windows)].sum())

    def mean(name, windows):
        idx = sp.inside(sp.ids(name), windows)
        return float(sp.net[idx].mean()) if len(idx) else 0.0

    # Training steps (train workloads).
    fits = sp.inside(sp.ids("train.fit"), run)
    steps = training_steps(sp, fits)
    n = len(steps)
    if n:
        bk = sp.inside(sp.ids(BOOKKEEPING), steps)
        step_ns = sum(e - s for s, e in steps) - float((sp.end[bk] - sp.start[bk]).sum())
        parts = {"train.forward_ms": "model.forward", "train.loss_ms": "train.loss",
                 "train.backward_ms": "tensor.backward", "optim.step_ms": "optim.step",
                 "train.zero_grad_ms": "train.zero_grad"}
        for key, name in parts.items():
            m[key] = total(name, steps) / n * ms
        m["train.step_ms"] = step_ns / n * ms
        m["train.step_accounted_ratio"] = _ratio(sum(m[k] for k in parts), m["train.step_ms"])
        l2 = sp.inside(np.flatnonzero(sp.scope == sp.nid("train.l2")), steps)
        m["train.l2_ms"] = float(sp.net[l2].sum()) / n * ms
        ops = [i for i, name in enumerate(sp.names)
               if name.startswith("tensor.") and not name.endswith(".bwd")
               and name != "tensor.backward"]
        m["tensor.op_calls_per_step"] = len(sp.inside(np.flatnonzero(np.isin(sp.name, ops)), steps)) / n
        m["tensor.matmul_calls_per_step"] = len(sp.inside(sp.ids("tensor.matmul"), steps)) / n
        m["tensor.backward_graph_ms"] = total("tensor.backward", steps, sp.self_) / n * ms
        m["tensor.embedding_bwd_ms"] = total("tensor.embedding_lookup.bwd", steps) / n * ms
        opt = sp.inside(sp.ids("optim.step"), steps)
        fwd = sp.inside(sp.ids("model.forward"), steps)
        m["optim.elements_updated_per_step"] = float(np.mean([sp.info[i]["elements"] for i in opt]))
        m["optim.embedding_rows_useful_ratio"] = _ratio(
            sum(sp.info[i]["rows"] for i in fwd), sum(sp.info[i]["rows"] for i in opt))
        fit_ns = float(sp.net[fits].sum())
        m["train.validate_ms_per_epoch"] = _ratio(fit_ns - step_ns, epochs) * ms
        forwarded = expected = 0
        for f in fits:
            evals = [i for i in sp.inside(sp.ids("model.forward"), [(sp.start[f], sp.end[f])])
                     if not sp.info[i]["training"]]
            forwarded += sum(sp.info[i]["examples"] for i in evals)
            distinct = set().union(*(sp.info[i]["ids"] for i in evals)) if evals else set()
            expected += len(distinct) * epochs // len(fits)
        m["train.val_examples_forwarded_ratio"] = _ratio(forwarded, expected)

    # Model scopes and matmul work per unit: training step, else bulk call.
    unit_windows = steps or [(sp.start[i], sp.end[i]) for i in
                             sp.inside(sp.ids("bench.predict_bulk"), run)]
    units = len(unit_windows)
    if units:
        bwd = [i for i, name in enumerate(sp.names) if name.endswith(".bwd")]
        for key, name in MODEL_SCOPES.items():
            m[f"model.{key}_ms"] = total(name, unit_windows, sp.own) / units * ms
            idx = sp.inside(np.flatnonzero(sp.scope == sp.nid(name)), unit_windows)
            idx = idx[np.isin(sp.name[idx], bwd)]
            m[f"model.{key}_bwd_ms"] = float(sp.net[idx].sum()) / units * ms
        m["model.pad_ms"] = total("model.pad", unit_windows) / units * ms
        fwd = sp.inside(sp.ids("model.forward"), unit_windows)
        m["model.pad_efficiency"] = _ratio(sum(sp.info[i]["tokens"] for i in fwd),
                                           sum(sp.info[i]["cells"] for i in fwd))
        mm = np.concatenate([sp.inside(sp.ids("tensor.matmul"), unit_windows),
                             sp.inside(sp.ids("tensor.matmul.bwd"), unit_windows)])
        m["tensor.matmul_ms"] = float(sp.net[mm].sum()) / units * ms
        m["tensor.matmul_gflop_per_step"] = float(sp.work[mm].sum()) / units / 1e9
    mm = np.concatenate([sp.inside(sp.ids("tensor.matmul"), run),
                         sp.inside(sp.ids("tensor.matmul.bwd"), run)])
    m["tensor.matmul_gflops"] = _ratio(float(sp.work[mm].sum()), float(sp.net[mm].sum()))

    # Set-up, per repeat.
    setup = [setup_window]
    for key, name in (("config.load_s", "config.load"), ("lexicon.load_s", "lexicon.load"),
                      ("data.load_csv_s", "data.load_csv"),
                      ("data.load_glove_s", "data.load_glove")):
        m[key] = total(name, setup) / setups * 1e-9
    m["model.build_s"] = total("model.build", setup, sp.own) / setups * 1e-9
    bundles = sp.inside(sp.ids("cli.load_bundle"), setup)
    vocab = np.flatnonzero(np.isin(sp.parent, bundles) & np.isin(
        sp.name, [sp.nid("data.build_vocab"), sp.nid("data.tokenize")]))
    m["data.build_vocab_s"] = float(sp.net[vocab].sum()) / setups * 1e-9

    # Predict calls.
    calls = [(sp.start[i], sp.end[i]) for name in ("bench.predict_single", "bench.predict_bulk")
             for i in sp.ids(name)]
    calls = sorted(c for c in calls if measure_window[0] <= c[0] and c[1] <= measure_window[1])
    m["data.encode_ms_per_line"] = mean("data.encode", calls) * ms
    m["checkpoint.load_ms"] = mean("checkpoint.load", run) * ms
    m["metrics.score_ms"] = mean("metrics.score", run) * ms
    singles = [(sp.start[i], sp.end[i])
               for i in sp.inside(sp.ids("bench.predict_single"), run)]
    if singles:
        forward = total("model.forward", singles) + total("tensor.softmax", singles)
        other = (total("cli.main", singles) - forward - total("checkpoint.load", singles)
                 - total("data.encode", singles))
        m["cli.predict_forward_ms"] = forward / len(singles) * ms
        m["cli.predict_other_ms"] = other / len(singles) * ms
    return m
