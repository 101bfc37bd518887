"""The three workloads, their correctness checks and end-to-end metrics.

train-accept and train-paper follow ``textmoe train`` (config, CSVs,
lexicon, vectors, build, fit, final evaluate) and then serve the model
they trained through ``textmoe predict``. serve-paper trains its
checkpoint in a child process during preparation, then runs a closed loop
of in-process ``textmoe predict`` and ``textmoe eval`` calls against it.
Each round of a workload repeats the same operations, so every run
attempts whole rounds.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from inputs import (ACCEPT, PAPER, Shape, accuracy_ceiling, presence_label,
                    tail_lines, write_workspace)
from textmoe import ablation, checkpoint, cli, config, train
from textmoe.data import DEPRESSION, SENTIMENT, TaskDataset

# The package re-exports a function named metrics over its submodule.
metrics = importlib.import_module("textmoe.metrics")

HERE = os.path.dirname(os.path.abspath(__file__))

# The serve-paper checkpoint is trained on train-paper's inputs until it
# separates the signal-1.0 test set.
SEPARATED = 0.97
MAX_SERVE_EPOCHS = 4


@dataclass(frozen=True)
class Plan:
    """How much of each operation one round holds, and the check floors."""
    setup_repeats: int     # set-up timings before warm-up; every round adds one more
    blocks: int            # predict blocks: `singles` one-line calls, then one bulk call
    singles: int
    accuracy_floor: float  # test accuracy after training
    evals: int             # evaluate (train) or `textmoe eval` (serve) calls per round
    eval_lines: int = 0    # serve-paper: lines per `textmoe eval` call


PLANS = {
    "train-accept": Plan(setup_repeats=5, blocks=2, singles=10, evals=3,
                         accuracy_floor=0.75),
    "train-paper": Plan(setup_repeats=3, blocks=5, singles=10, evals=3,
                        accuracy_floor=0.85),
    "serve-paper": Plan(setup_repeats=5, blocks=1, singles=12, evals=1,
                        accuracy_floor=0.85, eval_lines=200),
}

# Share of one-line labels that must match the generator's presence rule.
AGREEMENT_FLOOR = 0.80

LINE = re.compile(r"^([01])\t(\d\.\d{6})$")

E2E_UNITS = {"setup_s": "s", "train_examples_per_s": "examples/s",
             "eval_examples_per_s": "examples/s", "predict_ms_p50": "ms",
             "predict_ms_p90": "ms", "predict_lines_per_s": "lines/s", "peak_rss_mb": "MB"}


@dataclass
class Tally:
    """Operation counts, timing samples and failed aggregate checks."""
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    agree: list[bool] = field(default_factory=list)

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"failed operation: {problem}", file=sys.stderr)

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)
            print(f"wrong output: {what}", file=sys.stderr)


class ExampleCounter:
    """Counts examples through training forwards (one per optimizer-step row)."""

    def __init__(self, model):
        self.n = 0
        forward = model.forward

        def counted(batch, task_id, training=False, rng=None):
            if training:
                self.n += len(batch)
            return forward(batch, task_id, training=training, rng=rng)

        model.forward = counted


def label_names(cfg) -> dict[str, list[str]]:
    return {SENTIMENT: cfg.label_names, DEPRESSION: cfg.label_names}


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """One in-process textmoe command with stdin and stdout redirected."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def parse_predictions(code: int, text: str, n: int) -> tuple[list[tuple[str, float]], str | None]:
    if code != 0:
        return [], f"predict exited {code}"
    rows = []
    for line in text.splitlines():
        match = LINE.match(line)
        if not match or not 0.5 <= float(match.group(2)) <= 1.0:
            return [], f"malformed predict line {line!r}"
        rows.append((match.group(1), float(match.group(2))))
    if len(rows) != n:
        return [], f"predict printed {len(rows)} lines for {n} inputs"
    return rows, None


def predict_blocks(tracer, tally: Tally, ckpt: str, texts: list[str], plan: Plan,
                   rng: np.random.Generator, blocks: int) -> None:
    """One-line calls (latency), then one bulk call that repeats them among
    heavy-tailed lines (throughput, and the padding-invariance check)."""
    for _ in range(blocks):
        picked = [texts[i] for i in rng.choice(len(texts), plan.singles, replace=False)]
        alone = []
        for line in picked:
            with tracer.span("bench.predict_single"):
                t0 = time.perf_counter()
                code, out = run_cli(["predict", ckpt], line + "\n")
                dt = time.perf_counter() - t0
            rows, problem = parse_predictions(code, out, 1)
            tally.op(problem)
            tally.add("predict_s", dt)
            alone.append(rows[0] if rows else None)
            if rows:
                tally.agree.append(rows[0][0] == presence_label(line))
        bulk = picked + tail_lines(texts, rng)
        order = rng.permutation(len(bulk))
        bulk = [bulk[i] for i in order]
        with tracer.span("bench.predict_bulk"):
            t0 = time.perf_counter()
            code, out = run_cli(["predict", ckpt], "".join(line + "\n" for line in bulk))
            dt = time.perf_counter() - t0
        rows, problem = parse_predictions(code, out, len(bulk))
        if rows:
            for pos, i in enumerate(order):
                if i < len(picked) and alone[i] is not None:
                    label, prob = rows[pos]
                    if label != alone[i][0] or abs(prob - alone[i][1]) > 1e-5:
                        problem = (f"line scored {alone[i]} alone but ({label}, {prob}) "
                                   "in a bulk call")
        tally.op(problem)
        tally.add("bulk_lines_per_s", len(bulk) / dt)


def sgemm_gflops() -> float:
    """Median float32 GEMM rate of this process, 512x512x512."""
    a = np.random.default_rng(0).random((512, 512), dtype=np.float32)
    b = a.T.copy()
    for _ in range(3):
        a @ b
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(10):
            a @ b
        rates.append(10 * 2 * 512 ** 3 / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


# ------------------------------------------------------------------ training


def load_for_training(config_path: str):
    """What ``textmoe train`` does before its first step."""
    cfg = config.load_run_config(config_path)
    bundle = cli.load_bundle(cfg)
    model = ablation.build_model(bundle, cfg.model_config(len(bundle.vocab)), cfg.seed)
    return cfg, bundle, model


def subset(ds: TaskDataset, n: int) -> TaskDataset:
    return TaskDataset(ds.task_id, ds.examples[:n], ds.num_classes)


def fit_problem(report, model) -> str | None:
    losses = [x for e in report.epochs
              for x in (e.sentiment_loss, e.depression_loss, e.val_loss)]
    if not losses or not all(math.isfinite(x) for x in losses):
        return f"non-finite or missing losses {losses}"
    if np.any(model.embedding.matrix.data[0] != 0):
        return "the PAD embedding row changed in training"
    return None


def run_train(workload: str, shape: Shape, root: str, seed: int, seconds: float,
              tracer) -> tuple[Tally, dict, dict]:
    plan = PLANS[workload]
    tally = Tally()
    ws = write_workspace(root, seed, shape)
    rng = np.random.default_rng([seed, 2])
    ceiling = accuracy_ceiling(shape.signal, shape.n_test)

    with tracer.span("bench.setup") as setup_span:
        setups = []
        for _ in range(plan.setup_repeats):
            t0 = time.perf_counter()
            cfg, bundle, model = load_for_training(ws.config)
            setups.append(time.perf_counter() - t0)
    tracer.embedding = model.embedding.matrix
    counter = ExampleCounter(model)
    tc = cfg.train_config()
    initial = model.state_arrays()
    ckpt = os.path.join(root, "model.npz")

    def save():
        return checkpoint.save_checkpoint(ckpt, model, bundle.vocab, bundle.lexicon,
                                          label_names(cfg), cfg.language)

    # Warm-up: a short fit, evaluate, save and predict block, then reset.
    train.fit(model, subset(bundle.sentiment, 128), subset(bundle.depression, 128),
              replace(tc, max_epochs=1))
    metrics.evaluate(model, subset(bundle.depression_test, 128), DEPRESSION, tc.batch_size)
    save()
    predict_blocks(tracer, Tally(), ckpt, ws.test_texts, plan, rng, 1)

    rounds = 0
    with tracer.span("bench.measure") as measure_span:
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            rounds += 1
            t0 = time.perf_counter()
            load_for_training(ws.config)
            setups.append(time.perf_counter() - t0)
            model.load_state_arrays(initial)
            counter.n = 0
            t0 = time.perf_counter()
            report = train.fit(model, bundle.sentiment, bundle.depression, tc)
            tally.add("train_examples_per_s", counter.n / (time.perf_counter() - t0))
            problem = fit_problem(report, model)
            if not problem and counter.n == 0:
                problem = "no training examples counted"
            tally.op(problem)

            for _ in range(plan.evals):
                t0 = time.perf_counter()
                result = metrics.evaluate(model, bundle.depression_test, DEPRESSION,
                                          tc.batch_size)
                tally.add("eval_examples_per_s",
                          len(bundle.depression_test) / (time.perf_counter() - t0))
                problem = None
                if result.examples != shape.n_test:
                    problem = f"evaluate scored {result.examples} of {shape.n_test} examples"
                elif not plan.accuracy_floor <= result.accuracy <= ceiling:
                    problem = (f"test accuracy {result.accuracy} outside "
                               f"[{plan.accuracy_floor}, {ceiling:.4f}]")
                tally.op(problem)

            save()
            predict_blocks(tracer, tally, ckpt, ws.test_texts, plan, rng, plan.blocks)
    e2e = {
        "setup_s": statistics.median(setups),
        "train_examples_per_s": statistics.median(tally.samples["train_examples_per_s"]),
        "eval_examples_per_s": statistics.median(tally.samples["eval_examples_per_s"]),
    }
    windows = dict(setup=(setup_span.start_ns, setup_span.end_ns),
                   measure=(measure_span.start_ns, measure_span.end_ns),
                   setups=plan.setup_repeats, epochs=rounds * tc.max_epochs,
                   checkpoint_bytes=os.path.getsize(ckpt), rounds=rounds)
    return tally, e2e, windows


# ------------------------------------------------------------------- serving


def make_serve_checkpoint(root: str, seed: int) -> None:
    """Preparation for serve-paper, run in its own process: train a
    paper-shape checkpoint until it separates the signal-1.0 test set, and
    record the training throughput in prepared.json."""
    ws = write_workspace(root, seed, PAPER)
    cfg, bundle, model = load_for_training(ws.config)
    counter = ExampleCounter(model)
    tc = cfg.train_config()
    fit_s, epochs, accuracy = 0.0, 0, 0.0
    while accuracy < SEPARATED and epochs < MAX_SERVE_EPOCHS:
        t0 = time.perf_counter()
        train.fit(model, bundle.sentiment, bundle.depression, tc)
        fit_s += time.perf_counter() - t0
        epochs += tc.max_epochs
        accuracy = metrics.evaluate(model, bundle.depression_test, DEPRESSION,
                                    tc.batch_size).accuracy
    checkpoint.save_checkpoint(os.path.join(root, "model.npz"), model, bundle.vocab,
                               bundle.lexicon, label_names(cfg), cfg.language)
    with open(os.path.join(root, "prepared.json"), "w", encoding="utf-8") as fh:
        json.dump({"train_examples_per_s": counter.n / fit_s, "epochs": epochs,
                   "accuracy": accuracy}, fh)


def run_serve(root: str, seed: int, seconds: float, tracer) -> tuple[Tally, dict, dict]:
    plan = PLANS["serve-paper"]
    tally = Tally()
    subprocess.run([sys.executable, os.path.join(HERE, "make_checkpoint.py"), root,
                    str(seed)], check=True, timeout=150)
    with open(os.path.join(root, "prepared.json"), encoding="utf-8") as fh:
        prepared = json.load(fh)
    ckpt = os.path.join(root, "model.npz")
    with open(os.path.join(root, "depression_test.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    texts = [text for text, _ in rows]
    eval_csv = os.path.join(root, "eval.csv")
    with open(eval_csv, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + rows[:plan.eval_lines])
    rng = np.random.default_rng([seed, 2])

    with tracer.span("bench.setup") as setup_span:
        setups = []
        for _ in range(plan.setup_repeats):
            t0 = time.perf_counter()
            checkpoint.load_checkpoint(ckpt)
            setups.append(time.perf_counter() - t0)
    # Warm-up: one block and one eval call.
    predict_blocks(tracer, Tally(), ckpt, texts, plan, rng, 1)
    run_cli(["eval", ckpt, eval_csv])

    rounds = 0
    with tracer.span("bench.measure") as measure_span:
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            rounds += 1
            t0 = time.perf_counter()
            checkpoint.load_checkpoint(ckpt)
            setups.append(time.perf_counter() - t0)
            predict_blocks(tracer, tally, ckpt, texts, plan, rng, plan.blocks)
            for _ in range(plan.evals):
                with tracer.span("bench.eval_call"):
                    t0 = time.perf_counter()
                    code, out = run_cli(["eval", ckpt, eval_csv])
                    dt = time.perf_counter() - t0
                record = metrics.parse_record(out) if code == 0 else {}
                problem = None
                if code != 0 or record.get("examples") != str(plan.eval_lines):
                    problem = f"eval exited {code} with record {record}"
                elif float(record["accuracy"]) < plan.accuracy_floor:
                    problem = f"eval accuracy {record['accuracy']} < {plan.accuracy_floor}"
                tally.op(problem)
                tally.add("eval_examples_per_s", plan.eval_lines / dt)
    e2e = {
        "setup_s": statistics.median(setups),
        "train_examples_per_s": prepared["train_examples_per_s"],
        "eval_examples_per_s": statistics.median(tally.samples["eval_examples_per_s"]),
    }
    windows = dict(setup=(setup_span.start_ns, setup_span.end_ns),
                   measure=(measure_span.start_ns, measure_span.end_ns),
                   setups=plan.setup_repeats, epochs=0,
                   checkpoint_bytes=os.path.getsize(ckpt), rounds=rounds)
    return tally, e2e, windows


def run(workload: str, root: str, seed: int, seconds: float, tracer):
    """Run one workload; returns the tally, every end-to-end metric, and the
    set-up and measurement windows the per-layer analysis needs."""
    if workload == "serve-paper":
        tally, e2e, windows = run_serve(root, seed, seconds, tracer)
    else:
        shape = ACCEPT if workload == "train-accept" else PAPER
        tally, e2e, windows = run_train(workload, shape, root, seed, seconds, tracer)
    tally.check(np.mean(tally.agree) >= AGREEMENT_FLOOR,
                f"one-line labels agree with the presence rule on "
                f"{np.mean(tally.agree):.3f} < {AGREEMENT_FLOOR}")
    lat = tally.samples["predict_s"]
    e2e["predict_ms_p50"] = statistics.median(lat) * 1e3
    e2e["predict_ms_p90"] = statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
    e2e["predict_lines_per_s"] = statistics.median(tally.samples["bulk_lines_per_s"])
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tally, e2e, windows

