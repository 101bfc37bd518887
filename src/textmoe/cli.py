"""Command-line surface: train, eval, predict, ablate, ratio-sweep, init.

Every command is driven by an INI config (see config.py); flags override
file values. Config and usage errors exit 2, data/parse/runtime errors
exit 1, success exits 0. The default output directory comes from --out,
then [output] dir, then $TEXTMOE_OUTPUT_DIR, then ./textmoe_out.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from .ablation import ALL_VARIANTS, DataBundle, build_model, ratio_sweep, run_ablation
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import (
    RunConfig,
    load_run_config,
    parse_ratio,
    resolve_output_dir,
    write_run_config,
)
# tokenize is unused here, but perfbench/spans.py wraps it by the name this
# module imports and looks it up, so it stays.
from .data import (  # noqa: F401
    DEPRESSION,
    SENTIMENT,
    TASK_IDS,
    atomic_open,
    build_vocab,
    dataset_rows,
    encode_rows,
    encode_text,
    load_csv_dataset,
    read_token_rows,
    synth_generate,
    tokenize,
    write_csv,
)
from .errors import ConfigError, Error, UsageError
from .lexicon import DEFAULT_MARKER_EMOTIONS, load_nrc_lexicon, load_plain_lexicon
from .metrics import evaluate, metrics_table, report_record
from .model import ModelConfig
from .tensor import Tensor, softmax
from .train import TrainConfig, fit

CONFIG_EXIT = 2
ERROR_EXIT = 1
PREDICT_CHUNK_LINES = 256  # as evaluate's default batch size


def _load_lexicon(cfg: RunConfig):
    if cfg.lexicon_format == "nrc":
        emotions = cfg.nrc_emotions or DEFAULT_MARKER_EMOTIONS
        return load_nrc_lexicon(cfg.lexicon_path, emotions, cfg.language)
    return load_plain_lexicon(cfg.lexicon_path, cfg.language)


def load_bundle(cfg: RunConfig) -> DataBundle:
    """Lexicon + vocabulary + datasets as configured, reading each CSV once.
    The vocabulary counts the training rows' full token lists, so a token
    seen only past max_seq_len still gets an id."""
    lexicon = _load_lexicon(cfg)

    def read(path: str):
        return read_token_rows(path, cfg.text_column, cfg.label_column, cfg.language)

    def encode(path: str, rows, task_id: str):
        return encode_rows(path, rows, task_id, cfg.label_map, lexicon, vocab,
                           cfg.model.max_seq_len)

    sentiment = list(read(cfg.sentiment_csv)) if cfg.sentiment_csv else []
    depression = list(read(cfg.depression_csv))
    vocab = build_vocab([tokens for _, tokens, _ in sentiment + depression], cfg.min_count)
    # Each dataset takes its rows' place, so the rows are freed once encoded.
    sentiment = encode(cfg.sentiment_csv, sentiment, SENTIMENT) if cfg.sentiment_csv else None
    depression = encode(cfg.depression_csv, depression, DEPRESSION)
    test = (encode(cfg.depression_test_csv, read(cfg.depression_test_csv), DEPRESSION)
            if cfg.depression_test_csv else None)
    return DataBundle(sentiment=sentiment, depression=depression, vocab=vocab, lexicon=lexicon,
                      depression_test=test, embeddings_path=cfg.embeddings_path or None)


def _prepare_run(args: argparse.Namespace, ratios: Sequence[tuple[int, int]] = (),
                 ) -> tuple[RunConfig, str, DataBundle]:
    """The config with the flag overrides applied, the created output
    directory and the data bundle: what every run command starts from.
    Given ``ratios``, the config must be valid with each of them as its
    ratio, and its own ratio, which is then never trained at, is not checked."""
    cfg = load_run_config(args.config, validate=False)
    for attr in ("seed", "max_epochs", "batch_size", "learning_rate"):
        value = getattr(args, attr)
        if value is not None:
            setattr(cfg.train, attr, value)
    if args.ratio is not None:
        cfg.train.ratio = parse_ratio(args.ratio)
    for ratio in ratios or [cfg.train.ratio]:
        replace(cfg, train=replace(cfg.train, ratio=ratio)).validate()
    out_dir = resolve_output_dir(args.out, cfg)
    os.makedirs(out_dir, exist_ok=True)
    return cfg, out_dir, load_bundle(cfg)


def _open_checkpoint(args: argparse.Namespace) -> Checkpoint:
    """The checkpoint named on the command line, if it has the asked task."""
    ckpt = load_checkpoint(args.checkpoint)
    if args.task not in ckpt.label_names:
        raise ConfigError(f"task {args.task!r} not in checkpoint "
                          f"(has: {sorted(ckpt.label_names)})")
    return ckpt


def _write_text(out_dir: str, name: str, text: str) -> None:
    with atomic_open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        fh.write(text)


def _label_names(cfg: RunConfig) -> dict[str, list[str]]:
    return {task: cfg.label_names for task in TASK_IDS}


def cmd_train(args: argparse.Namespace) -> int:
    cfg, out_dir, bundle = _prepare_run(args)
    model = build_model(bundle, cfg.model_config(len(bundle.vocab)), cfg.seed)
    report = fit(model, bundle.sentiment, bundle.depression, cfg.train_config(),
                 on_epoch=lambda r: print(r.log_line()))

    ckpt_path = save_checkpoint(os.path.join(out_dir, "model.npz"), model,
                                bundle.vocab, bundle.lexicon, _label_names(cfg),
                                cfg.language, cfg.text_column, cfg.label_column)
    _write_text(out_dir, "train_log.txt", "\n".join(report.log_lines()) + "\n")
    final = evaluate(model, bundle.eval_set, DEPRESSION, cfg.train.batch_size)
    record = report_record(final)
    _write_text(out_dir, "metrics.txt", record)
    print(record, end="")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt = _open_checkpoint(args)
    label_map = {name: i for i, name in enumerate(ckpt.label_names[args.task])}
    dataset = load_csv_dataset(
        args.dataset, args.task,
        args.text_column or ckpt.text_column,
        args.label_column or ckpt.label_column,
        label_map, ckpt.lexicon, ckpt.vocab, ckpt.language,
        ckpt.model.cfg.max_seq_len,
    )
    report = evaluate(ckpt.model, dataset, args.task)
    print(report_record(report), end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    ckpt = _open_checkpoint(args)
    names = ckpt.label_names[args.task]
    lines = (line.rstrip("\n") for line in sys.stdin)
    # Chunks bound memory by the chunk, not by the input; infer groups each
    # chunk's lines into length buckets and records no graph.
    while chunk := list(itertools.islice(lines, PREDICT_CHUNK_LINES)):
        batch = [encode_text(line, ckpt.vocab, ckpt.lexicon, ckpt.language,
                             ckpt.model.cfg.max_seq_len) for line in chunk]
        logits = Tensor(ckpt.model.infer(batch, args.task))
        for row in softmax(logits).data:
            best = int(np.argmax(row))
            print(f"{names[best]}\t{row[best]:.6f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg, out_dir, bundle = _prepare_run(args)
    model_cfg = cfg.model_config(len(bundle.vocab))
    rows = []
    for variant in ALL_VARIANTS:
        report = run_ablation(variant, bundle, model_cfg, cfg.train_config())
        rows.append((variant.value, report))
    table = metrics_table(rows, label="variant")
    _write_text(out_dir, "ablation.txt", table)
    print(table, end="")
    return 0


def cmd_ratio_sweep(args: argparse.Namespace) -> int:
    ratios = [parse_ratio(r) for r in args.ratios.split(",") if r.strip()]
    if not ratios:
        raise ConfigError("no ratios given")
    cfg, out_dir, bundle = _prepare_run(args, ratios)
    results = ratio_sweep(ratios, bundle, cfg.model_config(len(bundle.vocab)),
                          cfg.train_config())
    rows = [(f"{rs}:{rd}", report) for (rs, rd), report in results]
    table = metrics_table(rows, label="ratio")
    plot_lines = []
    for (rs, rd), report in results:
        x = rs / rd if rd else math.inf
        plot_lines.append(f"{x:g} {report.macro_f1!r}")
    _write_text(out_dir, "ratio_sweep.txt", table)
    _write_text(out_dir, "ratio_sweep.dat", "\n".join(plot_lines) + "\n")
    print(table, end="")
    return 0


def cmd_init(args: argparse.Namespace) -> int:
    """Scaffold a self-contained synthetic quick-start into a directory."""
    out = args.outdir
    synth = synth_generate(args.seed, args.n_per_task, args.vocab_size,
                           args.signal, n_test_per_task=max(50, args.n_per_task // 4))
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "sentiment.csv"),
              dataset_rows(synth.sentiment, synth.vocab))
    write_csv(os.path.join(out, "depression.csv"),
              dataset_rows(synth.depression, synth.vocab))
    write_csv(os.path.join(out, "depression_test.csv"),
              dataset_rows(synth.depression_test, synth.vocab))
    _write_text(out, "lexicon.txt", "# negative-marker terms, one per line\n"
                + "\n".join(sorted(synth.lexicon.terms)) + "\n")

    word_dim = 24
    rng = np.random.default_rng([args.seed, 99])
    with atomic_open(os.path.join(out, "embeddings.txt"), encoding="utf-8") as fh:
        for token in synth.vocab.id_to_token[2:]:
            if rng.random() < 0.7:  # leave some tokens to the OOV path
                values = " ".join(f"{v:.5f}" for v in rng.uniform(-0.5, 0.5, word_dim))
                fh.write(f"{token} {values}\n")

    cfg = RunConfig(
        model=ModelConfig(vocab_size=0, word_dim=word_dim, marker_dim=8, num_heads=2,
                          ff1_dim=32, ff2_hidden=16, ff2_out=16, num_experts=2,
                          dropout=0.1),
        train=TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=6,
                          ratio=(1, 1), seed=args.seed),
        sentiment_csv="sentiment.csv", depression_csv="depression.csv",
        depression_test_csv="depression_test.csv", lexicon_path="lexicon.txt",
        embeddings_path="embeddings.txt", output_dir="run",
    )
    config_path = os.path.join(out, "config.ini")
    write_run_config(cfg, config_path)
    print(f"wrote quick-start into {out}")
    print(f"next: textmoe train {config_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textmoe",
        description="Multi-task text classifier with lexicon markers, "
                    "shared attention experts, and per-task gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("config", help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
        p.add_argument("--ratio", default=None, help="sentiment:depression, e.g. 3:1")

    p = sub.add_parser("train", help="train a model and write checkpoint/log/metrics")
    add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--task", default=DEPRESSION, choices=list(TASK_IDS))
    p.add_argument("--text-column", dest="text_column", default=None)
    p.add_argument("--label-column", dest="label_column", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="label stdin lines as label<TAB>probability")
    p.add_argument("checkpoint")
    p.add_argument("--task", default=DEPRESSION, choices=list(TASK_IDS))
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="run the four ablation variants")
    add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("ratio-sweep", help="train once per sentiment:depression ratio")
    add_run_flags(p)
    p.add_argument("--ratios", default="0:1,1:1,3:1",
                   help="comma-separated list, e.g. 0:1,1:1,3:1,5:1")
    p.set_defaults(func=cmd_ratio_sweep)

    p = sub.add_parser("init", help="write a synthetic quick-start (data + config)")
    p.add_argument("outdir")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-per-task", dest="n_per_task", type=int, default=400)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=120)
    p.add_argument("--signal", type=float, default=0.9)
    p.set_defaults(func=cmd_init)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CONFIG_EXIT
    except (Error, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
