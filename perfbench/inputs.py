"""Benchmark inputs and the references the correctness checks use.

Every input is drawn from ``synth_generate`` with the run's seed and
written to disk the way a user would hand it to ``textmoe train``: task
CSVs, a plain lexicon, a GloVe-format vector file and an INI config. The
references (Bayes-optimal accuracy, the presence rule) are computed here
from the generator's documented construction, never from textmoe's output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from textmoe.data import dataset_rows, synth_generate, write_csv

ACCEPT_DIMS = dict(word_dim=16, marker_dim=4, num_heads=2, ff1_dim=24,
                   ff2_hidden=16, ff2_out=16, num_experts=2, dropout=0.0)
PAPER_DIMS = dict(word_dim=300, marker_dim=100, num_heads=4, ff1_dim=400,
                  ff2_hidden=200, ff2_out=200, num_experts=4, dropout=0.1)

# Lengths of the extra lines in every bulk predict call: heavy-tailed and
# always reaching max_seq_len, so each bulk call pads to the same width
# and its cost and memory do not depend on the seed.
BULK_TAIL_LENGTHS = (4, 5, 5, 6, 6, 7, 8, 9, 10, 12, 14, 17, 22, 32, 56, 128)

PLANTED_PREFIX = "neg"  # synth_generate names its planted tokens neg0, neg1, ...

# Pretrained vectors put negative words near one another; the lexicon
# terms share this offset on every coordinate, the rest are U(-0.05, 0.05).
LEXICON_OFFSET = 0.2


@dataclass(frozen=True)
class Shape:
    dims: dict
    vocab_size: int
    n_sentiment: int
    n_depression: int
    n_test: int
    signal: float
    lambda_l2: float
    epochs: int
    batch_size: int = 64


ACCEPT = Shape(ACCEPT_DIMS, vocab_size=200, n_sentiment=2000, n_depression=2000,
               n_test=1000, signal=0.8, lambda_l2=1e-4, epochs=3)
# Sentiment corpora are far larger than depression ones. textmoe builds its
# vocabulary from the training CSVs, and 16000 sentiment posts cover all
# but a few dozen of the 20k generated tokens, so the embedding has about
# 20k rows; at ratio 1:1 an epoch still holds as many sentiment batches as
# depression batches.
PAPER = Shape(PAPER_DIMS, vocab_size=20000, n_sentiment=16000, n_depression=640,
              n_test=500, signal=1.0, lambda_l2=1e-4, epochs=1)


@dataclass
class Workspace:
    config: str
    test_texts: list[str]


def bayes_accuracy(signal: float) -> float:
    """Expected accuracy of the optimal classifier for synth_generate data.

    Half the examples carry one planted token. One planted token in five
    is ambiguous, with P(label=1) = max(0, 1 - 4(1 - signal)); the others
    are strong, solved so that the pooled P(label=1 | planted) = signal.
    Without a planted token P(label=1) = 1 - signal.
    """
    w = 0.2
    u_amb = max(0.0, 1.0 - 4.0 * (1.0 - signal))
    u_strong = (signal - w * u_amb) / (1.0 - w)
    planted = w * max(u_amb, 1 - u_amb) + (1 - w) * max(u_strong, 1 - u_strong)
    return 0.5 * planted + 0.5 * max(signal, 1 - signal)


def accuracy_ceiling(signal: float, n: int) -> float:
    """Bayes accuracy plus four binomial standard errors of sampling slack."""
    b = bayes_accuracy(signal)
    return min(1.0, b + 4.0 * math.sqrt(b * (1.0 - b) / n))


def presence_label(text: str) -> str:
    """The generator's rule at signal 1.0: label 1 iff a planted token occurs."""
    return "1" if any(t.startswith(PLANTED_PREFIX) for t in text.split()) else "0"


def _write_vectors(path: str, tokens, lexicon, dim: int,
                   rng: np.random.Generator) -> None:
    # Values are written with four decimals from a lookup table of the
    # formatted grid; a 20k x 300 file takes about a second.
    steps = rng.integers(-500, 501, size=(len(tokens), dim))
    offset = round(LEXICON_OFFSET * 1e4)
    steps[[i for i, t in enumerate(tokens) if t in lexicon]] += offset
    lo = int(steps.min())
    table = np.array([f"{v / 1e4:.4f}" for v in range(lo, int(steps.max()) + 1)],
                     dtype=object)
    cells = table[steps - lo]
    with open(path, "w", encoding="utf-8") as fh:
        for token, row in zip(tokens, cells):
            fh.write(token + " " + " ".join(row) + "\n")


def write_workspace(root: str, seed: int, shape: Shape) -> Workspace:
    """Data, lexicon, vectors and config for one train run under root."""
    os.makedirs(root, exist_ok=True)
    data = synth_generate(seed, n_per_task=max(shape.n_sentiment, shape.n_depression),
                          vocab_size=shape.vocab_size, signal=shape.signal,
                          n_test_per_task=shape.n_test)
    test_rows = dataset_rows(data.depression_test, data.vocab)
    write_csv(os.path.join(root, "sentiment.csv"),
              dataset_rows(data.sentiment, data.vocab)[:shape.n_sentiment])
    write_csv(os.path.join(root, "depression.csv"),
              dataset_rows(data.depression, data.vocab)[:shape.n_depression])
    write_csv(os.path.join(root, "depression_test.csv"), test_rows)
    with open(os.path.join(root, "lexicon.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(sorted(data.lexicon.terms)) + "\n")
    _write_vectors(os.path.join(root, "vectors.txt"), data.vocab.id_to_token[2:],
                   data.lexicon.terms, shape.dims["word_dim"],
                   np.random.default_rng([seed, 1]))
    model = "\n".join(f"{k} = {v}" for k, v in shape.dims.items())
    with open(os.path.join(root, "config.ini"), "w", encoding="utf-8") as fh:
        fh.write(f"""[model]
{model}

[train]
learning_rate = 0.001
batch_size = {shape.batch_size}
lambda_l2 = {shape.lambda_l2}
max_epochs = {shape.epochs}
ratio = 1:1
early_stop_patience = {shape.epochs + 1}
seed = {seed}

[data]
sentiment_csv = sentiment.csv
depression_csv = depression.csv
depression_test_csv = depression_test.csv
lexicon = lexicon.txt
embeddings = vectors.txt
""")
    return Workspace(os.path.join(root, "config.ini"), [text for text, _ in test_rows])


def tail_lines(texts: list[str], rng: np.random.Generator) -> list[str]:
    """Bulk-call filler: one line per BULK_TAIL_LENGTHS entry, made of test
    tokens so that the presence rule still labels it."""
    pool = " ".join(texts[i] for i in rng.permutation(len(texts))).split()
    lines, at = [], 0
    for n in BULK_TAIL_LENGTHS:
        if at + n > len(pool):
            at = 0
        lines.append(" ".join(pool[at:at + n]))
        at += n
    return lines
