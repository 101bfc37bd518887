"""Ablation variants and the sentiment:depression data-ratio sweep.

Variants share seeds and differ in exactly one mechanism:
  FULL               the complete model
  NO_GATE            uniform expert averaging instead of learned gates
  NO_SENTIMENT_DATA  sentiment ratio forced to 0 (marker bits kept)
  NO_SHARING         no sentiment data and marker bits forced to 0
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .data import DEPRESSION, EmbeddingTable, TaskDataset, Vocabulary, load_glove
from .lexicon import Lexicon
from .metrics import MetricsReport, evaluate
from .model import ModelConfig, MoeClassifier
from .train import TAG_EMBEDDING, TAG_MODEL, TrainConfig, fit, rng_stream


class AblationVariant(enum.Enum):
    FULL = "full"
    NO_GATE = "-gate"
    NO_SENTIMENT_DATA = "-s"
    NO_SHARING = "-ss"


ALL_VARIANTS = tuple(AblationVariant)


@dataclass
class DataBundle:
    sentiment: TaskDataset | None
    depression: TaskDataset
    vocab: Vocabulary
    lexicon: Lexicon
    depression_test: TaskDataset | None = None
    embeddings_path: str | None = None

    @property
    def eval_set(self) -> TaskDataset:
        return self.depression_test if self.depression_test is not None else self.depression


def build_model(bundle: DataBundle, model_cfg: ModelConfig, seed: int) -> MoeClassifier:
    """Embedding plus model construction under the run seed."""
    emb_rng = rng_stream(seed, TAG_EMBEDDING)
    if bundle.embeddings_path:
        emb = load_glove(bundle.embeddings_path, bundle.vocab,
                         model_cfg.word_dim, emb_rng)
    else:
        emb = EmbeddingTable.random(bundle.vocab, model_cfg.word_dim, emb_rng)
    return MoeClassifier(model_cfg, emb, rng_stream(seed, TAG_MODEL))


def apply_variant(variant: AblationVariant, bundle: DataBundle,
                  model_cfg: ModelConfig, train_cfg: TrainConfig,
                  ) -> tuple[DataBundle, ModelConfig, TrainConfig]:
    if variant is AblationVariant.NO_GATE:
        model_cfg = replace(model_cfg, use_gate=False)
    if variant in (AblationVariant.NO_SENTIMENT_DATA, AblationVariant.NO_SHARING):
        dep_ratio = train_cfg.ratio[1] if train_cfg.ratio[1] > 0 else 1
        train_cfg = replace(train_cfg, ratio=(0, dep_ratio))
    if variant is AblationVariant.NO_SHARING:
        bundle = replace(
            bundle,
            sentiment=None,
            depression=bundle.depression.without_markers(),
            depression_test=(bundle.depression_test.without_markers()
                             if bundle.depression_test is not None else None),
        )
    return bundle, model_cfg, train_cfg


def run_ablation(variant: AblationVariant, bundle: DataBundle,
                 model_cfg: ModelConfig, train_cfg: TrainConfig) -> MetricsReport:
    """Build, train, and evaluate one variant on the depression eval set."""
    bundle, model_cfg, train_cfg = apply_variant(variant, bundle, model_cfg, train_cfg)
    model = build_model(bundle, model_cfg, train_cfg.seed)
    fit(model, bundle.sentiment, bundle.depression, train_cfg)
    return evaluate(model, bundle.eval_set, DEPRESSION, train_cfg.batch_size)


def ratio_sweep(ratios: list[tuple[int, int]], bundle: DataBundle,
                model_cfg: ModelConfig, train_cfg: TrainConfig,
                ) -> list[tuple[tuple[int, int], MetricsReport]]:
    """Train one model per ratio under shared seeds; evaluate each."""
    return [(ratio, run_ablation(AblationVariant.FULL, bundle, model_cfg,
                                 replace(train_cfg, ratio=ratio)))
            for ratio in ratios]
