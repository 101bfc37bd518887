"""Run configuration: a flat UTF-8 INI file with [model], [train], [data],
and [output] sections of `key = value` pairs. Relative paths resolve
against the config file's directory. Unknown keys are errors.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .data import MAX_SEQ_LEN
from .errors import ConfigError
from .model import SCALE_MODES, ModelConfig
from .train import TrainConfig

ENV_OUTPUT_DIR = "TEXTMOE_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "textmoe_out"


def parse_ratio(text: str) -> tuple[int, int]:
    """'3:1' -> (3, 1)."""
    parts = text.split(":")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        values = ()
    if len(values) != 2 or any(v < 0 for v in values):
        raise ConfigError(f"ratio must look like '3:1' with non-negative integers, got {text!r}")
    return values


def parse_labels(text: str) -> tuple[tuple[str, int], ...]:
    """'neg:0,pos:1' -> (('neg', 0), ('pos', 1)); indices must cover 0..C-1."""
    pairs = []
    for part in text.split(","):
        name, sep, idx = part.strip().rpartition(":")
        if not sep or not name:
            raise ConfigError(f"labels entry must look like 'name:index', got {part!r}")
        try:
            pairs.append((name, int(idx)))
        except ValueError:
            raise ConfigError(f"label index must be an integer, got {part!r}") from None
    indices = sorted(i for _, i in pairs)
    if indices != list(range(len(pairs))):
        raise ConfigError(f"label indices must cover 0..{len(pairs) - 1}, got {text!r}")
    return tuple(pairs)


@dataclass
class RunConfig:
    # [model]
    word_dim: int = 300
    marker_dim: int = 100
    num_heads: int = 4
    ff1_dim: int = 400
    ff2_hidden: int = 200
    ff2_out: int = 200
    num_experts: int = 4
    dropout: float = 0.1
    attention_scale: str = "dim"
    max_seq_len: int = MAX_SEQ_LEN
    # [train]
    learning_rate: float = 1e-3
    batch_size: int = 512
    lambda_l2: float = 1e-4
    max_epochs: int = 30
    ratio: tuple[int, int] = (1, 1)
    lr_decay_factor: float = 0.5
    lr_patience: int = 2
    early_stop_patience: int = 5
    seed: int = 0
    validation_fraction: float = 0.1
    # [data]
    sentiment_csv: str = ""
    depression_csv: str = ""
    depression_test_csv: str = ""
    lexicon_path: str = ""
    lexicon_format: str = "plain"
    nrc_emotions: tuple[str, ...] = ()
    embeddings_path: str = ""
    language: str = "english"
    text_column: str = "text"
    label_column: str = "label"
    labels: tuple[tuple[str, int], ...] = (("0", 0), ("1", 1))
    min_count: int = 1
    # [output]
    output_dir: str = ""

    @property
    def num_classes(self) -> int:
        return len(self.labels)

    @property
    def label_map(self) -> dict[str, int]:
        return dict(self.labels)

    @property
    def label_names(self) -> list[str]:
        return [name for name, _ in sorted(self.labels, key=lambda p: p[1])]

    def model_config(self, vocab_size: int) -> ModelConfig:
        c = self.num_classes
        return ModelConfig(
            vocab_size=vocab_size,
            word_dim=self.word_dim,
            marker_dim=self.marker_dim,
            num_heads=self.num_heads,
            ff1_dim=self.ff1_dim,
            ff2_hidden=self.ff2_hidden,
            ff2_out=self.ff2_out,
            num_experts=self.num_experts,
            classes_per_task=(c, c),
            dropout=self.dropout,
            attention_scale=self.attention_scale,
            max_seq_len=self.max_seq_len,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            lambda_l2=self.lambda_l2,
            max_epochs=self.max_epochs,
            ratio=self.ratio,
            lr_decay_factor=self.lr_decay_factor,
            lr_patience=self.lr_patience,
            early_stop_patience=self.early_stop_patience,
            seed=self.seed,
            validation_fraction=self.validation_fraction,
        )

    def validate(self) -> None:
        if not self.depression_csv:
            raise ConfigError("missing [data] depression_csv")
        if not self.lexicon_path:
            raise ConfigError("missing [data] lexicon")
        if self.ratio[0] > 0 and not self.sentiment_csv:
            raise ConfigError("missing [data] sentiment_csv (required while ratio has a "
                              "nonzero sentiment component)")
        if self.lexicon_format not in ("plain", "nrc"):
            raise ConfigError(f"lexicon_format must be plain or nrc, got {self.lexicon_format!r}")
        if self.language not in ("english", "chinese"):
            raise ConfigError(f"language must be english or chinese, got {self.language!r}")
        if self.attention_scale not in SCALE_MODES:
            raise ConfigError(f"attention_scale must be one of {SCALE_MODES}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")
        for field_name in ("sentiment_csv", "depression_csv", "depression_test_csv",
                           "lexicon_path", "embeddings_path"):
            path = getattr(self, field_name)
            if path and not os.path.exists(path):
                raise ConfigError(f"[data] {field_name}: no such file: {path}")
        self.train_config().validate()


# INI key -> (attribute, parser). Sections own disjoint key sets.
_MODEL_KEYS = {
    "word_dim": int, "marker_dim": int, "num_heads": int, "ff1_dim": int,
    "ff2_hidden": int, "ff2_out": int, "num_experts": int, "dropout": float,
    "attention_scale": str, "max_seq_len": int,
}
_TRAIN_KEYS = {
    "learning_rate": float, "batch_size": int, "lambda_l2": float,
    "max_epochs": int, "ratio": parse_ratio, "lr_decay_factor": float,
    "lr_patience": int, "early_stop_patience": int, "seed": int,
    "validation_fraction": float,
}
_DATA_KEYS = {
    "sentiment_csv": ("sentiment_csv", str),
    "depression_csv": ("depression_csv", str),
    "depression_test_csv": ("depression_test_csv", str),
    "lexicon": ("lexicon_path", str),
    "lexicon_format": ("lexicon_format", str),
    "nrc_emotions": ("nrc_emotions",
                     lambda s: tuple(e.strip() for e in s.split(",") if e.strip())),
    "embeddings": ("embeddings_path", str),
    "language": ("language", str),
    "text_column": ("text_column", str),
    "label_column": ("label_column", str),
    "labels": ("labels", parse_labels),
    "min_count": ("min_count", int),
}
_PATH_ATTRS = ("sentiment_csv", "depression_csv", "depression_test_csv",
               "lexicon_path", "embeddings_path")


def load_run_config(path: str, validate: bool = True) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from e
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    cfg = RunConfig()
    base = os.path.dirname(os.path.abspath(path))

    def take(section: str, keys: dict, mapped: bool) -> None:
        if not parser.has_section(section):
            return
        for key, value in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}] of {path}")
            attr, conv = keys[key] if mapped else (key, keys[key])
            try:
                setattr(cfg, attr, conv(value))
            except ValueError as e:
                raise ConfigError(f"[{section}] {key}: bad value {value!r}") from e

    take("model", _MODEL_KEYS, mapped=False)
    take("train", _TRAIN_KEYS, mapped=False)
    take("data", _DATA_KEYS, mapped=True)
    if parser.has_section("output"):
        for key, value in parser.items("output"):
            if key != "dir":
                raise ConfigError(f"unknown key {key!r} in [output] of {path}")
            cfg.output_dir = value
    for section in parser.sections():
        if section not in ("model", "train", "data", "output"):
            raise ConfigError(f"unknown section [{section}] in {path}")

    for attr in _PATH_ATTRS:
        value = getattr(cfg, attr)
        if value and not os.path.isabs(value):
            setattr(cfg, attr, os.path.normpath(os.path.join(base, value)))
    if cfg.output_dir and not os.path.isabs(cfg.output_dir):
        cfg.output_dir = os.path.normpath(os.path.join(base, cfg.output_dir))
    if validate:
        cfg.validate()
    return cfg


def write_run_config(cfg: RunConfig, path: str) -> None:
    parser = configparser.ConfigParser()
    parser["model"] = {k: str(getattr(cfg, k)) for k in _MODEL_KEYS}
    train = {k: str(getattr(cfg, k)) for k in _TRAIN_KEYS if k != "ratio"}
    train["ratio"] = f"{cfg.ratio[0]}:{cfg.ratio[1]}"
    parser["train"] = train
    parser["data"] = {
        "sentiment_csv": cfg.sentiment_csv,
        "depression_csv": cfg.depression_csv,
        "depression_test_csv": cfg.depression_test_csv,
        "lexicon": cfg.lexicon_path,
        "lexicon_format": cfg.lexicon_format,
        "nrc_emotions": ",".join(cfg.nrc_emotions),
        "embeddings": cfg.embeddings_path,
        "language": cfg.language,
        "text_column": cfg.text_column,
        "label_column": cfg.label_column,
        "labels": ",".join(f"{name}:{idx}" for name, idx in cfg.labels),
        "min_count": str(cfg.min_count),
    }
    parser["output"] = {"dir": cfg.output_dir}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def resolve_output_dir(flag_value: str | None, cfg: RunConfig | None = None) -> str:
    """Priority: command-line flag, config [output] dir, env var, default."""
    if flag_value:
        return flag_value
    if cfg is not None and cfg.output_dir:
        return cfg.output_dir
    return os.environ.get(ENV_OUTPUT_DIR) or DEFAULT_OUTPUT_DIR
