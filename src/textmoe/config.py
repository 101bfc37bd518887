"""Run configuration: a flat UTF-8 INI file with [model], [train], [data],
and [output] sections of `key = value` pairs. Relative paths resolve
against the config file's directory. Unknown keys are errors.

The [model] and [train] keys are the fields of ModelConfig and TrainConfig,
and the [data] keys RunConfig's own fields, with the same names and
defaults, less the fields that the data or the ablations decide
(vocab_size, classes_per_task, use_gate). Two [data] keys are shorter
than their fields: lexicon (lexicon_path) and embeddings (embeddings_path).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace

from .data import atomic_open
from .errors import ConfigError
from .model import ModelConfig
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
    """'neg:0,pos:1' -> (('neg', 0), ('pos', 1)); distinct names, indices 0..C-1."""
    pairs = []
    for part in text.split(","):
        name, sep, idx = (s.strip() for s in part.rpartition(":"))
        if not sep or not name:
            raise ConfigError(f"labels entry must look like 'name:index', got {part!r}")
        try:
            pairs.append((name, int(idx)))
        except ValueError:
            raise ConfigError(f"label index must be an integer, got {part!r}") from None
    if sorted(i for _, i in pairs) != list(range(len(pairs))) or len(dict(pairs)) < len(pairs):
        raise ConfigError(f"labels need distinct names and indices 0..{len(pairs) - 1}, "
                          f"got {text!r}")
    return tuple(pairs)


@dataclass
class RunConfig:
    # [model]; model_config() sets vocab_size and classes_per_task from the data.
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=0))
    # [train]
    train: TrainConfig = field(default_factory=TrainConfig)
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
    def seed(self) -> int:
        return self.train.seed

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
        return replace(self.model, vocab_size=vocab_size, classes_per_task=(c, c))

    def train_config(self) -> TrainConfig:
        return self.train

    def validate(self) -> None:
        if not self.depression_csv:
            raise ConfigError("missing [data] depression_csv")
        if not self.lexicon_path:
            raise ConfigError("missing [data] lexicon")
        if self.train.ratio[0] > 0 and not self.sentiment_csv:
            raise ConfigError("missing [data] sentiment_csv (required while ratio has a "
                              "nonzero sentiment component)")
        if self.lexicon_format not in ("plain", "nrc"):
            raise ConfigError(f"lexicon_format must be plain or nrc, got {self.lexicon_format!r}")
        if self.language not in ("english", "chinese"):
            raise ConfigError(f"language must be english or chinese, got {self.language!r}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")
        for attr in _PATH_ATTRS:
            path = getattr(self, attr)
            if path and not os.path.exists(path):
                raise ConfigError(f"[data] {attr}: no such file: {path}")
        self.model_config(vocab_size=1).validate()  # the data sets the real size
        self.train.validate()


# Fields that are not INI keys: those the data (vocab_size,
# classes_per_task) or the ablations (use_gate) decide, and RunConfig's
# sections other than [data].
_NOT_KEYS = ("vocab_size", "classes_per_task", "use_gate", "model", "train", "output_dir")
# [data] keys spelled other than their attribute.
_RENAMED = {"lexicon_path": "lexicon", "embeddings_path": "embeddings"}
# Attribute -> (parser, formatter) for the values that neither parse as the
# type of their field's default nor print as str() gives them.
_CODECS = {
    "ratio": (parse_ratio, lambda r: f"{r[0]}:{r[1]}"),
    "labels": (parse_labels, lambda labels: ",".join(f"{name}:{idx}" for name, idx in labels)),
    "nrc_emotions": (lambda s: tuple(e.strip() for e in s.split(",") if e.strip()), ",".join),
}


def _field_keys(cls) -> dict:
    """INI key -> (attribute, parser) for each field of a settings
    dataclass, in field order."""
    return {_RENAMED.get(f.name, f.name):
            (f.name, _CODECS[f.name][0] if f.name in _CODECS else type(f.default))
            for f in fields(cls) if f.name not in _NOT_KEYS}


# Section -> INI key -> (attribute, parser). Sections own disjoint key sets;
# [model] and [train] keys are attributes of cfg.model and cfg.train.
_SECTIONS = {
    "model": _field_keys(ModelConfig),
    "train": _field_keys(TrainConfig),
    "data": _field_keys(RunConfig),
    "output": {"dir": ("output_dir", str)},
}
_PATH_ATTRS = ("sentiment_csv", "depression_csv", "depression_test_csv",
               "lexicon_path", "embeddings_path")


def _holder(cfg: RunConfig, section: str):
    """The object whose attributes hold a section's values."""
    return getattr(cfg, section) if section in ("model", "train") else cfg


def load_run_config(path: str, validate: bool = True) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    cfg = RunConfig()
    base = os.path.dirname(os.path.abspath(path))

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        keys = _SECTIONS[section]
        for key, value in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}] of {path}")
            attr, parse = keys[key]
            try:
                setattr(_holder(cfg, section), attr, parse(value))
            except ValueError as e:
                raise ConfigError(f"[{section}] {key}: bad value {value!r}") from e

    for attr in (*_PATH_ATTRS, "output_dir"):
        value = getattr(cfg, attr)
        if value and not os.path.isabs(value):
            setattr(cfg, attr, os.path.normpath(os.path.join(base, value)))
    if validate:
        cfg.validate()
    return cfg


def write_run_config(cfg: RunConfig, path: str) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        holder = _holder(cfg, section)
        parser[section] = {
            key: (_CODECS[attr][1] if attr in _CODECS else str)(getattr(holder, attr))
            for key, (attr, _) in keys.items()}
    with atomic_open(path, encoding="utf-8") as fh:
        parser.write(fh)


def resolve_output_dir(flag_value: str | None, cfg: RunConfig | None = None) -> str:
    """Priority: command-line flag, config [output] dir, env var, default."""
    if flag_value:
        return flag_value
    if cfg is not None and cfg.output_dir:
        return cfg.output_dir
    return os.environ.get(ENV_OUTPUT_DIR) or DEFAULT_OUTPUT_DIR
