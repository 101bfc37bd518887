"""INI run configuration: parsing, validation, path resolution, and the
output-directory precedence chain.
"""

import configparser
import os
from dataclasses import replace

import pytest

from textmoe import (
    ConfigError,
    ModelConfig,
    RunConfig,
    TrainConfig,
    load_run_config,
    parse_ratio,
    write_run_config,
)
from textmoe.config import ENV_OUTPUT_DIR, parse_labels, resolve_output_dir


def test_parse_ratio():
    assert parse_ratio("3:1") == (3, 1)
    assert parse_ratio("0:1") == (0, 1)
    for bad in ("3", "3:1:2", "a:b", "-1:2", "1.5:1"):
        with pytest.raises(ConfigError):
            parse_ratio(bad)


def test_parse_labels():
    assert parse_labels("neg:0,pos:1") == (("neg", 0), ("pos", 1))
    assert parse_labels("a:1, b:0") == (("a", 1), ("b", 0))
    assert parse_labels("neg : 0, pos : 1") == (("neg", 0), ("pos", 1))
    for bad in ("neg", "neg:0,pos:2", "neg:x", ":0", " :0", "a:0,a:1", "a:0, a :1"):
        with pytest.raises(ConfigError):
            parse_labels(bad)


def _scaffold(tmp_path):
    for name in ("sent.csv", "dep.csv"):
        (tmp_path / name).write_text("text,label\nhello,0\n", encoding="utf-8")
    (tmp_path / "lex.txt").write_text("sad\n", encoding="utf-8")


def _base_ini(tmp_path, extra=""):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nword_dim = 8\nmarker_dim = 4\nnum_heads = 2\n"
        "[train]\nratio = 3:1\nbatch_size = 16\nseed = 42\n"
        "[data]\nsentiment_csv = sent.csv\ndepression_csv = dep.csv\n"
        "lexicon = lex.txt\nlabels = neg:0,pos:1\n"
        "[output]\ndir = out\n" + extra,
        encoding="utf-8",
    )
    return str(ini)


def test_load_run_config(tmp_path):
    _scaffold(tmp_path)
    cfg = load_run_config(_base_ini(tmp_path))
    assert cfg.model.word_dim == 8
    assert cfg.train.ratio == (3, 1)
    assert cfg.seed == 42
    assert cfg.labels == (("neg", 0), ("pos", 1))
    assert cfg.depression_csv == str(tmp_path / "dep.csv")  # resolved
    assert cfg.output_dir == str(tmp_path / "out")
    assert cfg.train.learning_rate == 1e-3  # untouched default


def test_model_and_train_config_derivation(tmp_path):
    _scaffold(tmp_path)
    cfg = load_run_config(_base_ini(tmp_path))
    mc = cfg.model_config(vocab_size=100)
    assert mc.vocab_size == 100
    assert mc.word_dim == 8
    assert mc.classes_per_task == (2, 2)
    tc = cfg.train_config()
    assert tc.ratio == (3, 1)
    assert tc.seed == 42
    assert cfg.label_map == {"neg": 0, "pos": 1}
    assert cfg.label_names == ["neg", "pos"]


def test_unknown_keys_and_sections(tmp_path):
    _scaffold(tmp_path)
    bad = tmp_path / "unknown.ini"
    bad.write_text("[model]\nhidden = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(str(bad))
    with pytest.raises(ConfigError, match="unknown section"):
        load_run_config(_base_ini(tmp_path, "[extra]\nx = 1\n"))
    bad.write_text("[output]\npath = x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(str(bad))


def test_malformed_ini_is_config_error(tmp_path):
    _scaffold(tmp_path)
    # A duplicated section is a file-format error, not a crash.
    with pytest.raises(ConfigError):
        load_run_config(_base_ini(tmp_path, "[model]\nword_dim = 9\n"))


def test_bad_value_reports_key(tmp_path):
    _scaffold(tmp_path)
    ini = tmp_path / "bad.ini"
    ini.write_text("[train]\nbatch_size = many\n"
                   "[data]\ndepression_csv = dep.csv\nlexicon = lex.txt\n",
                   encoding="utf-8")
    with pytest.raises(ConfigError, match="batch_size"):
        load_run_config(str(ini))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(str(tmp_path / "absent.ini"))


def test_validate_requires_core_paths(tmp_path):
    _scaffold(tmp_path)
    cfg = load_run_config(_base_ini(tmp_path), validate=False)
    cfg.depression_csv = ""
    with pytest.raises(ConfigError, match="depression_csv"):
        cfg.validate()

    cfg = load_run_config(_base_ini(tmp_path), validate=False)
    cfg.lexicon_path = ""
    with pytest.raises(ConfigError, match="lexicon"):
        cfg.validate()

    cfg = load_run_config(_base_ini(tmp_path), validate=False)
    cfg.sentiment_csv = ""
    with pytest.raises(ConfigError, match="sentiment_csv"):
        cfg.validate()  # ratio keeps a nonzero sentiment component
    cfg.train.ratio = (0, 1)
    cfg.validate()


def test_validate_checks_paths_exist(tmp_path):
    _scaffold(tmp_path)
    cfg = load_run_config(_base_ini(tmp_path), validate=False)
    cfg.embeddings_path = str(tmp_path / "missing.txt")
    with pytest.raises(ConfigError, match="no such file"):
        cfg.validate()


def test_validate_rejects_bad_enums(tmp_path):
    _scaffold(tmp_path)
    cfg = load_run_config(_base_ini(tmp_path), validate=False)
    cfg.lexicon_format = "xml"
    with pytest.raises(ConfigError, match="lexicon_format"):
        cfg.validate()
    cfg = load_run_config(_base_ini(tmp_path), validate=False)
    cfg.language = "latin"
    with pytest.raises(ConfigError, match="language"):
        cfg.validate()


def test_write_then_load_round_trip(tmp_path):
    _scaffold(tmp_path)
    cfg = load_run_config(_base_ini(tmp_path))
    cfg.nrc_emotions = ("sadness", "fear")
    cfg.model = replace(cfg.model, ff1_dim=7, ff2_hidden=5, ff2_out=3, num_experts=3,
                        dropout=0.25, attention_scale="sqrt_dim", max_seq_len=64)
    cfg.train = replace(cfg.train, learning_rate=0.02, lambda_l2=0.0, max_epochs=4,
                        lr_decay_factor=0.25, lr_patience=3, early_stop_patience=7,
                        validation_fraction=0.2)
    out = tmp_path / "copy.ini"
    write_run_config(cfg, str(out))
    written = configparser.ConfigParser()
    written.read(out, encoding="utf-8")
    default = RunConfig()
    for section in ("model", "train"):
        for key in written[section]:
            assert getattr(getattr(cfg, section), key) != \
                getattr(getattr(default, section), key), key
    back = load_run_config(str(out))
    assert back == cfg


def test_percent_signs_are_read_and_written_as_they_are(tmp_path):
    # Values are not interpolated: "%" is no error, and "%%" stays two signs.
    _scaffold(tmp_path)
    (tmp_path / "lex%1.txt").write_text("sad\n", encoding="utf-8")
    ini = _edited_ini(tmp_path, "lexicon = lex.txt\n",
                      "lexicon = lex%1.txt\ntext_column = body%%\n")
    cfg = load_run_config(ini)
    assert cfg.lexicon_path == str(tmp_path / "lex%1.txt")
    assert cfg.text_column == "body%%"
    out = tmp_path / "copy.ini"
    write_run_config(cfg, str(out))
    assert load_run_config(str(out)) == cfg


def test_defaults_are_the_dataclass_defaults():
    assert RunConfig().model_config(57) == ModelConfig(vocab_size=57)
    assert RunConfig().train_config() == TrainConfig()


def _edited_ini(tmp_path, old, new):
    ini = tmp_path / "run.ini"
    _base_ini(tmp_path)
    text = ini.read_text(encoding="utf-8")
    assert old in text
    ini.write_text(text.replace(old, new), encoding="utf-8")
    return str(ini)


@pytest.mark.parametrize("line", ["vocab_size = 10", "classes_per_task = 2",
                                  "use_gate = False"])
def test_data_decided_model_fields_are_not_keys(tmp_path, line):
    _scaffold(tmp_path)
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(_edited_ini(tmp_path, "[model]\n", f"[model]\n{line}\n"))


def test_model_config_is_validated_on_load(tmp_path):
    _scaffold(tmp_path)
    ini = _edited_ini(tmp_path, "num_heads = 2", "num_heads = 5")  # model_dim is 12
    with pytest.raises(ConfigError, match="not divisible by num_heads 5"):
        load_run_config(ini)


@pytest.mark.parametrize("line", ["learning_rate = nan", "learning_rate = inf",
                                  "lambda_l2 = nan", "lambda_l2 = inf"])
def test_non_finite_train_setting_names_its_key(tmp_path, line):
    # Unchecked, NaN and inf passed the sign checks: training ran a step and
    # diverged, or the optimizer rejected its internal weight_decay.
    _scaffold(tmp_path)
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        load_run_config(_edited_ini(tmp_path, "[train]\n", f"[train]\n{line}\n"))


def test_resolve_output_dir_priority(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    cfg = RunConfig(output_dir="from_config")
    assert resolve_output_dir("from_flag", cfg) == "from_flag"
    assert resolve_output_dir(None, cfg) == "from_config"
    assert resolve_output_dir(None, RunConfig()) == "textmoe_out"
    monkeypatch.setenv(ENV_OUTPUT_DIR, "from_env")
    assert resolve_output_dir(None, RunConfig()) == "from_env"
    assert resolve_output_dir(None, cfg) == "from_config"
    assert resolve_output_dir(None, None) == "from_env"
