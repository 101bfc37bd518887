"""Command-line behavior: the quick-start scaffold, the train/eval/predict
pipeline, sweep commands, exit codes, and rerun reproducibility.
"""

import argparse
import csv
import io
import shutil
import subprocess
import sys

import numpy as np
import pytest

from textmoe import ablation, cli, data
from textmoe.checkpoint import load_checkpoint
from textmoe.config import RunConfig, load_run_config
from textmoe.cli import PREDICT_CHUNK_LINES, main
from textmoe.metrics import parse_record


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained quick-start project shared by the read-only CLI tests."""
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data"
    out = ws / "run1"
    assert main(["init", str(data), "--n-per-task", "120",
                 "--vocab-size", "60", "--seed", "3"]) == 0
    assert main(["train", str(data / "config.ini"), "--out", str(out),
                 "--max-epochs", "2"]) == 0
    return {"data": data, "out": out}


def test_init_scaffold_contents(tmp_path):
    target = tmp_path / "proj"
    assert main(["init", str(target), "--n-per-task", "40",
                 "--vocab-size", "30"]) == 0
    for name in ("config.ini", "sentiment.csv", "depression.csv",
                 "depression_test.csv", "lexicon.txt", "embeddings.txt"):
        assert (target / name).exists(), name
    header = (target / "depression.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "text,label"


def test_train_writes_artifacts(workspace):
    out = workspace["out"]
    assert (out / "model.npz").exists()
    assert (out / "train_log.txt").exists()
    assert (out / "metrics.txt").exists()
    log = (out / "train_log.txt").read_text(encoding="utf-8")
    epoch_lines = [l for l in log.splitlines() if l.startswith("epoch=")]
    assert len(epoch_lines) == 2
    assert "stop_reason=" in log
    record = parse_record((out / "metrics.txt").read_text(encoding="utf-8"))
    assert record["task"] == "depression"
    assert 0.0 <= float(record["accuracy"]) <= 1.0


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    out2 = tmp_path / "run2"
    assert main(["train", str(workspace["data"] / "config.ini"),
                 "--out", str(out2), "--max-epochs", "2"]) == 0
    for name in ("metrics.txt", "train_log.txt"):
        a = (workspace["out"] / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_eval_prints_record(workspace, capsys):
    code = main(["eval", str(workspace["out"] / "model.npz"),
                 str(workspace["data"] / "depression_test.csv")])
    assert code == 0
    record = parse_record(capsys.readouterr().out)
    assert record["task"] == "depression"
    assert 0.0 <= float(record["macro_f1"]) <= 1.0
    assert record["examples"] == "50"


def test_eval_is_reproducible(workspace, capsys):
    args = ["eval", str(workspace["out"] / "model.npz"),
            str(workspace["data"] / "depression_test.csv")]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_predict_labels_stdin(workspace, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("neg0 w1 w2\nw3 w4\n"))
    assert main(["predict", str(workspace["out"] / "model.npz")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        label, prob = line.split("\t")
        assert label in ("0", "1")
        assert 0.0 < float(prob) <= 1.0


def test_predict_chunks_match_one_line_calls(workspace, capsys, monkeypatch):
    model = str(workspace["out"] / "model.npz")
    words = load_checkpoint(model).vocab.id_to_token[2:]
    rng = np.random.default_rng(0)
    lines = [" ".join(rng.choice(words, size=rng.integers(1, 20)))
             for _ in range(PREDICT_CHUNK_LINES + 3)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["predict", model]) == 0
    bulk = capsys.readouterr().out.splitlines()
    assert len(bulk) == len(lines)
    for line, row in zip(lines, bulk):
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        assert main(["predict", model]) == 0
        label, prob = capsys.readouterr().out.rstrip("\n").split("\t")
        assert row.split("\t")[0] == label
        assert abs(float(row.split("\t")[1]) - float(prob)) <= 1e-5


def test_predict_empty_stdin(workspace, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["predict", str(workspace["out"] / "model.npz")]) == 0
    assert capsys.readouterr().out == ""


def test_ablate_writes_variant_table(workspace, tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate", str(workspace["data"] / "config.ini"),
                 "--out", str(out), "--max-epochs", "1"]) == 0
    table = (out / "ablation.txt").read_text(encoding="utf-8")
    for variant in ("full", "-gate", "-s", "-ss"):
        assert variant in table
    assert "accuracy" in table and "macro_f1" in table


def test_ratio_sweep_writes_table_and_points(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert main(["ratio-sweep", str(workspace["data"] / "config.ini"),
                 "--out", str(out), "--max-epochs", "1",
                 "--ratios", "0:1,1:1"]) == 0
    table = (out / "ratio_sweep.txt").read_text(encoding="utf-8")
    assert "0:1" in table and "1:1" in table
    points = (out / "ratio_sweep.dat").read_text(encoding="utf-8").splitlines()
    assert len(points) == 2
    for line in points:
        x, f1 = line.split()
        assert 0.0 <= float(f1) <= 1.0
        float(x)


# ----------------------------------------------------------------- failures


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", str(tmp_path / "absent.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[data]\nlexicon = none.txt\n", encoding="utf-8")
    assert main(["train", str(ini)]) == 2
    assert "depression_csv" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[train]\nmomentum = 0.9\n", encoding="utf-8")
    assert main(["train", str(ini)]) == 2
    assert "momentum" in capsys.readouterr().err


def test_missing_checkpoint_exits_1(tmp_path, capsys):
    code = main(["eval", str(tmp_path / "no.npz"), str(tmp_path / "no.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_2(workspace, tmp_path, capsys, monkeypatch):
    with np.load(workspace["out"] / "model.npz", allow_pickle=False) as z:
        payload = {k: z[k] for k in z.files}
    payload["meta"] = np.asarray("{not json")
    bad = tmp_path / "bad.npz"
    np.savez(bad, **payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO("w1 w2\n"))
    assert main(["predict", str(bad)]) == 2
    assert "corrupt checkpoint meta" in capsys.readouterr().err


def _not_a_checkpoint(kind, workspace, tmp_path):
    if kind == "text":
        path = tmp_path / "text.npz"
        path.write_text("not an archive\n", encoding="utf-8")
    elif kind == "npy":
        path = tmp_path / "bare.npy"
        np.save(path, np.ones(3))
    elif kind == "truncated":
        path = tmp_path / "cut.npz"
        whole = (workspace["out"] / "model.npz").read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
    else:  # an entry holding object data
        with np.load(workspace["out"] / "model.npz", allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        payload["param/embedding"] = np.array([1, "a"], dtype=object)
        path = tmp_path / "object.npz"
        np.savez(path, **payload)
    return path


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("kind", ["text", "npy", "truncated", "object"])
def test_not_a_checkpoint_exits_2(workspace, tmp_path, capsys, monkeypatch, kind, command):
    path = _not_a_checkpoint(kind, workspace, tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("w1 w2\n"))
    args = [command, str(path)]
    if command == "eval":
        args.append(str(workspace["data"] / "depression_test.csv"))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: not a checkpoint:" in err
    assert "Traceback" not in err


def test_failed_ablation_write_keeps_previous_table(workspace, tmp_path, monkeypatch):
    out = tmp_path / "abl"
    out.mkdir()
    (out / "ablation.txt").write_text("old table\n", encoding="utf-8")
    monkeypatch.setattr(cli, "run_ablation", lambda *args: None)
    # A lone surrogate cannot be encoded, so the write raises.
    monkeypatch.setattr(cli, "metrics_table", lambda rows, label: "new table\n\ud800")
    with pytest.raises(UnicodeEncodeError):
        main(["ablate", str(workspace["data"] / "config.ini"), "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["ablation.txt"]
    assert (out / "ablation.txt").read_text(encoding="utf-8") == "old table\n"


def test_non_finite_embedding_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["init", str(data), "--n-per-task", "40", "--vocab-size", "30"]) == 0
    vectors = data / "embeddings.txt"
    rows = [line.split(" ", 2) for line in vectors.read_text(encoding="utf-8").splitlines()]
    vectors.write_text("".join(f"{token} nan {rest}\n" for token, _, rest in rows),
                       encoding="utf-8")
    assert main(["train", str(data / "config.ini"), "--out", str(tmp_path / "out")]) == 1
    assert "embeddings.txt:1: non-finite value" in capsys.readouterr().err


def test_eval_reads_a_byte_order_mark(workspace, tmp_path, capsys):
    test_csv = workspace["data"] / "depression_test.csv"
    bom = tmp_path / "bom.csv"
    bom.write_text("\ufeff" + test_csv.read_text(encoding="utf-8"), encoding="utf-8")
    model = str(workspace["out"] / "model.npz")
    assert main(["eval", model, str(test_csv)]) == 0
    plain = capsys.readouterr().out
    assert main(["eval", model, str(bom)]) == 0
    assert capsys.readouterr().out == plain


def test_config_reads_a_byte_order_mark(tmp_path, capsys):
    assert main(["init", str(tmp_path), "--n-per-task", "40",
                 "--vocab-size", "30"]) == 0
    capsys.readouterr()
    plain = tmp_path / "config.ini"
    bom = tmp_path / "bom.ini"
    bom.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    assert load_run_config(str(bom)) == load_run_config(str(plain))


def test_config_that_is_not_utf8_exits_2(workspace, tmp_path, capsys):
    text = (workspace["data"] / "config.ini").read_text(encoding="utf-8")
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(("# caf\u00e9\n" + text).encode("latin-1"))
    assert main(["train", str(ini)]) == 2
    assert str(ini) in capsys.readouterr().err


def test_vocabulary_csv_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "posts.csv"
    p.write_text("\ufefftext,label\nHello world,1\n", encoding="utf-8")
    (tmp_path / "lex.txt").write_text("world\n", encoding="utf-8")
    bundle = cli.load_bundle(RunConfig(depression_csv=str(p),
                                       lexicon_path=str(tmp_path / "lex.txt")))
    assert bundle.vocab.id_to_token[2:] == ("hello", "world")
    assert bundle.depression.examples == [([2, 3], [0, 1], 1)]


def _two_pass_bundle(cfg):
    """load_bundle as it was built before the single read: one pass over the
    training CSVs to count tokens, then load_csv_dataset for each dataset."""
    corpora = [data.tokenize(row[cfg.text_column], cfg.language)
               for path in (cfg.sentiment_csv, cfg.depression_csv)
               for _, row in data.read_csv_rows(path, (cfg.text_column,))]
    vocab = data.build_vocab(corpora, cfg.min_count)
    lexicon = cli._load_lexicon(cfg)
    load = [data.load_csv_dataset(path, task, cfg.text_column, cfg.label_column,
                                  cfg.label_map, lexicon, vocab, cfg.language,
                                  cfg.model.max_seq_len)
            for path, task in ((cfg.sentiment_csv, "sentiment"),
                               (cfg.depression_csv, "depression"),
                               (cfg.depression_test_csv, "depression"))]
    return vocab, lexicon, load


@pytest.mark.parametrize("min_count", [1, 2])
def test_load_bundle_parses_each_csv_once(tmp_path, monkeypatch, min_count):
    # "late" appears only past max_seq_len = 3, twice, so it has an id at
    # min_count 2 as well; "once" appears once, past the cut as well.
    files = {"sentiment.csv": "text,label\nA b c late,1\nb c,0\nc a b once,1\n",
             "depression.csv": "text,label\nb a c late,0\nsad a,1\na,0\n",
             "test.csv": "text,label\nlate sad x,1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "lex.txt").write_text("sad\nlate\n", encoding="utf-8")
    cfg = RunConfig(sentiment_csv=str(tmp_path / "sentiment.csv"),
                    depression_csv=str(tmp_path / "depression.csv"),
                    depression_test_csv=str(tmp_path / "test.csv"),
                    lexicon_path=str(tmp_path / "lex.txt"), min_count=min_count)
    cfg.model.max_seq_len = 3
    vocab, lexicon, (sentiment, depression, test) = _two_pass_bundle(cfg)
    assert ("late" in vocab.token_to_id) and (("once" in vocab.token_to_id) == (min_count == 1))

    reads = []
    real = csv.DictReader
    monkeypatch.setattr(csv, "DictReader", lambda fh: reads.append(fh.name) or real(fh))
    bundle = cli.load_bundle(cfg)
    assert sorted(reads) == sorted(str(tmp_path / name) for name in files)
    assert bundle.vocab == vocab and bundle.lexicon == lexicon
    assert bundle.sentiment == sentiment and bundle.depression == depression
    assert bundle.depression_test == test


def test_unknown_label_in_dataset_exits_1(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("text,label\nw1 w2,maybe\n", encoding="utf-8")
    code = main(["eval", str(workspace["out"] / "model.npz"), str(bad)])
    assert code == 1
    assert "maybe" in capsys.readouterr().err


def test_bad_ratio_flag_exits_2(workspace, capsys):
    code = main(["train", str(workspace["data"] / "config.ini"),
                 "--ratio", "nonsense"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_flag_exits_2(workspace, tmp_path, capsys, value):
    code = main(["train", str(workspace["data"] / "config.ini"),
                 "--out", str(tmp_path / "run"), "--learning-rate", value])
    assert code == 2
    err = capsys.readouterr().err
    assert "learning_rate must be positive and finite" in err
    assert not (tmp_path / "run" / "model.npz").exists()


def _project_copy(workspace, tmp_path, *replacements):
    """A copy of the quick-start project, whose config names the data files
    relative to itself, with each (old, new) line replaced in its config.ini."""
    data = shutil.copytree(workspace["data"], tmp_path / "data")
    ini = data / "config.ini"
    text = ini.read_text(encoding="utf-8")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    ini.write_text(text, encoding="utf-8")
    return data, ini


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda_l2_in_config_exits_2(workspace, tmp_path, capsys, value):
    _, ini = _project_copy(workspace, tmp_path,
                           ("lambda_l2 = 0.0001\n", f"lambda_l2 = {value}\n"))
    code = main(["train", str(ini), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda_l2 must be >= 0 and finite" in err and "weight_decay" not in err


@pytest.mark.parametrize("where", ["train flag", "config key", "init flag"])
def test_negative_seed_exits_2(workspace, tmp_path, capsys, where):
    if where == "init flag":
        code = main(["init", str(tmp_path / "proj"), "--seed", "-1"])
    elif where == "train flag":
        code = main(["train", str(workspace["data"] / "config.ini"),
                     "--out", str(tmp_path / "run"), "--seed", "-1"])
    else:
        _, ini = _project_copy(workspace, tmp_path, ("seed = 3\n", "seed = -1\n"))
        code = main(["train", str(ini), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "proj").exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    argv = ["eval", str(tmp_path / "no.npz"), str(tmp_path / "no.csv")]
    assert main(argv) == 1
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 1 and main(argv) == 1
    assert built == []


def test_main_runs_the_command_replaced_after_import(monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "cmd_predict", lambda args: ran.append(args) or 7)
    assert main(["predict", "x.npz", "--task", "sentiment"]) == 7
    assert [(a.command, a.checkpoint, a.task) for a in ran] == [("predict", "x.npz", "sentiment")]


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "textmoe.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "predict" in proc.stdout


_NO_SENTIMENT = ("sentiment_csv = sentiment.csv\n", "")


def test_ratio_flag_is_validated_after_it_applies(workspace, tmp_path, capsys):
    # The file alone (ratio 1:1, no sentiment_csv) is invalid; --ratio 0:1 makes it valid.
    _, ini = _project_copy(workspace, tmp_path, _NO_SENTIMENT)
    code = main(["train", str(ini), "--ratio", "0:1", "--max-epochs", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "model.npz").exists()


def test_ratio_flag_that_needs_sentiment_exits_2(workspace, tmp_path, capsys):
    _, ini = _project_copy(workspace, tmp_path, _NO_SENTIMENT,
                           ("ratio = 1:1\n", "ratio = 0:1\n"))
    code = main(["train", str(ini), "--ratio", "1:1", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "missing [data] sentiment_csv" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.npz").exists()


@pytest.mark.parametrize("case", ["both zero", "no sentiment data"])
def test_ratio_sweep_checks_every_ratio_before_training(workspace, tmp_path, capsys,
                                                        monkeypatch, case):
    if case == "both zero":
        ini, ratios, message = workspace["data"] / "config.ini", "0:1,1:1,0:0", "not both 0"
    else:
        _, ini = _project_copy(workspace, tmp_path, _NO_SENTIMENT,
                               ("ratio = 1:1\n", "ratio = 0:1\n"))
        ratios, message = "0:1,1:1", "missing [data] sentiment_csv"
    fits = []
    monkeypatch.setattr(ablation, "fit", lambda *args: fits.append(args))
    code = main(["ratio-sweep", str(ini), "--ratios", ratios, "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not fits


def test_ratio_sweep_checks_only_the_swept_ratios(workspace, tmp_path, capsys, monkeypatch):
    # The config's own ratio (1:1, no sentiment_csv) is invalid, but the sweep
    # never trains at it: 0:1 needs no sentiment data, 1:1 still does.
    _, ini = _project_copy(workspace, tmp_path, _NO_SENTIMENT)
    out = tmp_path / "run"
    code = main(["ratio-sweep", str(ini), "--ratios", "0:1", "--max-epochs", "1",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert "0:1" in (out / "ratio_sweep.txt").read_text(encoding="utf-8")
    fits = []
    monkeypatch.setattr(ablation, "fit", lambda *args: fits.append(args))
    code = main(["ratio-sweep", str(ini), "--ratios", "1:1", "--out", str(tmp_path / "run2")])
    assert code == 2
    assert "missing [data] sentiment_csv" in capsys.readouterr().err
    assert not fits


# csv's default field size limit is 131,072 characters; a short row lacks its text.
_BAD_CSV = {
    "oversized": ("label,text\n0,w1\n1," + "w1 " * 44_000 + "\n",
                  "row 3: field larger than field limit"),
    "short_row": ("label,text\n0,w1 w2\n1\n", "row 3: no 'text' field"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_CSV))
@pytest.mark.parametrize("where", ["train_vocab", "train_test", "eval"])
def test_malformed_csv_exits_1(workspace, tmp_path, capsys, where, kind):
    # The vocabulary reads depression.csv; depression_test.csv is read only as a dataset.
    content, message = _BAD_CSV[kind]
    if where == "eval":
        bad = tmp_path / "bad.csv"
        bad.write_text(content, encoding="utf-8")
        args = ["eval", str(workspace["out"] / "model.npz"), str(bad)]
    else:
        data, ini = _project_copy(workspace, tmp_path)
        name = "depression.csv" if where == "train_vocab" else "depression_test.csv"
        bad = data / name
        bad.write_text(content, encoding="utf-8")
        args = ["train", str(ini), "--out", str(tmp_path / "run"), "--max-epochs", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: {message}" in err
    assert "Traceback" not in err
