"""Lexicon loading (word-emotion TSV and plain lists) and token marking."""

import importlib.resources

import pytest

from textmoe import (
    ConfigError,
    Lexicon,
    ParseError,
    load_nrc_lexicon,
    load_plain_lexicon,
    mark_tokens,
)
from textmoe.lexicon import EMOTION_NAMES, IN_LEXICON, NOT_IN_LEXICON

TSV = """\
abandon\tfear\t1
abandon\tnegative\t1
abandon\tjoy\t0
Cheerful\tjoy\t1
cheerful\tpositive\t1
gloomy\tsadness\t1
gloomy\tnegative\t1
outrage\tanger\t1
outrage\tsurprise\t1
table\tdisgust\t0
"""


@pytest.fixture
def tsv_path(tmp_path):
    p = tmp_path / "emotions.tsv"
    p.write_text(TSV, encoding="utf-8")
    return str(p)


def test_default_emotions_filter(tsv_path):
    lex = load_nrc_lexicon(tsv_path)
    assert lex.terms == frozenset({"abandon", "gloomy", "outrage"})
    assert "table" not in lex.terms
    assert len(lex.terms) == 3


def test_selected_emotions(tsv_path):
    lex = load_nrc_lexicon(tsv_path, selected_emotions={"joy"})
    assert lex.terms == frozenset({"cheerful"})  # lowercased


def test_flag_zero_rows_are_skipped(tsv_path):
    lex = load_nrc_lexicon(tsv_path, selected_emotions={"disgust"})
    assert len(lex.terms) == 0


def test_unknown_emotion_rejected(tsv_path):
    with pytest.raises(ConfigError, match="melancholy"):
        load_nrc_lexicon(tsv_path, selected_emotions={"melancholy"})


def test_malformed_line_reports_position(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("ok\tfear\t1\nbroken line without tabs\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":2:"):
        load_nrc_lexicon(str(p))


def test_bad_flag_reports_position(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("word\tfear\t2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":1:.*flag"):
        load_nrc_lexicon(str(p))


def test_plain_format(tmp_path):
    p = tmp_path / "terms.txt"
    p.write_text("# comment\n\nSad\nlonely\n  hopeless  \n", encoding="utf-8")
    lex = load_plain_lexicon(str(p))
    assert lex.terms == frozenset({"sad", "lonely", "hopeless"})


def test_plain_format_chinese_keeps_case(tmp_path):
    p = tmp_path / "terms.txt"
    p.write_text("Sad\n", encoding="utf-8")
    lex = load_plain_lexicon(str(p), language="chinese")
    assert lex.terms == frozenset({"Sad"})


def test_nrc_format_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "emotions.tsv"
    p.write_text("\ufeff" + TSV, encoding="utf-8")
    assert load_nrc_lexicon(str(p)).terms == frozenset({"abandon", "gloomy", "outrage"})


def test_plain_format_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "terms.txt"
    p.write_text("\ufeff# comment\nSad\n", encoding="utf-8")
    assert load_plain_lexicon(str(p)).terms == frozenset({"sad"})


def test_mark_tokens_alignment():
    lex = Lexicon(frozenset({"sad", "alone"}))
    bits = mark_tokens(lex, ["i", "feel", "sad", "and", "alone"])
    assert bits == [NOT_IN_LEXICON, NOT_IN_LEXICON, IN_LEXICON,
                    NOT_IN_LEXICON, IN_LEXICON]
    assert mark_tokens(lex, []) == []


def test_emotion_name_inventory():
    assert len(EMOTION_NAMES) == 10
    assert {"sadness", "joy", "negative", "positive"} <= EMOTION_NAMES


def test_bundled_assets_load():
    root = importlib.resources.files("textmoe") / "assets"
    plain = load_plain_lexicon(str(root / "english_lexicon.txt"))
    assert len(plain.terms) > 20
    assert all(t == t.lower() for t in plain.terms)
    nrc = load_nrc_lexicon(str(root / "nrc_sample.tsv"))
    assert len(nrc.terms) > 0
