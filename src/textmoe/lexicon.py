"""Sentiment lexicon loading and token marking.

Two on-disk formats are supported: the word-emotion association TSV
(``word<TAB>emotion<TAB>flag`` per line) filtered down to a configurable
set of negative emotions, and a plain one-term-per-line list with ``#``
comments. Either way the result is an immutable set of terms used to mark
tokens as in/out of the lexicon. The loaders' ``language`` only decides
whether terms are lowercased (english); the run's language is kept by the
run config and the checkpoint, not by the lexicon.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ConfigError, ParseError

IN_LEXICON = 1
NOT_IN_LEXICON = 0

EMOTION_NAMES = frozenset({
    "anger", "anticipation", "disgust", "fear", "joy",
    "negative", "positive", "sadness", "surprise", "trust",
})

# Emotions whose words count as depression-relevant markers by default.
DEFAULT_MARKER_EMOTIONS = frozenset({"sadness", "fear", "disgust", "anger", "negative"})


@dataclass(frozen=True)
class Lexicon:
    terms: frozenset[str]


def load_nrc_lexicon(path: str, selected_emotions: Iterable[str] = DEFAULT_MARKER_EMOTIONS,
                     language: str = "english") -> Lexicon:
    """Read a word-emotion TSV, keeping words flagged 1 for a selected emotion."""
    selected = set(selected_emotions)
    unknown = selected - EMOTION_NAMES
    if unknown:
        raise ConfigError(f"unknown emotion name(s): {sorted(unknown)}")
    terms: set[str] = set()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected word<TAB>emotion<TAB>flag")
            word, emotion, flag = fields
            if flag not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: flag must be 0 or 1, got {flag!r}")
            if flag == "1" and emotion in selected:
                terms.add(word.lower() if language == "english" else word)
    return Lexicon(frozenset(terms))


def load_plain_lexicon(path: str, language: str = "english") -> Lexicon:
    """Read a one-term-per-line UTF-8 list; blank lines and # comments skipped."""
    terms: set[str] = set()
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            term = line.strip()
            if not term or term.startswith("#"):
                continue
            terms.add(term.lower() if language == "english" else term)
    return Lexicon(frozenset(terms))


def mark_tokens(lexicon: Lexicon, tokens: list[str]) -> list[int]:
    """Per-token membership bits, aligned with the input order."""
    return [IN_LEXICON if t in lexicon.terms else NOT_IN_LEXICON for t in tokens]
