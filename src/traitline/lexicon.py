"""Word-association lexicons and per-user category rate features.

Two on-disk formats are supported: tab-separated triples
``word<TAB>category<TAB>flag`` (association flag 0/1), and category
dictionaries ``category: word1 word2* ...`` where a trailing ``*`` marks a
prefix wildcard. Scores are per-timeline token rates, so users with
different activity volumes stay comparable.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import (FeatureMatrix, PLACEHOLDER_TOKENS, TokenizedTweet)

logger = logging.getLogger(__name__)


class LexiconError(ValueError):
    pass


@dataclass
class Lexicon:
    name: str
    entries: dict[str, frozenset[str]]  # word (or prefix*) -> categories
    categories: list[str]  # fixed order
    match_mode: str  # "exact" | "prefix-wildcard"

    def __post_init__(self):
        if not self.categories:
            raise LexiconError(f"lexicon {self.name}: no categories")
        if self.match_mode not in ("exact", "prefix-wildcard"):
            raise LexiconError(f"unknown match mode {self.match_mode!r}")
        if self.match_mode == "exact":
            bad = [w for w in self.entries if w.endswith("*")]
            if bad:
                raise LexiconError(
                    f"lexicon {self.name}: wildcard entry {bad[0]!r} in exact mode")
        # lookup index, built once from ``entries``: exact words, and the
        # prefixes of the ``prefix*`` wildcards
        self._exact = {w: c for w, c in self.entries.items()
                       if not w.endswith("*")}
        self._prefixes = {w[:-1]: c for w, c in self.entries.items()
                          if w.endswith("*")}
        self._longest_prefix = max(map(len, self._prefixes), default=-1)

    def column_names(self) -> list[str]:
        return [f"{self.name}_{c}" for c in self.categories]

    def categories_of(self, token: str) -> frozenset[str]:
        """Categories of the exact entry for ``token`` and of every
        wildcard whose prefix starts it: one dict probe per prefix length,
        however many entries the lexicon holds."""
        exact = self._exact.get(token, frozenset())
        if not self._prefixes:
            return exact
        cats = set(exact)
        for i in range(min(len(token), self._longest_prefix) + 1):
            hit = self._prefixes.get(token[:i])
            if hit:
                cats |= hit
        return frozenset(cats)


def _load_tsv(path: Path, name: str) -> Lexicon:
    entries: dict[str, set[str]] = {}
    categories: list[str] = []
    seen_flags: dict[tuple[str, str], str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise LexiconError(
                    f"{path.name}: line {lineno}: expected word<TAB>category<TAB>flag")
            word, category, flag = (p.strip().lower() for p in parts)
            if flag not in ("0", "1"):
                raise LexiconError(
                    f"{path.name}: line {lineno}: flag must be 0 or 1")
            key = (word, category)
            if key in seen_flags and seen_flags[key] != flag:
                raise LexiconError(
                    f"{path.name}: line {lineno}: contradictory flags for "
                    f"({word}, {category})")
            seen_flags[key] = flag
            if category not in categories:
                categories.append(category)
            if flag == "1":
                entries.setdefault(word, set()).add(category)
    return Lexicon(name=name,
                   entries={w: frozenset(c) for w, c in entries.items()},
                   categories=categories, match_mode="exact")


def _load_dict(path: Path, name: str) -> Lexicon:
    entries: dict[str, set[str]] = {}
    categories: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise LexiconError(
                    f"{path.name}: line {lineno}: expected 'category: words'")
            category, _, words = line.partition(":")
            category = category.strip().lower()
            if not category:
                raise LexiconError(f"{path.name}: line {lineno}: empty category")
            if category not in categories:
                categories.append(category)
            for word in words.split():
                if word == "*":
                    raise LexiconError(
                        f"{path.name}: line {lineno}: bare '*' would match "
                        f"every token")
                if "*" in word[:-1]:
                    raise LexiconError(
                        f"{path.name}: line {lineno}: {word!r}: '*' is only "
                        f"allowed at the end of a word")
                entries.setdefault(word.lower(), set()).add(category)
    return Lexicon(name=name,
                   entries={w: frozenset(c) for w, c in entries.items()},
                   categories=categories, match_mode="prefix-wildcard")


def load_lexicon(path, format: str | None = None,
                 name: str | None = None) -> Lexicon:
    """Load a lexicon file; format "tsv" or "dict" (inferred from suffix)."""
    path = Path(path)
    if format is None:
        format = "tsv" if path.suffix.lower() in (".tsv", ".txt") else "dict"
    if name is None:
        name = path.stem.lower()
    if format == "tsv":
        return _load_tsv(path, name)
    if format == "dict":
        return _load_dict(path, name)
    raise LexiconError(f"unknown lexicon format {format!r}")


def lexicon_features(timeline: list[TokenizedTweet],
                     lexicons: list[Lexicon]) -> dict[str, float]:
    """Fraction of timeline tokens matching each lexicon category.

    URL and mention placeholders count neither as matches nor in the
    denominator. With no scoreable tokens every column is NaN.
    """
    tokens = Counter(tok for tweet in timeline for tok in tweet.tokens
                     if tok not in PLACEHOLDER_TOKENS)
    out: dict[str, float] = {}
    if not tokens:
        for lex in lexicons:
            for col in lex.column_names():
                out[col] = math.nan
        return out
    total = sum(tokens.values())
    for lex in lexicons:
        # integer counts, so each rate is the same double as a per-token tally
        counts = dict.fromkeys(lex.categories, 0)
        for token, n in tokens.items():
            for category in lex.categories_of(token):
                counts[category] += n
        for category in lex.categories:
            out[f"{lex.name}_{category}"] = counts[category] / total
    return out


def add_lexicon_features(matrix: FeatureMatrix, corpus,
                         lexicons: list[Lexicon]) -> FeatureMatrix:
    """Append lexicon rate columns for every row of a behavioral matrix."""
    from .features import tokenize_timeline

    names = [col for lex in lexicons for col in lex.column_names()]
    block = np.empty((matrix.n_rows, len(names)), dtype=np.float64)
    for i, user_id in enumerate(matrix.user_ids):
        feats = lexicon_features(tokenize_timeline(corpus.timeline(user_id)),
                                 lexicons)
        block[i] = [feats[c] for c in names]
    return matrix.append_columns(names, block)


def join_external_features(matrix: FeatureMatrix, path) -> FeatureMatrix:
    """Append externally computed numeric columns keyed by user_id.

    Users absent from the file get missing cells; an empty file leaves the
    matrix unchanged (with a warning).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            header = []
        rows = list(reader)
    if not header or (header == ["user_id"] and not rows):
        logger.warning("external feature file %s is empty; matrix unchanged",
                       path.name)
        return matrix
    if "user_id" not in header:
        raise LexiconError(f"{path.name}: missing user_id column")
    key_idx = header.index("user_id")
    names = [h for i, h in enumerate(header) if i != key_idx]
    if not names:
        logger.warning("external feature file %s has no feature columns",
                       path.name)
        return matrix
    by_user: dict[str, list[float]] = {}
    for row in rows:
        vals = [float(v) if v != "" else math.nan
                for i, v in enumerate(row) if i != key_idx]
        by_user[row[key_idx]] = vals
    block = np.full((matrix.n_rows, len(names)), math.nan)
    for i, user_id in enumerate(matrix.user_ids):
        if user_id in by_user:
            block[i] = by_user[user_id]
    return matrix.append_columns(names, block)
