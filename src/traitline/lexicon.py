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
from itertools import chain
from pathlib import Path

import numpy as np

from .features import (FeatureMatrix, PLACEHOLDER_TOKENS, TokenizedTweet,
                       parse_keyed_row)

logger = logging.getLogger(__name__)


class LexiconError(ValueError):
    pass


_NO_CATEGORIES: frozenset[str] = frozenset()


@dataclass
class Lexicon:
    name: str
    entries: dict[str, frozenset[str]]  # word (or prefix*) -> categories
    categories: list[str]  # fixed order

    def __post_init__(self):
        if not self.categories:
            raise LexiconError(f"lexicon {self.name}: no categories")
        # lookup index, built once from ``entries``: exact words, and the
        # prefixes of the ``prefix*`` wildcards
        self._exact = {w: c for w, c in self.entries.items()
                       if not w.endswith("*")}
        self._prefixes = {w[:-1]: c for w, c in self.entries.items()
                          if w.endswith("*")}
        self._prefix_lengths = sorted(set(map(len, self._prefixes)))

    def column_names(self) -> list[str]:
        return [f"{self.name}_{c}" for c in self.categories]

    def categories_of(self, token: str) -> frozenset[str]:
        """Categories of the exact entry for ``token`` and of every
        wildcard whose prefix starts it: one dict probe per prefix length
        that some wildcard has, however many entries the lexicon holds."""
        cats = self._exact.get(token, _NO_CATEGORIES)
        for n in self._prefix_lengths:
            if n > len(token):
                break
            hit = self._prefixes.get(token[:n])
            if hit:
                cats = cats | hit
        return cats


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
            if not category:
                raise LexiconError(f"{path.name}: line {lineno}: empty category")
            if "*" in word:
                raise LexiconError(
                    f"{path.name}: line {lineno}: {word!r}: TSV words match "
                    f"exactly, so '*' is not allowed")
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
                   categories=categories)


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
                   categories=categories)


def load_lexicon(path) -> Lexicon:
    """Load a lexicon file named by its lowercased stem: a ``.tsv`` or
    ``.txt`` file holds TSV triples, any other a category dictionary."""
    path = Path(path)
    name = path.stem.lower()
    if path.suffix.lower() in (".tsv", ".txt"):
        return _load_tsv(path, name)
    return _load_dict(path, name)


def lexicon_features(timeline: list[TokenizedTweet],
                     lexicons: list[Lexicon]) -> dict[str, float]:
    """Fraction of timeline tokens matching each lexicon category.

    URL and mention placeholders count neither as matches nor in the
    denominator. With no scoreable tokens every column is NaN.
    """
    tokens = Counter(chain.from_iterable(tweet.tokens for tweet in timeline))
    for placeholder in PLACEHOLDER_TOKENS:
        del tokens[placeholder]
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
    from .features import TimelineColumns, tokenize_timeline

    names = [col for lex in lexicons for col in lex.column_names()]
    block = np.empty((matrix.n_rows, len(names)), dtype=np.float64)
    for i, user_id in enumerate(matrix.user_ids):
        timeline = tokenize_timeline(TimelineColumns.read(corpus, user_id))
        feats = lexicon_features(timeline, lexicons)
        block[i] = [feats[c] for c in names]
    return matrix.append_columns(names, block)


def join_external_features(matrix: FeatureMatrix, path) -> FeatureMatrix:
    """Append externally computed numeric columns keyed by user_id.

    Users absent from the file, and empty cells, are missing cells; a
    non-numeric or non-finite value ("nan", "inf") fails the load. An
    empty file leaves the matrix unchanged (with a warning).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            header = []
        rows = [(reader.line_num, row) for row in reader]
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
    numeric = [i for i in range(len(header)) if i != key_idx]
    by_user: dict[str, list[float]] = {}
    seen: set[str] = set()
    for lineno, row in rows:
        values = parse_keyed_row(row, header, key_idx, numeric, seen,
                                 f"{path.name}: line {lineno}", LexiconError)
        by_user[row[key_idx]] = values
    block = np.full((matrix.n_rows, len(names)), math.nan)
    for i, user_id in enumerate(matrix.user_ids):
        if user_id in by_user:
            block[i] = by_user[user_id]
    return matrix.append_columns(names, block)
