"""Archived-corpus ingestion: users, timelines, likes, follows and seed list.

All inputs are JSON Lines (one object per line) except seeds.json, which is
an ordered JSON array of account ids. Fields are never coerced: an id is a
JSON string or integer (never a boolean) and is held as a string, and a
field of the wrong JSON type fails the load. Timestamps are ISO-8601 on
disk and normalized to UTC epoch seconds on load. Timelines are sorted
ascending by timestamp with tweet_id as the tie-break so downstream
consecutive-pair features are deterministic.

Users, likes and follows are held as read-only named tuples, and every
repeated string (ids, kinds, languages, hashtags, urls and mentions) once,
through ``sys.intern``. Tweets are held as one columnar ``TweetTable``;
``TweetTable.column`` decodes one field of a user's tweets, and
``Corpus.timeline`` builds a user's ``TweetRecord``s from it on demand.

A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in text mode. Each
line is decoded by the C scanner behind ``json.loads``, which must
consume the whole line; a line it rejects goes to ``json.loads`` for the
error message. Each parser then checks its record in one pass: every
field's type where it is read, in a fixed order, and then the record's
invariants (a known tweet kind; user counts ``>= 0`` and ``created_at``
no later than ``snapshot_at``), so the first bad field names the error.
``tweets.jsonl`` is parsed in byte ranges of whole lines, one per worker,
each tweet's fields going straight into its range's columns, and the
ranges are merged into the table. Repeated tweet ids are found by one
check on the merged id column. Every error reads as the one-range load
reports it.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, time, timezone
from functools import lru_cache, partial
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

TWEET_KINDS = ("original", "retweet", "reply", "quote")
_ID = (str, int)  # JSON types of an id, matched exactly: a bool is no int
_STR = {str}


class CorpusError(ValueError):
    """Raised for malformed or inconsistent input files."""


# epochs of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the datetime range
MIN_EPOCH, MAX_EPOCH = -62135596800, 253402300799


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@lru_cache(maxsize=1 << 12)
def _epoch_day(text: str) -> int | None:
    """Days from 1970-01-01 to ``text``, an ASCII ``YYYY-MM-DD``; None if
    it is no such date."""
    if text[4] != "-" or text[7] != "-":  # not a week date such as 2020-W01-1
        return None
    try:
        return date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None


def parse_timestamp(value) -> int:
    """ISO-8601 string (or integral epoch number) -> UTC epoch seconds.

    Booleans, fractional seconds (as a number or in the string; an
    all-zero fraction such as ``.000`` is whole) and non-finite numbers are
    rejected rather than truncated, and so is any instant outside years 1
    to 9999 UTC.

    ``YYYY-MM-DDTHH:MM:SSZ`` in ASCII, the form ``save_corpus`` writes, is
    read from a table of dates and the time of day; any other input, valid
    or not, takes the general path.
    """
    if (type(value) is str and len(value) == 20 and value[19] == "Z"
            and value[10] == "T" and value[13] == value[16] == ":"
            and value.isascii()):
        day = _epoch_day(value[:10])
        if day is not None:
            try:
                t = time.fromisoformat(value[11:19])
            except ValueError:
                pass
            else:
                return day * 86400 + t.hour * 3600 + t.minute * 60 + t.second
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and not value.is_integer():  # nan, inf
            raise CorpusError(f"bad timestamp {value!r}: not a whole second")
        if not MIN_EPOCH <= value <= MAX_EPOCH:
            raise CorpusError(f"bad timestamp {value!r}: out of range")
        return int(value)
    if not isinstance(value, str):
        raise CorpusError(f"bad timestamp {value!r}")
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        epoch = dt.astimezone(timezone.utc).timestamp()
    except (ValueError, OverflowError) as exc:  # an offset past year 1 or 9999
        raise CorpusError(f"bad timestamp {value!r}: {exc}") from None
    if dt.microsecond:
        raise CorpusError(f"bad timestamp {value!r}: not a whole second")
    return int(epoch)


def format_timestamp(epoch: int) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ``, the year zero-padded to four digits."""
    dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return dt.isoformat()[:19] + "Z"


class UserRecord(NamedTuple):
    user_id: str
    created_at: int
    followers_count: int
    following_count: int
    tweet_count: int
    listed_count: int
    verified: bool
    has_default_pic: bool
    bio: str | None
    predominant_language: str | None
    snapshot_at: int


class TweetRecord(NamedTuple):
    tweet_id: str
    author_id: str
    created_at: int
    kind: str
    text: str
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    mentions: tuple[str, ...]
    retweeted_author: str | None = None
    lang: str | None = None


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")  # JSON allows lone surrogates


class TweetTable:
    """Every tweet of a corpus as columns, one row per tweet.

    Rows are grouped by author, each author's rows in timeline order
    (``created_at``, then ``tweet_id``), and the authors are in order of
    first appearance. The author column is held by run: ``authors[i]``
    wrote rows ``bounds[i]`` to ``bounds[i + 1]``. ``created_at`` is an
    int64 column. ``kind``, ``lang`` and ``retweeted`` are codes into
    ``strings``, the table's pool of interned strings, with -1 for None.
    The ragged columns are pairs ``(values, offsets)``, row r being
    ``values[offsets[r]:offsets[r + 1]]``: ``tweet_id`` and ``text`` hold
    UTF-8 bytes, ``hashtags``, ``urls`` and ``mentions`` pool codes.

    ``from_records`` is the one constructor; the loader builds the same
    table from its byte ranges.
    """

    def __init__(self, authors, bounds, strings, created_at, kind, lang,
                 retweeted, tweet_id, text, hashtags, urls, mentions):
        self.authors: list[str] = authors
        self.bounds: array = bounds
        self.strings: list[str] = strings
        self.created_at: array = created_at
        self.kind: array = kind
        self.lang: array = lang
        self.retweeted: array = retweeted
        self.tweet_id: tuple[bytearray, array] = tweet_id
        self.text: tuple[bytearray, array] = text
        self.hashtags: tuple[array, array] = hashtags
        self.urls: tuple[array, array] = urls
        self.mentions: tuple[array, array] = mentions
        self.position = {author: i for i, author in enumerate(authors)}
        self._lookup = strings + [None]  # code -> string, and -1 -> None

    @classmethod
    def from_records(cls, records) -> "TweetTable":
        """The table of ``records``, grouped and ordered as above."""
        rows = _Rows()
        append = rows.appender()
        for record in records:
            append(record)
        return _table([rows])

    def __len__(self) -> int:
        return self.bounds[-1]

    def __repr__(self) -> str:
        return (f"<TweetTable: {len(self)} tweets by {len(self.authors)} "
                f"authors>")

    def __eq__(self, other) -> bool:
        """Equal timelines, whatever the order of authors and pools."""
        if not isinstance(other, TweetTable):
            return NotImplemented
        return (len(self) == len(other)
                and self.position.keys() == other.position.keys()
                and all(self.timeline(a) == other.timeline(a)
                        for a in self.authors))

    def rows(self, author: str) -> range:
        """The rows of the author's timeline; empty for an unknown author."""
        i = self.position.get(author)
        return range(0) if i is None else range(self.bounds[i],
                                                self.bounds[i + 1])

    def tweet_ids(self, rows) -> list[str]:
        blob, at = self.tweet_id
        return [_unicode(blob[at[r]:at[r + 1]]) for r in rows]

    def _strings(self, column, lo: int, hi: int) -> list[str]:
        """Rows ``lo:hi`` of a UTF-8 column, decoded at once."""
        blob, at = column
        base = at[lo]
        segment = blob[base:at[hi]]
        text = _unicode(segment)
        cut = at[lo:hi + 1]
        pairs = zip(cut, islice(cut, 1, None))
        if len(text) == len(segment):  # ASCII: a byte is a character
            return [text[a - base:b - base] for a, b in pairs]
        return [_unicode(segment[a - base:b - base]) for a, b in pairs]

    def _lists(self, column, lo: int, hi: int) -> list[tuple[str, ...]]:
        """Rows ``lo:hi`` of a column of string lists."""
        codes, at = column
        base = at[lo]
        names = list(map(self._lookup.__getitem__, codes[base:at[hi]]))
        cut = at[lo:hi + 1]
        return [tuple(names[a - base:b - base]) if a != b else ()
                for a, b in zip(cut, islice(cut, 1, None))]

    def column(self, author: str, field: str) -> list:
        """One ``TweetRecord`` field of the author's tweets, in timeline
        order; only that column is decoded."""
        rows = self.rows(author)
        if not rows:
            return []
        lo, hi = rows.start, rows.stop
        if field in ("tweet_id", "text"):
            return self._strings(getattr(self, field), lo, hi)
        if field in ("hashtags", "urls", "mentions"):
            return self._lists(getattr(self, field), lo, hi)
        if field == "created_at":
            return self.created_at[lo:hi].tolist()
        if field == "author_id":
            return [self.authors[self.position[author]]] * len(rows)
        codes = self.retweeted if field == "retweeted_author" else getattr(
            self, field)
        return list(map(self._lookup.__getitem__, codes[lo:hi]))

    def timeline(self, author: str) -> list[TweetRecord]:
        """The author's tweets as fresh records, in timeline order."""
        new = tuple.__new__
        return [new(TweetRecord, fields) for fields in zip(
            *(self.column(author, field) for field in TweetRecord._fields))]


class _Pool(dict):
    """String -> code, each new string taking the next code; None is -1."""

    def __init__(self):
        super().__init__({None: -1})

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self) - 1
        return code


# The column pieces of a part of a table, with their array typecodes ("B":
# a bytearray of UTF-8). A ragged column's "_len" piece holds each row's
# count of bytes or codes.
_PIECES = {"author": "i", "created_at": "q", "kind": "i", "lang": "i",
           "retweeted": "i", "tweet_id": "B", "tweet_id_len": "i",
           "text": "B", "text_len": "i", "hashtags": "i", "hashtags_len": "i",
           "urls": "i", "urls_len": "i", "mentions": "i", "mentions_len": "i"}
_RAGGED = ("tweet_id", "text", "hashtags", "urls", "mentions")
_CODED = ("author", "kind", "lang", "retweeted", "hashtags", "urls",
          "mentions")


def _allocate(typecode: str, n: int):
    """A zeroed column of ``n`` items, allocated at its final size."""
    return bytearray(n) if typecode == "B" else array(typecode, [0]) * n


class _Rows:
    """Tweets in file order as the column pieces of a table (``_PIECES``):
    what one byte range of ``tweets.jsonl`` parses to. ``author`` holds a
    code per row, and ``pool`` codes the strings in order of first use.

    ``_table`` reads a part's ``pool``, its length, and each piece through
    ``load(key)`` and ``drop(key)``; a ``_Spill`` also has ``count(key)``
    and ``read_into(key, view)``.
    """

    def __init__(self):
        self.pool = _Pool()
        for key, typecode in _PIECES.items():
            setattr(self, key, _allocate(typecode, 0))

    def __len__(self) -> int:
        return len(self.created_at)

    def appender(self):
        """A function that appends one tweet's fields, given in
        ``TweetRecord`` order, to the pieces."""
        code = self.pool.__getitem__
        author, created_at, kind, lang, retweeted = (
            getattr(self, key).append
            for key in ("author", "created_at", "kind", "lang", "retweeted"))
        ((ids, ids_len), (texts, texts_len), (hashtags, hashtags_len),
         (urls, urls_len), (mentions, mentions_len)) = (
            (getattr(self, key).extend, getattr(self, key + "_len").append)
            for key in _RAGGED)

        def append(tweet) -> None:
            (tweet_id, author_id, stamp, kind_, text, tags, links, names,
             retweeted_author, lang_) = tweet
            author(code(author_id))
            created_at(stamp)
            kind(code(kind_))
            lang(code(lang_))
            retweeted(code(retweeted_author))
            data = _utf8(tweet_id)
            ids(data)
            ids_len(len(data))
            data = _utf8(text)
            texts(data)
            texts_len(len(data))
            if tags:
                hashtags(map(code, tags))
            hashtags_len(len(tags))
            if links:
                urls(map(code, links))
            urls_len(len(links))
            if names:
                mentions(map(code, names))
            mentions_len(len(names))
        return append

    def load(self, key: str):
        return getattr(self, key)

    def drop(self, key: str) -> None:
        setattr(self, key, None)


class _Spill:
    """A parsed range, written to a file by the worker that parsed it.

    Only the pool, the row count and the layout of the file cross between
    processes. The parent reads each piece back straight into the table's
    column, so it holds no second copy of the rows.
    """

    def __init__(self, rows: _Rows, directory: str):
        self.pool, self.size, self.layout = rows.pool, len(rows), {}
        with tempfile.NamedTemporaryFile(dir=directory, delete=False) as fh:
            self.path = fh.name
            for key in _PIECES:
                piece = rows.load(key)
                self.layout[key] = (fh.tell(), len(piece))
                fh.write(piece)
                rows.drop(key)

    def __len__(self) -> int:
        return self.size

    def count(self, key: str) -> int:
        return self.layout[key][1]

    def load(self, key: str):
        out = _allocate(_PIECES[key], self.count(key))
        self.read_into(key, memoryview(out))
        return out

    def read_into(self, key: str, view: memoryview) -> None:
        view = view.cast("B")
        with open(self.path, "rb", buffering=0) as fh:
            fh.seek(self.layout[key][0])
            while view:
                got = fh.readinto(view)
                if not got:
                    raise CorpusError(f"{self.path}: cut short")
                view = view[got:]

    def drop(self, key: str) -> None:
        pass


def _part_ids(part):
    """A part's tweet ids, as UTF-8 ``bytes``, in file order."""
    blob = bytes(part.load("tweet_id"))
    lengths = part.load("tweet_id_len")
    return map(blob.__getitem__, map(slice, accumulate(lengths, initial=0),
                                     accumulate(lengths)))


def _ids_of(parts, rows) -> dict[int, bytes]:
    """The tweet ids of ``rows``, numbered from 0 across the parts in
    order; no other row's id is kept."""
    rows = set(rows)
    return {row: i for row, i in enumerate(chain.from_iterable(
        map(_part_ids, parts))) if row in rows}


# a tweet id's UTF-8 -> an int64; ``hash`` is salted per process, which the
# duplicate check does not depend on
_id_hash = hash


def _first_repeat(parts) -> tuple[int, bytes] | None:
    """The first row of the parts, in file order, whose tweet id an
    earlier row has, with that id; None if no id repeats.

    Rows are sorted stably by a hash of their id, and only rows whose hash
    another row has are compared, byte for byte, so the result does not
    depend on the hash.
    """
    import numpy as np

    hashes = np.fromiter(
        map(_id_hash, chain.from_iterable(map(_part_ids, parts))), np.int64,
        sum(map(len, parts)))
    order = np.argsort(hashes, kind="stable")
    hashes = hashes[order]
    same = np.flatnonzero(hashes[1:] == hashes[:-1])
    if not same.size:
        return None
    ids = _ids_of(parts, chain(order[same].tolist(),
                               order[same + 1].tolist()))
    seen = set()
    for row in sorted(ids):  # every row whose id repeats is here
        if ids[row] in seen:
            return row, ids[row]
        seen.add(ids[row])
    return None


def _table(parts) -> TweetTable:
    """One table of the parts' rows, taken in the parts' order: one
    ``_Rows``, or the ``_Spill``s of several ranges.

    Each column is built from the parts, which then drop it, so that two
    copies of the table never coexist. Rows already in table order are
    laid end to end; others are gathered by their order, with numpy index
    arithmetic.
    """
    import numpy as np  # here, so that writing a corpus needs no numpy

    # one pool: the parts' strings in order, each new one appended; a
    # part's codes are remapped unless its strings lead the pool in order
    pool: dict[str, int] = {}
    remaps = []
    for part in parts:
        remap = [pool.setdefault(sys.intern(s), len(pool))
                 for s in part.pool if s is not None]
        identity = remap == list(range(len(remap)))
        # code -1 (None) indexes the last entry, so it stays -1
        remaps.append(None if identity else np.array(remap + [-1], np.int32))
        part.pool = None

    def joined(key: str):
        """The parts' pieces end to end, codes remapped."""
        if len(parts) == 1:
            return parts[0].load(key)
        out = _allocate(_PIECES[key], sum(part.count(key) for part in parts))
        view, at = memoryview(out), 0
        for p, part in enumerate(parts):
            n = part.count(key)
            part.read_into(key, view[at:at + n])
            if key in _CODED and remaps[p] is not None:
                codes = np.asarray(view[at:at + n])
                codes[:] = remaps[p][codes]
            at += n
        view.release()
        return out

    # the rows in table order: grouped by author, authors in order of
    # first appearance, each timeline by (created_at, tweet_id)
    author = np.frombuffer(joined("author"), np.int32)
    for part in parts:
        part.drop("author")
    codes, first = np.unique(author, return_index=True)
    by_first = codes[np.argsort(first)]
    rank = np.empty(len(pool), np.int64)
    rank[by_first] = np.arange(len(by_first))
    row_rank = rank[author]
    del author
    stamps = np.frombuffer(joined("created_at"), np.int64)
    order = np.lexsort((stamps, row_rank))  # stable: ties keep file order
    ranks, times = row_rank[order], stamps[order]
    ties = np.flatnonzero((ranks[1:] == ranks[:-1]) & (times[1:] == times[:-1]))
    if ties.size:  # an author's tweets of one second, by tweet_id
        cuts = np.flatnonzero(np.diff(ties) != 1) + 1
        runs = [slice(int(run[0]), int(run[-1]) + 2)
                for run in np.split(ties, cuts)]
        ids = {row: _unicode(i) for row, i in _ids_of(
            parts, chain.from_iterable(order[run].tolist() for run in runs)
        ).items()}
        for run in runs:
            order[run] = sorted(order[run].tolist(), key=ids.__getitem__)
        del ids
    bounds = array("q", [0])
    bounds.extend(np.cumsum(np.bincount(row_rank, minlength=len(by_first)))
                  .tolist())
    del row_rank, stamps, ranks, times
    in_order = bool((order == np.arange(len(order))).all())

    columns = {}
    for key in ("created_at", "kind", "lang", "retweeted"):
        column = joined(key)
        if not in_order:
            column = array(column.typecode,
                           np.frombuffer(column, column.typecode)[order]
                           .tobytes())
        columns[key] = column
        for part in parts:
            part.drop(key)
    for key in _RAGGED:
        values, lengths = joined(key), joined(key + "_len")
        if not in_order:
            size = np.frombuffer(lengths, np.int32)
            at = np.concatenate(([0], np.cumsum(size)))
            starts, size = at[:-1][order], size[order]
            if key in ("tweet_id", "text"):
                values = bytearray().join(map(values.__getitem__, map(
                    slice, starts.tolist(), (starts + size).tolist())))
            else:
                # each code's source: its row's start, plus its place in
                # the row (its place in the output, less the row's)
                place = np.concatenate(([0], np.cumsum(size)))
                source = (np.repeat(starts - place[:-1], size)
                          + np.arange(place[-1]))
                values = array("i", np.frombuffer(values, np.int32)[source]
                               .tobytes())
            lengths = size.tolist()
        columns[key] = (values, array("q", accumulate(lengths, initial=0)))
        for part in parts:
            part.drop(key)
            part.drop(key + "_len")
    strings = list(pool)
    return TweetTable([strings[code] for code in by_first.tolist()], bounds,
                      strings, **columns)


def _unicode(data: bytes) -> str:
    return str(data, "utf-8", "surrogatepass")


@dataclass
class Corpus:
    users: dict[str, UserRecord]
    tweets: TweetTable
    likes: list[tuple[str, str, str]]  # (user_id, seed_id, liked_tweet_id)
    follows: list[tuple[str, str]]  # (follower_id, followee_id)
    seeds: list[str]

    def timeline(self, user_id: str) -> list[TweetRecord]:
        return self.tweets.timeline(user_id)

    def predominant_language(self, user_id: str) -> str | None:
        """Per-user language field, falling back to the modal tweet language."""
        user = self.users.get(user_id)
        if user is not None and user.predominant_language:
            return user.predominant_language
        rows = self.tweets.rows(user_id)
        strings = self.tweets.strings
        langs = {strings[code]: n for code, n in
                 Counter(self.tweets.lang[rows.start:rows.stop]).items()
                 if code >= 0 and strings[code]}
        if not langs:
            return None
        # ties broken by tag so the fallback is deterministic
        return min(langs.items(), key=lambda kv: (-kv[1], kv[0]))[0]


@dataclass(frozen=True)
class CorpusPaths:
    users: Path
    tweets: Path
    likes: Path
    follows: Path
    seeds: Path

    @classmethod
    def in_dir(cls, directory) -> "CorpusPaths":
        d = Path(directory)
        return cls(users=d / "users.jsonl", tweets=d / "tweets.jsonl",
                   likes=d / "likes.jsonl", follows=d / "follows.jsonl",
                   seeds=d / "seeds.json")


_scan_once = json.JSONDecoder().scan_once  # the C scanner behind json.loads


def _decode(line: str):
    """``json.loads(line)`` for a line without surrounding whitespace.

    The scanner decodes the one value at the start of the line; it is the
    whole line exactly when ``json.loads`` accepts the line. Otherwise (no
    value, text after it, a leading BOM) ``json.loads`` is called only for
    its error message.
    """
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}") from None


_BLOCK = 1 << 16  # bytes read at a time


def _lines(path: Path, start: int = 0, end: int | None = None):
    """The lines of bytes ``start`` to ``end`` of ``path``, each with its
    line break: a line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in
    text mode, and at nothing else (``bytes.splitlines`` breaks there
    alone, unlike ``str.splitlines``)."""
    pending: list[bytes] = []  # the pieces of a line not known to be whole
    with open(path, "rb") as fh:
        fh.seek(start)
        pos = start
        while chunk := fh.read(_BLOCK if end is None
                               else min(_BLOCK, end - pos)):
            pos += len(chunk)
            last = pending[-1] if pending else b""
            if last.endswith(b"\n") or (last.endswith(b"\r")
                                        and not chunk.startswith(b"\n")):
                yield b"".join(pending)
                pending = []
            lines = chunk.splitlines(keepends=True)
            if pending and len(lines) > 1:
                lines[0] = b"".join(pending) + lines[0]
                pending = []
            pending.append(lines.pop())
            yield from lines
    if pending:
        yield b"".join(pending)


_LINE_END = re.compile(rb"\n|\r(?!\n)")


def _line_start(fh, pos: int) -> int:
    """The first position at or after ``pos`` where a line starts (or the
    end of the file)."""
    if pos <= 0:
        return 0
    fh.seek(pos - 1)
    data = b""
    while True:
        more = fh.read(1 << 16)
        data += more
        found = _LINE_END.search(data)
        # a "\r" at the end of what was read may be the start of "\r\n"
        if found and (found.end() < len(data) or found.group() == b"\n"
                      or not more):
            return pos - 1 + found.end()
        if not more:
            return pos - 1 + len(data)


def _spans(path: Path, cuts) -> list[tuple[int, int]]:
    """Byte ranges of whole lines covering ``path``: the file cut at each of
    ``cuts``, moved forward to the next line start; no range is empty."""
    size = path.stat().st_size
    with open(path, "rb") as fh:
        starts = sorted({0, size, *(_line_start(fh, cut) for cut in cuts)})
    return list(zip(starts, starts[1:])) or [(0, 0)]


def _scan(path: Path, span: tuple[int, int | None], parse, unique,
          status: list):
    """``parse(obj)`` for each object line of the span of ``path``; with
    ``unique``, that attribute of the records may not repeat.

    At the end ``status`` holds the span's line count and its first error
    as ``(line, message)``, or None; lines are numbered from the span's
    start, and parsing stops at the error.
    """
    seen: set[str] = set()
    lineno, error = 0, None
    for lineno, raw in enumerate(_lines(path, *span), start=1):
        try:
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusError(f"not UTF-8: {exc.reason}") from None
            if not line:
                continue
            obj = _decode(line)
            if type(obj) is not dict:
                raise CorpusError("non-object")
            record = parse(obj)
            if unique is not None:
                key = getattr(record, unique)
                if key in seen:
                    raise CorpusError(f"duplicate {unique} {key}")
                seen.add(key)
        except CorpusError as exc:
            error = (lineno, str(exc))
            break
        yield record
    status[:] = [lineno, error]


def _iter_jsonl(path: Path, parse, unique: str | None = None) -> list:
    """``parse(obj)`` for each object line of ``path``; with ``unique``,
    that attribute of the records may not repeat.

    Every error is reported as ``file: line N: ...``.
    """
    status: list = []
    records = list(_scan(path, (0, None), parse, unique, status))
    _, error = status
    if error is not None:
        raise CorpusError(f"{path.name}: line {error[0]}: {error[1]}")
    return records


# The parsers check each field where they read it, in a fixed order, so the
# first bad field of a record names the error. These helpers only word it.

def _missing(name: str) -> CorpusError:
    return CorpusError(f"missing field {name}")


def _field_error(name: str, value, kinds: str) -> CorpusError:
    """A null or absent ``value`` is missing; any other is of no JSON type
    named in ``kinds``."""
    if value is None:
        return _missing(name)
    return CorpusError(f"field {name} must be a JSON {kinds}, got {value!r}")


def _list_error(name: str, values) -> CorpusError:
    if type(values) is not list:
        return _field_error(name, values, "list")
    return CorpusError(f"field {name} must be a list of strings, "
                       f"got {values!r}")


def _norm_hashtags(raw: list[str]) -> tuple[str, ...]:
    seen = []
    for tag in raw:
        tag = tag.lower().lstrip("#")
        if tag and tag not in seen:
            seen.append(tag)
    return tuple(seen)


_USER_COUNTS = ("followers_count", "following_count", "tweet_count",
                "listed_count")
_USER_SCALARS = tuple((name, int) for name in _USER_COUNTS) + (
    ("verified", bool), ("has_default_pic", bool))


def _parse_user(obj: dict) -> UserRecord:
    get = obj.get
    user_id = get("user_id")
    if type(user_id) not in _ID:
        raise _field_error("user_id", user_id, "str or int")
    user_id = sys.intern(str(user_id))
    created_at = get("created_at")
    if created_at is None:
        raise _missing("created_at")
    created_at = parse_timestamp(created_at)
    scalars = []  # the four counts, then the two flags
    for name, kind in _USER_SCALARS:
        value = get(name)
        if type(value) is not kind:
            raise _field_error(name, value, kind.__name__)
        scalars.append(value)
    bio = get("bio")
    if bio is not None and type(bio) is not str:
        raise _field_error("bio", bio, "str")
    language = get("predominant_language")
    if language is not None:
        if type(language) is not str:
            raise _field_error("predominant_language", language, "str")
        language = sys.intern(language)
    snapshot_at = get("snapshot_at")
    if snapshot_at is None:
        raise _missing("snapshot_at")
    snapshot_at = parse_timestamp(snapshot_at)
    # the record's invariants, once every field has its type
    for name, value in zip(_USER_COUNTS, scalars):
        if value < 0:
            raise CorpusError(f"{name} < 0 for user {user_id}")
    if created_at > snapshot_at:
        raise CorpusError(f"created_at after snapshot_at for user {user_id}")
    return UserRecord(user_id, created_at, *scalars, bio, language,
                      snapshot_at)


def _tweet_fields(obj: dict) -> tuple:
    """A tweet's checked fields, in ``TweetRecord`` order."""
    get = obj.get
    retweeted = get("retweeted_author")
    if retweeted is not None and type(retweeted) not in _ID:
        raise _field_error("retweeted_author", retweeted, "str or int")
    tweet_id = get("tweet_id")
    if type(tweet_id) not in _ID:
        raise _field_error("tweet_id", tweet_id, "str or int")
    tweet_id = str(tweet_id)
    author_id = get("author_id")
    if type(author_id) not in _ID:
        raise _field_error("author_id", author_id, "str or int")
    created_at = get("created_at")
    if created_at is None:
        raise _missing("created_at")
    created_at = parse_timestamp(created_at)
    kind = get("kind")
    if type(kind) is not str:
        raise _field_error("kind", kind, "str")
    text = get("text")
    if text is None:
        text = ""
    elif type(text) is not str:
        raise _field_error("text", text, "str")
    lists = []
    for name in ("hashtags", "urls", "mentions"):
        values = get(name)
        if values is None:
            values = ()
        elif type(values) is not list or (values and {*map(type, values)}
                                          != _STR):
            raise _list_error(name, values)
        lists.append(values)
    hashtags, urls, mentions = lists
    lang = get("lang")
    if lang is not None and type(lang) is not str:
        raise _field_error("lang", lang, "str")
    if kind not in TWEET_KINDS:
        raise CorpusError(f"tweet {tweet_id}: unknown kind {kind!r}")
    # no string is interned here: a tweet's fields go into the table, whose
    # pool holds each repeated string once
    return (tweet_id, str(author_id), created_at, kind, text,
            _norm_hashtags(hashtags) if hashtags else (), tuple(urls),
            tuple(mentions),
            None if retweeted in (None, "") else str(retweeted), lang)


def _parse_tweet(obj: dict) -> TweetRecord:
    return tuple.__new__(TweetRecord, _tweet_fields(obj))


def _parse_ids(names: tuple[str, ...], obj: dict) -> tuple:
    ids = []
    for name in names:
        value = obj.get(name)
        if type(value) not in _ID:
            raise _field_error(name, value, "str or int")
        ids.append(sys.intern(str(value)))
    return tuple(ids)


def load_users(path: Path) -> dict[str, UserRecord]:
    return {user.user_id: user
            for user in _iter_jsonl(path, _parse_user, unique="user_id")}


# a range below this size costs more to hand to a worker than to parse
_MIN_SPAN_BYTES = 1 << 20


def _parse_span(path: Path, span: tuple[int, int], spill: str | None = None):
    """One byte range of ``tweets.jsonl``: its rows, line count and first
    error, as ``_scan`` reports them; tweet ids are not checked here. With
    ``spill``, a directory, the rows are written to a file there and come
    back as a ``_Spill``."""
    rows, status = _Rows(), []
    append = rows.appender()
    for tweet in _scan(path, span, _tweet_fields, None, status):
        append(tweet)
    n_lines, error = status
    return (rows if spill is None else _Spill(rows, spill)), n_lines, error


def _merge_spans(path: Path, spans, parsed) -> TweetTable:
    """The table of the parsed ranges, or the first error of the file as
    a one-range load reports it: the earlier of the first range error and
    the first repeated tweet id, in file order."""
    parts = [rows for rows, _, _ in parsed]
    repeat = _first_repeat(parts)
    first_line, first_row = 1, 0
    for span, (rows, n_lines, error) in zip(spans, parsed):
        # a range's rows all come before its error, where its parse stopped
        if repeat is not None and repeat[0] < first_row + len(rows):
            error = (_row_line(path, span, repeat[0] - first_row),
                     f"duplicate tweet_id {_unicode(repeat[1])}")
        if error is not None:
            raise CorpusError(f"{path.name}: line {first_line + error[0] - 1}"
                              f": {error[1]}")
        first_line += n_lines
        first_row += len(rows)
    return _table(parts)


def _row_line(path: Path, span, row: int) -> int:
    """The line, counted from the span's start, that holds its ``row``-th
    record (from 0); every line before it parsed."""
    for lineno, raw in enumerate(_lines(path, *span), start=1):
        if raw.decode("utf-8").strip():
            if not row:
                return lineno
            row -= 1
    raise AssertionError("row past the end of its span")


def load_tweets(path: Path, workers: int = 1) -> TweetTable:
    """``tweets.jsonl`` as a table, parsed in one byte range per worker;
    one range is parsed in process, and several hand their rows back
    through files in a temporary directory."""
    from .features import parallel_map  # features imports this module

    size = path.stat().st_size
    n = max(1, min(workers, size // _MIN_SPAN_BYTES))
    spans = _spans(path, [size * k // n for k in range(1, n)])
    if len(spans) == 1:
        return _merge_spans(path, spans, [_parse_span(path, spans[0])])
    with tempfile.TemporaryDirectory(prefix="traitline-") as spill:
        parsed = parallel_map(partial(_parse_span, path, spill=spill), spans,
                              workers)
        return _merge_spans(path, spans, parsed)


def load_corpus(paths: CorpusPaths, workers: int = 1) -> Corpus:
    """Load and assemble a corpus; the result is immutable by convention.
    The result is the same for every ``workers``."""
    for attr in ("users", "tweets", "likes", "follows", "seeds"):
        p = getattr(paths, attr)
        if not Path(p).exists():
            raise CorpusError(f"missing corpus file: {p}")
    users = load_users(paths.users)
    tweets = load_tweets(Path(paths.tweets), workers)

    likes = _iter_jsonl(paths.likes, partial(
        _parse_ids, ("user_id", "seed_id", "liked_tweet_id")))
    follows = _iter_jsonl(paths.follows, partial(
        _parse_ids, ("follower_id", "followee_id")))

    with open(paths.seeds, "r", encoding="utf-8") as fh:
        try:
            seeds_raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{paths.seeds.name}: malformed JSON at line "
                              f"{exc.lineno}: {exc.msg}") from None
    if not isinstance(seeds_raw, list):
        raise CorpusError(f"{paths.seeds.name}: expected a JSON array")
    for index, seed in enumerate(seeds_raw):
        if type(seed) not in _ID:
            raise CorpusError(f"{paths.seeds.name}: entry {index}: a seed id "
                              f"must be a JSON str or int, got {seed!r}")
    seeds = [str(s) for s in seeds_raw]
    if len(set(seeds)) != len(seeds):
        raise CorpusError(f"{paths.seeds.name}: duplicate seed ids")

    return Corpus(users=users, tweets=tweets, likes=likes,
                  follows=follows, seeds=seeds)


def record_counts(corpus: Corpus) -> dict[str, int]:
    return {
        "users": len(corpus.users),
        "tweets": len(corpus.tweets),
        "likes": len(corpus.likes),
        "follows": len(corpus.follows),
        "seeds": len(corpus.seeds),
    }


def validate_corpus(corpus: Corpus) -> dict[str, list]:
    """Report-only consistency check; the corpus is never modified.

    The four lists of ``validation_report.json``, all empty for a
    consistent corpus. Dangling references are warnings rather than errors
    because real archives are partial.
    """
    report = {"dangling_likes": [], "dangling_follows": [],
              "retweets_missing_author": [], "empty_timelines": []}
    users = corpus.users
    seeds = set(corpus.seeds)
    for user_id, seed_id, liked_tweet_id in corpus.likes:
        if user_id not in users or seed_id not in seeds:
            report["dangling_likes"].append((user_id, seed_id, liked_tweet_id))
    for follower, followee in corpus.follows:
        if follower not in users or (followee not in users
                                     and followee not in seeds):
            report["dangling_follows"].append((follower, followee))
    tweets = corpus.tweets
    if "retweet" in tweets.strings:
        retweet = tweets.strings.index("retweet")
        report["retweets_missing_author"] = tweets.tweet_ids(
            row for row, (kind, author) in enumerate(zip(tweets.kind,
                                                         tweets.retweeted))
            if kind == retweet and author < 0)
    for user_id in users:
        if user_id not in tweets.position:
            report["empty_timelines"].append(user_id)
    report["retweets_missing_author"].sort()
    report["empty_timelines"].sort()
    return report


def _user_to_json(u: UserRecord) -> dict:
    """A user's own fields, with the timestamps in ISO-8601."""
    return u._asdict() | {"created_at": format_timestamp(u.created_at),
                          "snapshot_at": format_timestamp(u.snapshot_at)}


# ``json.dumps(obj, sort_keys=True)``, without building an encoder per call
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def _quote_list(values: tuple[str, ...]) -> str:
    return "[" + ", ".join(map(_quote, values)) + "]" if values else "[]"


def _tweet_lines(tweets):
    """The lines of ``tweets.jsonl`` for ``tweets``, keys in sorted order;
    ``created_at`` is written as ``format_timestamp`` writes it, from a
    table of day prefixes and the time of day."""
    days: dict[int, str] = {}  # epoch day -> "YYYY-MM-DDT"
    for t in tweets:
        day, second = divmod(t.created_at, 86400)
        date = days.get(day)
        if date is None:
            date = days[day] = format_timestamp(day * 86400)[:11]
        hour, second = divmod(second, 3600)
        minute, second = divmod(second, 60)
        lang = "" if t.lang is None else f'"lang": {_quote(t.lang)}, '
        retweeted = ("null" if t.retweeted_author is None
                     else _quote(t.retweeted_author))
        yield (f'{{"author_id": {_quote(t.author_id)}, "created_at": '
               f'"{date}{hour:02d}:{minute:02d}:{second:02d}Z", '
               f'"hashtags": {_quote_list(t.hashtags)}, '
               f'"kind": {_quote(t.kind)}, {lang}'
               f'"mentions": {_quote_list(t.mentions)}, '
               f'"retweeted_author": {retweeted}, '
               f'"text": {_quote(t.text)}, '
               f'"tweet_id": {_quote(t.tweet_id)}, '
               f'"urls": {_quote_list(t.urls)}}}\n')


def write_corpus(paths: CorpusPaths, users: dict[str, UserRecord], tweets,
                 likes, follows, seeds) -> None:
    """Write records to disk in the load schema (round-trip safe).

    ``tweets`` are written in the order given; ``save_corpus`` gives them
    by author id, each timeline in order. Each line is
    ``json.dumps(obj, sort_keys=True)`` of a record's fields, timestamps
    in ISO-8601 and a tweet's ``lang`` only when set; for speed the tweet,
    like and follow lines are built from the fields directly.
    """
    for p in (paths.users, paths.tweets, paths.likes, paths.follows,
              paths.seeds):
        Path(p).parent.mkdir(parents=True, exist_ok=True)
    with open(paths.users, "w", encoding="utf-8") as fh:
        fh.writelines(_encode_sorted(_user_to_json(users[uid])) + "\n"
                      for uid in sorted(users))
    with open(paths.tweets, "w", encoding="utf-8") as fh:
        fh.writelines(_tweet_lines(tweets))
    with open(paths.likes, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"liked_tweet_id": {_quote(liked)}, "seed_id": '
            f'{_quote(seed_id)}, "user_id": {_quote(user_id)}}}\n'
            for user_id, seed_id, liked in likes)
    with open(paths.follows, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"followee_id": {_quote(followee)}, "follower_id": '
            f'{_quote(follower)}}}\n'
            for follower, followee in follows)
    with open(paths.seeds, "w", encoding="utf-8") as fh:
        json.dump(seeds, fh)
        fh.write("\n")


def save_corpus(corpus: Corpus, paths: CorpusPaths) -> None:
    """Write a corpus back to disk in the load schema (round-trip safe)."""
    tweets = chain.from_iterable(map(corpus.timeline,
                                     sorted(corpus.tweets.authors)))
    write_corpus(paths, corpus.users, tweets, corpus.likes, corpus.follows,
                 corpus.seeds)
