import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SNAP, columns_of, make_corpus, make_tweet, make_user,
                      records_of)
from traitline.features import (PLACEHOLDER_TOKENS, FeatureError,
                                feature_matrix, tokenize_timeline)
from traitline.lexicon import (Lexicon, LexiconError, add_lexicon_features,
                               join_external_features, lexicon_features,
                               load_lexicon)

REPO_LEXICONS = Path(__file__).resolve().parent.parent / "lexicons"


def tl(*texts):
    return tokenize_timeline(columns_of([make_tweet(f"t{i}", "u", i, text=t)
                                         for i, t in enumerate(texts)]))


# ---- loading -----------------------------------------------------------------

def test_load_tsv_rows(tmp_path):
    path = tmp_path / "emo.tsv"
    path.write_text("abandon\tanger\t1\nabandon\tjoy\t0\ncalm\tjoy\t1\n")
    lex = load_lexicon(path)
    assert lex.entries["abandon"] == {"anger"}
    assert "joy" in lex.categories and "anger" in lex.categories
    assert lex.categories_of("calm") == {"joy"}
    assert lex.categories_of("abandon") == {"anger"}


def test_tsv_contradictory_flags_rejected(tmp_path):
    path = tmp_path / "emo.tsv"
    path.write_text("abandon\tanger\t1\nabandon\tanger\t0\n")
    with pytest.raises(LexiconError, match="contradictory"):
        load_lexicon(path)


def test_tsv_bad_flag_rejected(tmp_path):
    path = tmp_path / "emo.tsv"
    path.write_text("abandon\tanger\t2\n")
    with pytest.raises(LexiconError, match="flag"):
        load_lexicon(path)


def test_tsv_empty_category_rejected_with_file_and_line(tmp_path):
    # an empty category used to load and give a column named after the
    # lexicon alone, e.g. emo_
    path = tmp_path / "emo.tsv"
    path.write_text("calm\tjoy\t1\njoy\t\t1\n")
    with pytest.raises(LexiconError,
                       match=r"^emo\.tsv: line 2: empty category$"):
        load_lexicon(path)


@pytest.mark.parametrize("word", ["da*mn", "damn*"])
def test_tsv_wildcard_rejected_with_file_and_line(tmp_path, word):
    # TSV lexicons match exactly: an inner * never matches, and a trailing
    # one used to fail later without the file and line
    path = tmp_path / "emo.tsv"
    path.write_text(f"calm\tjoy\t1\n{word}\tanger\t1\n")
    with pytest.raises(LexiconError, match=r"emo\.tsv: line 2: .*'\*'"):
        load_lexicon(path)


def test_load_dict_with_wildcard(tmp_path):
    path = tmp_path / "informal.dic"
    path.write_text("swear: damn* heck\nassent: yes yeah\n")
    lex = load_lexicon(path)
    assert lex.categories_of("damned") == {"swear"}
    assert lex.categories_of("damn") == {"swear"}
    assert lex.categories_of("heck") == {"swear"}
    assert lex.categories_of("hecking") == frozenset()
    assert lex.categories_of("yeah") == {"assent"}


@pytest.mark.parametrize("words", ["*", "da*mn", "damn**"])
def test_dict_wildcard_that_cannot_match_as_written_rejected(tmp_path, words):
    # a bare * would match every token; a * before the end matches none
    path = tmp_path / "informal.dic"
    path.write_text(f"assent: yes\nswear: heck {words}\n")
    with pytest.raises(LexiconError, match=r"informal\.dic: line 2: .*'\*'"):
        load_lexicon(path)


@pytest.mark.parametrize("name, text", [("bom.dic", "\ufeffjoy: happy\n"),
                                        ("bom.tsv", "\ufeffhappy\tjoy\t1\n")],
                         ids=["dic", "tsv"])
def test_byte_order_mark_skipped(tmp_path, name, text):
    # a BOM used to start the first name: category '\ufeffjoy' (column
    # bom_\ufeffjoy), or the TSV word '\ufeffhappy', which never matched
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.column_names() == ["bom_joy"]
    assert lex.categories_of("happy") == {"joy"}


def test_shipped_mini_lexicons_load():
    emotions = load_lexicon(REPO_LEXICONS / "mini_emotions.tsv")
    assert {"anger", "joy", "positive", "negative"} <= set(emotions.categories)
    assert emotions.categories_of("furious") == {"anger", "negative"}
    # association flag 0 rows contribute no entries
    assert emotions.categories_of("table") == frozenset()
    categories = load_lexicon(REPO_LEXICONS / "mini_categories.dic")
    assert categories.categories_of("damned") == {"swear"}


def scan_categories(lex, token):
    """Reference lookup: test every entry of the lexicon against the token."""
    cats = set()
    for word, word_cats in lex.entries.items():
        if word.endswith("*"):
            if token.startswith(word[:-1]):
                cats |= word_cats
        elif token == word:
            cats |= word_cats
    return frozenset(cats)


CATEGORIES = ["swear", "assent", "joy"]
# a small alphabet, so that prefixes nest (da*, dam*, damn) and collide
STEMS = st.text(alphabet="damn", max_size=5)
# timeline words that nest under the generated prefixes, with placeholders
# so that some timelines have no scoreable token
WORDS = ["d", "da", "dam", "damn", "damned", "mad", "happy", "calm",
         "https://x.y", "@bob"]
TEXTS = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)


@st.composite
def lexicons(draw, name="lex"):
    wildcards = draw(st.booleans())
    words = st.tuples(STEMS, st.booleans()).map(
        lambda w: w[0] + "*" if wildcards and w[1] else w[0])
    entries = draw(st.dictionaries(
        words, st.frozensets(st.sampled_from(CATEGORIES), min_size=1),
        max_size=8))
    return Lexicon(name=name, entries=entries, categories=list(CATEGORIES))


@settings(max_examples=300, deadline=None)
@given(lexicons(), st.lists(STEMS, max_size=10))
def test_indexed_lookup_equals_scan_of_entries(lex, tokens):
    for token in tokens:
        assert lex.categories_of(token) == scan_categories(lex, token), token


# wildcard prefix lengths with gaps between them (1 and 4, 2 and 5), so that
# the lookup skips lengths no wildcard has, and tokens shorter than all of them
GAPPED = {"a*": {"joy"}, "abcd*": {"swear"}, "abc": {"assent"},
          "bc*": {"assent"}, "bcdab*": {"joy"}, "d": {"swear"}}


@pytest.mark.parametrize("token", ["", "a", "ab", "abc", "abcd", "abcde",
                                   "b", "bc", "bcda", "bcdab", "bcdabc",
                                   "d", "da", "c"])
def test_lookup_with_gapped_prefix_lengths_equals_scan(token):
    lex = Lexicon(name="gaps", entries={w: frozenset(c)
                                        for w, c in GAPPED.items()},
                  categories=list(CATEGORIES))
    assert lex.categories_of(token) == scan_categories(lex, token)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
           st.one_of(st.text(alphabet="abcd", min_size=1, max_size=1),
                     st.text(alphabet="abcd", min_size=4, max_size=4),
                     st.text(alphabet="abcd", min_size=6, max_size=6))
           .map(lambda w: w + "*") | st.text(alphabet="abcd", max_size=7),
           st.frozensets(st.sampled_from(CATEGORIES), min_size=1),
           max_size=10),
       st.lists(st.text(alphabet="abcd", max_size=7), max_size=10))
def test_gapped_lookup_equals_scan_of_entries(entries, tokens):
    lex = Lexicon(name="gaps", entries=entries, categories=list(CATEGORIES))
    for token in tokens:
        assert lex.categories_of(token) == scan_categories(lex, token), token


def test_lookup_of_token_shorter_than_every_prefix():
    lex = Lexicon(name="long", entries={"abc*": frozenset({"joy"}),
                                        "abcde*": frozenset({"swear"}),
                                        "ab": frozenset({"assent"})},
                  categories=list(CATEGORIES))
    for token in ("", "a", "ab", "b"):
        assert lex.categories_of(token) == scan_categories(lex, token)
    assert lex.categories_of("ab") == {"assent"}


# ---- scoring -----------------------------------------------------------------

def tally_rates(timeline, lexs):
    """Reference scoring: one scan of the entries per token occurrence."""
    tokens = [tok for tweet in timeline for tok in tweet.tokens
              if tok not in PLACEHOLDER_TOKENS]
    out = {}
    for lex in lexs:
        for category in lex.categories:
            hits = sum(category in scan_categories(lex, tok) for tok in tokens)
            out[f"{lex.name}_{category}"] = (hits / len(tokens) if tokens
                                             else math.nan)
    return out


@settings(max_examples=200, deadline=None)
@given(lexicons(), st.lists(TEXTS, max_size=4))
def test_rates_from_distinct_tokens_equal_per_token_tally(lex, texts):
    timeline = tl(*texts)
    got = lexicon_features(timeline, [lex])
    want = tally_rates(timeline, [lex])
    assert list(got) == list(want)
    assert (np.array(list(got.values())).tobytes()
            == np.array(list(want.values())).tobytes())


def joy_lexicon():
    return Lexicon(name="emo",
                   entries={"happy": frozenset({"joy"}),
                            "calm": frozenset({"joy"})},
                   categories=["joy", "anger"])


def test_all_tokens_matching_gives_one():
    feats = lexicon_features(tl("happy calm", "calm happy"), [joy_lexicon()])
    assert feats["emo_joy"] == 1.0
    assert feats["emo_anger"] == 0.0


def test_no_matches_gives_zero():
    feats = lexicon_features(tl("nothing here"), [joy_lexicon()])
    assert feats["emo_joy"] == 0.0


def test_swear_fraction_counted_by_hand(tmp_path):
    path = tmp_path / "informal.dic"
    path.write_text("swear: damn*\n")
    lex = load_lexicon(path)
    # 2 matching tokens of 8 total
    feats = lexicon_features(tl("damn this damned thing",
                                "four more plain words"), [lex])
    assert feats["informal_swear"] == pytest.approx(0.25)


def test_placeholders_excluded_from_both_sides():
    feats = lexicon_features(tl("happy https://x.y @bob"), [joy_lexicon()])
    # denominator is 1 scoreable token, not 3
    assert feats["emo_joy"] == 1.0


def test_zero_scoreable_tokens_all_missing():
    feats = lexicon_features(tl("https://x.y", "@bob"), [joy_lexicon()])
    assert all(math.isnan(v) for v in feats.values())


def test_bag_of_words_order_invariance():
    a = lexicon_features(tl("happy calm plain", "more words"), [joy_lexicon()])
    b = lexicon_features(tl("more words", "plain calm happy"), [joy_lexicon()])
    assert a == b


def test_fractions_within_unit_interval():
    emotions = load_lexicon(REPO_LEXICONS / "mini_emotions.tsv")
    feats = lexicon_features(
        tl("furious liars fraud", "grateful lovely bright", "buvu gagi"),
        [emotions])
    assert all(0.0 <= v <= 1.0 for v in feats.values())


# ---- matrix integration --------------------------------------------------------

def two_user_corpus():
    return make_corpus(
        users=[make_user("u1"), make_user("u2")],
        timelines={"u1": [make_tweet("t1", "u1", 1, text="happy happy")],
                   "u2": [make_tweet("t2", "u2", 2, text="gray day")]},
        seeds=["s"])


def test_add_lexicon_features_appends_columns():
    corpus = two_user_corpus()
    fm = feature_matrix(corpus, {"u1"}, {"u2"}, SNAP)
    out = add_lexicon_features(fm, corpus, [joy_lexicon()])
    assert out.columns[-2:] == ["emo_joy", "emo_anger"]
    assert out.values[:, out.column_index("emo_joy")].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("workers", [1, 2])
def test_lexicon_column_clash_rejected_before_extraction(monkeypatch,
                                                        workers):
    def never(*args):
        raise AssertionError("user_features called")

    monkeypatch.setattr("traitline.features.user_features", never)
    with pytest.raises(FeatureError, match="duplicate column name: emo_joy"):
        feature_matrix(two_user_corpus(), {"u1"}, {"u2"}, SNAP,
                       workers=workers, lexicons=[joy_lexicon(), joy_lexicon()])


def test_join_external_features(tmp_path):
    corpus = two_user_corpus()
    fm = feature_matrix(corpus, {"u1"}, {"u2"}, SNAP)
    path = tmp_path / "big5.csv"
    path.write_text("user_id,openness,rigor\nu1,0.5,0.1\n")
    out = join_external_features(fm, path)
    assert out.columns[-2:] == ["openness", "rigor"]
    assert out.values[0, out.column_index("openness")] == 0.5
    assert math.isnan(out.values[1, out.column_index("openness")])


def test_join_external_skips_byte_order_mark(tmp_path):
    # the first header cell used to name the column '\ufeffscore'
    fm = feature_matrix(two_user_corpus(), {"u1"}, {"u2"}, SNAP)
    path = tmp_path / "scores.csv"
    path.write_text("\ufeffscore,user_id\n0.5,u1\n", encoding="utf-8")
    out = join_external_features(fm, path)
    assert out.columns[-1] == "score"
    assert out.values[0, out.column_index("score")] == 0.5


def test_join_external_empty_cell_is_missing(tmp_path):
    fm = feature_matrix(two_user_corpus(), {"u1"}, {"u2"}, SNAP)
    path = tmp_path / "big5.csv"
    path.write_text("user_id,openness,rigor\nu1,,0.1\n")
    out = join_external_features(fm, path)
    assert math.isnan(out.values[0, out.column_index("openness")])
    assert out.values[0, out.column_index("rigor")] == 0.1


def test_join_external_duplicate_column_rejected(tmp_path):
    corpus = two_user_corpus()
    fm = feature_matrix(corpus, {"u1"}, {"u2"}, SNAP)
    path = tmp_path / "dup.csv"
    # a behavioral column, another column of the file, the key column
    for header, name in (("user_id,verified", "verified"),
                         ("user_id,x,y,x", "x"),
                         ("user_id,x,user_id", "user_id")):
        path.write_text(header + "\n")
        with pytest.raises(LexiconError, match=rf"^dup\.csv: line 1: "
                                               rf"duplicate column name: "
                                               rf"{name}$"):
            join_external_features(fm, path)


@pytest.mark.parametrize("text,error", [
    # a short row used to broadcast its one value over both columns
    ("user_id,x,y\nu1,1\n", r"line 2: expected 3 cells, got 2"),
    ("user_id,x,y\nu1,1,2,3\n", r"line 2: expected 3 cells, got 4"),
    ("user_id,x,y\nu1,1,2\nu2,0.5,high\n",
     r"line 3: column y: non-numeric value 'high'"),
    # a repeated user used to keep its last row
    ("user_id,x,y\nu1,1,2\nu2,3,4\nu1,5,6\n", r"line 4: repeated user_id u1"),
    # "nan" used to read as a missing cell, and "inf" passed through to the
    # imputer's mean and the split thresholds
    ("user_id,x,y\nu1,1,2\nu2,nan,4\n", r"line 3: column x: non-finite "
                                        r"value 'nan'"),
    ("user_id,x,y\nu1,1,-inf\n", r"line 2: column y: non-finite value "
                                 r"'-inf'"),
], ids=["short-row", "long-row", "non-numeric", "repeated-user", "nan",
        "inf"])
def test_join_external_bad_row_rejected_with_file_and_line(tmp_path, text,
                                                           error):
    corpus = two_user_corpus()
    fm = feature_matrix(corpus, {"u1"}, {"u2"}, SNAP)
    path = tmp_path / "big5.csv"
    path.write_text(text)
    with pytest.raises(LexiconError, match=r"^big5\.csv: " + error + "$"):
        join_external_features(fm, path)


def test_join_external_empty_file_unchanged(tmp_path, caplog):
    corpus = two_user_corpus()
    fm = feature_matrix(corpus, {"u1"}, {"u2"}, SNAP)
    path = tmp_path / "empty.csv"
    path.write_text("")
    with caplog.at_level("WARNING"):
        out = join_external_features(fm, path)
    assert out.columns == fm.columns
    assert np.array_equal(out.values, fm.values, equal_nan=True)
    assert "empty" in caplog.text


# ---- one pass with the behavioral columns ------------------------------------

@st.composite
def cohort_corpora(draw):
    """Small corpora split into engaged and control users, and two
    lexicons; timelines may be empty or hold placeholders only."""
    n_users = draw(st.integers(1, 5))
    timelines = {}
    for i in range(n_users):
        texts = draw(st.lists(TEXTS, max_size=4))
        timelines[f"u{i}"] = [make_tweet(f"t{i}_{j}", f"u{i}", 100 * j,
                                         text=text)
                              for j, text in enumerate(texts)]
    corpus = make_corpus(users=[make_user(u) for u in timelines],
                         timelines=timelines, seeds=["s"])
    engaged = set(draw(st.lists(st.sampled_from(sorted(timelines)),
                                unique=True)))
    lexs = [draw(lexicons(name="first")), draw(lexicons(name="second"))]
    return corpus, engaged, set(timelines) - engaged, lexs


@settings(max_examples=100, deadline=None)
@given(cohort_corpora())
def test_in_pass_lexicon_columns_equal_appended_ones(data):
    corpus, engaged, control, lexs = data
    snapshot = SNAP
    got = feature_matrix(corpus, engaged, control, snapshot, lexicons=lexs)
    want = add_lexicon_features(
        feature_matrix(corpus, engaged, control, snapshot), corpus, lexs)
    assert got.columns == want.columns
    assert got.user_ids == want.user_ids
    assert got.labels.tolist() == want.labels.tolist()
    assert got.values.tobytes() == want.values.tobytes()  # NaN cells too


@settings(max_examples=15, deadline=None)
@given(cohort_corpora())
def test_lexicon_row_independent_of_batch_and_workers(data):
    corpus, engaged, control, lexs = data
    snapshot = SNAP
    batch = feature_matrix(corpus, engaged, control, snapshot, lexicons=lexs)
    pooled = feature_matrix(corpus, engaged, control, snapshot, workers=2,
                            lexicons=lexs)
    assert pooled.values.tobytes() == batch.values.tobytes()
    for i, user_id in enumerate(batch.user_ids):
        alone = make_corpus([corpus.users[user_id]],
                            {user_id: records_of(corpus.tweets, user_id)},
                            seeds=["s"])
        solo = feature_matrix(alone, {user_id} & engaged,
                              {user_id} & control, snapshot, lexicons=lexs)
        assert solo.values[0].tobytes() == batch.values[i].tobytes(), user_id
