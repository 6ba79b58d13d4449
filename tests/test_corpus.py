import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dishrec.corpus import (
    STAR_VALUES,
    LexiconSet,
    RestaurantProfile,
    ReviewRecord,
    build_vocabulary,
    load_lexicons,
    load_restaurants,
    load_reviews,
    normalize,
    save_reviews,
)
from dishrec.errors import DuplicateId, EmptyVocabulary, InputError, MalformedRecord

from oracles import normalize_reference


def _write_reviews(tmp_path, rows):
    path = tmp_path / "reviews.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def _row(i, **overrides):
    row = {
        "review_id": f"rev{i}",
        "restaurant_id": "r1",
        "user_id": "u1",
        "stars": 4.0,
        "text": "the pasta was great",
    }
    row.update(overrides)
    return row


class TestLoadReviews:
    def test_order_preserved(self, tmp_path):
        path = _write_reviews(tmp_path, [_row(1), _row(2, stars=2.5)])
        records = load_reviews(path)
        assert [r.review_id for r in records] == ["rev1", "rev2"]
        assert records[1].stars == 2.5

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_reviews(path) == []

    def test_out_of_range_stars(self, tmp_path):
        path = _write_reviews(tmp_path, [_row(1, stars=7)])
        with pytest.raises(MalformedRecord) as exc:
            load_reviews(path)
        assert exc.value.line_number == 1

    def test_non_half_step_stars(self, tmp_path):
        path = _write_reviews(tmp_path, [_row(1, stars=3.3)])
        with pytest.raises(MalformedRecord):
            load_reviews(path)

    def test_duplicate_id(self, tmp_path):
        path = _write_reviews(tmp_path, [_row(1), _row(1)])
        with pytest.raises(DuplicateId):
            load_reviews(path)

    def test_empty_text(self, tmp_path):
        path = _write_reviews(tmp_path, [_row(1, text="   ")])
        with pytest.raises(MalformedRecord):
            load_reviews(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_text(json.dumps(_row(1)) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            load_reviews(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("stars", ["NaN", "Infinity", "-Infinity", "1e400",
                                       '"nan"', '"inf"', "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "nan-text", "inf-text", "huge-int"])
    def test_non_finite_stars_report_line(self, tmp_path, stars):
        path = tmp_path / "reviews.jsonl"
        bad = json.dumps(_row(2, stars=0)).replace('"stars": 0', f'"stars": {stars}')
        path.write_text(json.dumps(_row(1)) + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            load_reviews(path)
        assert exc.value.line_number == 2

    def test_not_utf8_is_input_error(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_bytes(json.dumps(_row(1)).encode() + b"\n\xff\xfe\n")
        with pytest.raises(InputError):
            load_reviews(path)

    def test_roundtrip_identity(self, tmp_path):
        path = _write_reviews(
            tmp_path, [_row(1), _row(2, stars=1.5, annotated_label="negative")]
        )
        records = load_reviews(path)
        out = tmp_path / "again.jsonl"
        save_reviews(records, out)
        assert load_reviews(out) == records


class TestNormalize:
    def test_stated_pipeline(self, lex):
        assert normalize("The pasta was great :)", lex) == ["pasta", "great", "POS_EMO"]

    def test_empty_input(self, lex):
        assert normalize("", lex) == []

    def test_slang_lookup(self, lex):
        assert normalize("gr8 chai", lex) == ["great", "tea"]

    def test_sentence_and_coordinating_markers(self, lex):
        tokens = normalize("Pasta was fine, but pizza was bad. Cold and then warm!", lex)
        assert tokens == ["pasta", "fine", "but", "pizza", "bad", "<s>",
                          "cold", "and-then", "warm", "<s>"]

    def test_emoticon_longest_match_first(self):
        lex = LexiconSet(emoticon_map={":)": "POS_EMO", ":))": "POS_EMO"})
        # ":))" must be consumed as one emoticon, not ":)" plus ")"
        assert normalize("nice :))", lex) == ["nice", "POS_EMO"]

    def test_markers_survive_stopword_lists(self):
        lex = LexiconSet(stopwords=frozenset({"but", "however"}))
        assert normalize("good but pricey", lex) == ["good", "but", "pricey"]

    def test_idempotent_on_own_output(self, lex):
        text = "The pasta was gr8 :) but the pizza was awful. Service, meh!"
        once = normalize(text, lex)
        again = normalize(" ".join(once), lex)
        assert again == once


# words that reach normalize's token loop in every role: the "and then"
# bigram, stopwords, slang keys and expansions, sentinels, clause markers and
# text that the punctuation and emoticon passes rewrite first
_NORMALIZE_WORDS = ["and", "then", "And", "THEN", "the", "was", "good", "gr8", "lol",
                    "but", "however", "while", "and-then", "<s>", "POS_EMO", "NEG_EMO",
                    "pos_emo", ".", ",", "!?", "it's", ":)", ":))", ":("]


@st.composite
def _lexicon_sets(draw):
    words = st.sampled_from(_NORMALIZE_WORDS)
    keys = draw(st.lists(words, unique=True, max_size=5))
    return LexiconSet(
        stopwords=draw(st.frozensets(words, max_size=8)),
        emoticon_map=draw(st.dictionaries(st.sampled_from([":)", ":))", ":("]),
                                          st.sampled_from(["POS_EMO", "NEG_EMO"]), max_size=3)),
        slang_map={key: tuple(draw(st.lists(words.filter(lambda w, key=key: w != key),
                                            max_size=3)))
                   for key in keys},
    )


@settings(max_examples=400, deadline=None)
@given(lex=_lexicon_sets(),
       words=st.lists(st.sampled_from(_NORMALIZE_WORDS) | st.text(max_size=3), max_size=16),
       sep=st.sampled_from([" ", "  ", "", "\t"]))
@example(lex=LexiconSet(slang_map={"lol": ("and",)}), words=["lol", "then"], sep=" ")
@example(lex=LexiconSet(slang_map={"then": ("x",), "and": ("y",)}), words=["and", "then"],
         sep=" ")
@example(lex=LexiconSet(stopwords=frozenset({"the", "but"}),
                        slang_map={"gr8": ("the", "great", "but", "POS_EMO")}),
         words=["gr8", "and", "then", "the", "<s>"], sep=" ")
def test_normalize_equals_reference(lex, words, sep):
    text = sep.join(words)
    assert normalize(text, lex) == normalize_reference(text, lex)


class TestBuildVocabulary:
    def test_frequency_threshold(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
        assert vocab.index == {"a": 0}

    def test_lexicographic_tie(self):
        vocab = build_vocabulary([["a"], ["b"]], min_count=1)
        assert vocab.index == {"a": 0, "b": 1}

    def test_impossible_threshold(self):
        with pytest.raises(EmptyVocabulary):
            build_vocabulary([["a"], ["b"]], min_count=3)

    def test_deterministic(self):
        corpus = [["z", "q", "z"], ["m", "q", "z"]]
        assert build_vocabulary(corpus, 1).index == build_vocabulary(corpus, 1).index

    def test_indices_contiguous_by_frequency(self):
        vocab = build_vocabulary([["x", "y", "y", "z", "z", "z"]], min_count=1)
        assert vocab.index == {"z": 0, "y": 1, "x": 2}
        assert vocab.tokens == ["z", "y", "x"]


class TestLexicons:
    def test_load_from_directory(self, tmp_path):
        d = tmp_path / "lex"
        d.mkdir()
        (d / "stopwords.txt").write_text("# comment\nthe\nwas\n", encoding="utf-8")
        (d / "emoticons.tsv").write_text(":)\tPOS_EMO\n:(\tNEG_EMO\n", encoding="utf-8")
        (d / "slang.tsv").write_text("gr8\tgreat\nomg\toh my god\n", encoding="utf-8")
        lex = load_lexicons(d)
        assert lex.stopwords == {"the", "was"}
        assert lex.emoticon_map[":("] == "NEG_EMO"
        assert lex.slang_map["omg"] == ("oh", "my", "god")

    def test_bad_emoticon_class(self):
        with pytest.raises(InputError):
            LexiconSet(emoticon_map={":)": "HAPPY"})

    def test_self_expanding_slang(self):
        with pytest.raises(InputError):
            LexiconSet(slang_map={"lol": ("lol", "really")})


def test_review_record_is_frozen():
    r = ReviewRecord("a", "b", "c", 3.0, "text")
    with pytest.raises(AttributeError):
        r.stars = 4.0


# Loader fuzzing: any file content gives records or an InputError, never a crash.

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
_stars = st.sampled_from(STAR_VALUES) | st.sampled_from([3.3, 0, "4", "nan", "1e400"]) | _json_values
_raw_number = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "4.5", "1" + "0" * 400])


def _fuzz_lines(fields, required):
    """A JSON-lines file as a list of lines: either records with the required
    fields and any of the others, or a mix of those, records with any fields,
    a raw numeric literal as one field, and arbitrary text or bytes."""
    needed = {k: v for k, v in fields.items() if k in required}
    others = {k: v for k, v in fields.items() if k not in required}
    any_record = st.fixed_dictionaries({}, optional=fields).map(json.dumps)
    raw = st.tuples(st.sampled_from(sorted(fields)), _raw_number).map(
        lambda kv: '{"%s": %s}' % kv)
    record = st.fixed_dictionaries(needed, optional=others).map(json.dumps)
    text = (record | any_record | raw | st.text(max_size=30)).map(
        lambda s: s.encode("utf-8", "surrogatepass"))
    return (st.lists(record.map(str.encode), max_size=3)
            | st.lists(text | st.binary(max_size=20), max_size=3))


_fuzz = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _load_fuzzed(loader, tmp_path, lines):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        return loader(path)
    except InputError:
        return []


@_fuzz
@given(lines=_fuzz_lines({
    "review_id": st.text(max_size=3) | _json_values, "restaurant_id": st.just("r1"),
    "user_id": st.just("u1"), "stars": _stars, "text": st.text(max_size=8) | _json_values,
    "annotated_label": st.sampled_from(["positive", "negative", "unlabeled", "maybe"]),
}, required=("review_id", "restaurant_id", "user_id", "stars", "text")))
def test_load_reviews_fuzz(tmp_path, lines):
    assert all(isinstance(r, ReviewRecord) for r in _load_fuzzed(load_reviews, tmp_path, lines))


@_fuzz
@given(lines=_fuzz_lines({
    "restaurant_id": st.text(max_size=3) | _json_values, "name": st.text(max_size=5),
    "cuisines": st.lists(st.text(max_size=4), max_size=2) | _json_values,
    "zomato_rating": _stars,
}, required=("restaurant_id", "name", "zomato_rating")))
def test_load_restaurants_fuzz(tmp_path, lines):
    profiles = _load_fuzzed(load_restaurants, tmp_path, lines)
    assert all(isinstance(p, RestaurantProfile) for p in profiles)
