from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dishrec.errors import InputError, MalformedRecord
from dishrec.fragmenter import LexiconItem, build_alias_index, fragment_review, load_item_lexicon
from dishrec.pipeline import make_fragments

from oracles import make_fragments_reference


def fragments(tokens, items):
    return fragment_review(tokens, build_alias_index(items), review_id="r")


def spans(tokens, items):
    """(item_id, clause_index, tokens) of each fragment, in output order."""
    return [(f.item_id, f.clause_index, list(f.tokens)) for f in fragments(tokens, items)]


class TestFindMentions:
    def test_longest_match_wins(self, food_items):
        assert spans(["garlic", "bread", "good"], food_items) == [
            (7, 0, ["garlic", "bread", "good"])
        ]

    def test_disjoint_matches(self, food_items):
        frags = fragments(["pasta", "and", "pizza"], food_items)
        assert [(f.item_id, f.clause_index) for f in frags] == [(1, 0), (2, 0)]

    def test_no_match(self, food_items):
        assert fragments(["great", "service"], food_items) == []

    def test_consumed_tokens_not_rematched(self, food_items):
        # "bread" inside "garlic bread" must not also match item 3
        tokens = ["garlic", "bread", "bread", "but", "bread", "garlic"]
        assert spans(tokens, food_items) == [
            (7, 0, ["garlic", "bread", "bread"]),
            (3, 0, ["garlic", "bread", "bread", "bread", "garlic"]),
        ]


class TestScopeFragments:
    def test_one_mention_per_clause(self, food_items):
        tokens = ["pasta", "great", "but", "pizza", "soggy"]
        frags = fragments(tokens, food_items)
        by_item = {f.item_id: list(f.tokens) for f in frags}
        assert by_item == {1: ["pasta", "great"], 2: ["pizza", "soggy"]}

    def test_trailing_clauses_attach_to_preceding_mention(self, food_items):
        tokens = ["pasta", "cooked", "but", "very", "salty", "while", "cheap"]
        frags = fragments(tokens, food_items)
        assert len(frags) == 1
        assert list(frags[0].tokens) == ["pasta", "cooked", "very", "salty", "cheap"]

    def test_shared_clause_duplicated_to_both(self, food_items):
        # hand enumeration: single clause, two mentions -> every clause token
        # is assigned to both items
        tokens = ["pasta", "pizza", "cold"]
        frags = fragments(tokens, food_items)
        assert len(frags) == 2
        for f in frags:
            assert list(f.tokens) == ["pasta", "pizza", "cold"]
            assert "cold" in f.tokens

    def test_leading_clause_attaches_to_following_mention(self, food_items):
        tokens = ["really", "liked", "but", "pizza", "cold"]
        frags = fragments(tokens, food_items)
        assert len(frags) == 1
        assert list(frags[0].tokens) == ["really", "liked", "pizza", "cold"]

    def test_attachment_stops_at_sentence_boundary(self, food_items):
        tokens = ["pasta", "fine", "<s>", "service", "slow"]
        frags = fragments(tokens, food_items)
        assert len(frags) == 1
        assert list(frags[0].tokens) == ["pasta", "fine"]  # second sentence dropped

    def test_no_mentions_yields_nothing(self, food_items):
        assert fragments(["nice", "place", "<s>", "but"], food_items) == []

    def test_duplication_bound(self, food_items):
        # each token appears across fragments at most max(1, mentions in its clause) times
        tokens = ["pasta", "pizza", "bread", "tasty", "but", "pricey"]
        frags = fragments(tokens, food_items)
        counts = Counter()
        for f in frags:
            counts.update(f.tokens)
        assert counts["tasty"] == 3  # three mentions share the clause
        assert counts["pricey"] == 1  # attached clause goes to one mention only

    def test_deterministic(self, food_items):
        tokens = ["pasta", "nice", "but", "pizza", "bad", "<s>", "bread", "ok"]
        index = build_alias_index(food_items)
        a = fragment_review(tokens, index, review_id="r")
        b = fragment_review(tokens, index, review_id="r")
        assert a == b

    def test_single_item_review_gets_all_kept_tokens(self, food_items):
        tokens = ["pasta", "good", "but", "small", "while", "pricey"]
        frags = fragments(tokens, food_items)
        assert len(frags) == 1
        assert sorted(frags[0].tokens) == sorted(t for t in tokens if t not in ("but", "while"))


class TestItemLexiconFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text(
            "# id\tname\taliases\n1\tpasta\tpasta|penne\n7\tgarlic bread\tgarlic bread\n",
            encoding="utf-8",
        )
        items = load_item_lexicon(path)
        assert items[0].aliases == (("pasta",), ("penne",))
        assert items[1].aliases == (("garlic", "bread"),)

    def test_overlapping_aliases_rejected(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("1\tpasta\tpasta\n2\tpenne\tpasta\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_item_lexicon(path)

    def test_canonical_name_added_as_alias(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("4\tmomos\tdumplings\n", encoding="utf-8")
        items = load_item_lexicon(path)
        assert ("momos",) in items[0].aliases

    @pytest.mark.parametrize("alias", ["but", "pasta while hot", "and-then"])
    def test_clause_marker_alias_rejected_with_line(self, tmp_path, alias):
        path = tmp_path / "items.tsv"
        path.write_text(f"1\tpasta\tpasta\n2\tpizza\tpizza|{alias}\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            load_item_lexicon(path)
        assert exc.value.line_number == 2


class TestAliasIndex:
    @pytest.mark.parametrize("alias", [("but",), ("pasta", "<s>"), ("however", "good")])
    def test_clause_marker_alias_rejected(self, alias):
        with pytest.raises(InputError, match="clause marker"):
            build_alias_index([LexiconItem(1, "pasta", (("pasta",), alias))])

    def test_empty_alias_rejected(self):
        with pytest.raises(InputError, match="empty alias"):
            build_alias_index([LexiconItem(1, "pasta", ((),))])

    def test_shared_alias_goes_to_the_first_item(self):
        items = [LexiconItem(4, "a", (("chai",),)), LexiconItem(2, "b", (("chai",),))]
        assert spans(["chai", "hot"], items) == [(4, 0, ["chai", "hot"])]

    def test_tuple_tokens(self, food_items):
        assert fragments(("garlic", "bread", "ok"), food_items) == \
            fragments(["garlic", "bread", "ok"], food_items)


# Alias tokens share first tokens ("a b" / "a b c" / "a"), so longest-first
# matching and token consumption are exercised; markers and filler split and
# pad clauses. Items may repeat an alias, in which case the first item owns it.
_WORDS = ["a", "b", "c"]
_MARKERS = ["<s>", "but", "while", "and-then"]
_alias = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(tuple)
_lexicon = st.lists(st.lists(_alias, min_size=1, max_size=3), min_size=1, max_size=4).map(
    lambda alias_sets: [LexiconItem(10 + k, f"item{k}", tuple(aliases))
                        for k, aliases in enumerate(alias_sets)])
_review = st.lists(st.sampled_from(_WORDS + _MARKERS + ["x", "y"]), min_size=4, max_size=20)

_FOOD = [
    LexiconItem(1, "pasta", (("pasta",),)),
    LexiconItem(2, "pizza", (("pizza",),)),
    LexiconItem(3, "bread", (("bread",),)),
    LexiconItem(7, "garlic bread", (("garlic", "bread"), ("garlic", "bread", "roll"))),
]


def _equal_to_reference(reviews, items):
    token_map = {f"r{k}": tokens for k, tokens in enumerate(reviews)}
    records = [SimpleNamespace(review_id=rid) for rid in token_map]
    got = make_fragments(records, token_map, items)
    assert got == make_fragments_reference(records, token_map, items)
    return got


class TestReferenceEquivalence:
    @pytest.mark.parametrize("tokens", [
        [],                                                            # empty review
        ["service", "slow", "but", "cheap", "<s>", "nice"],            # no mention
        ["<s>", "but", "<s>", "while", "and-then"],                    # markers only
        ["garlic", "bread", "roll", "garlic", "bread", "bread"],       # shared first token
        ["garlic", "bread", "bread", "but", "bread", "roll"],          # consumed tokens
        ["pasta", "ok", "but", "pizza", "cold", "but", "pasta", "dry"],  # repeated item
        ["pasta", "pizza", "pasta", "hot", "while", "cheap"],          # repeat inside a clause
        ["meh", "but", "sadly", "<s>", "nice", "but", "pizza", "and-then", "bread", "<s>", "ok"],
        ["meh", "while", "pizza", "pasta", "hot", "but", "bread"],     # leading clause, two items
    ])
    def test_named_cases(self, tokens):
        _equal_to_reference([tokens], _FOOD)

    @settings(max_examples=600, deadline=None)
    @given(_lexicon, st.lists(_review, max_size=4))
    @example([LexiconItem(10, "x", (("a", "b"), ("a",))), LexiconItem(11, "y", (("a", "b", "c"),))],
             [["a", "b", "c", "a", "b", "b", "but", "a"], []])
    def test_equals_reference(self, items, reviews):
        _equal_to_reference(reviews, items)
