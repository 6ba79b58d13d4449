"""Seed-deterministic synthetic review corpora with planted ground truth.

The generator plants a per-(restaurant, item) quality (good restaurants
serve an item at 5, the rest at 2), a small per-user bias, and writes
template reviews whose per-item clauses carry sentiment words consistent
with those plantings. Noise flips the expressed sentiment of a fragment
with the given probability, decoupling text from the planted rating. Every
pipeline stage therefore has ground truth: per-fragment labels and per
(user, restaurant, item) gold ratings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    LexiconSet,
    NEGATIVE,
    POSITIVE,
    RestaurantProfile,
    ReviewRecord,
    load_lexicons,
    load_restaurants,
    load_reviews,
    save_lexicons,
    save_restaurants,
    save_reviews,
)
from .errors import InputError, InvalidConfig, MalformedRecord
from .fragmenter import LexiconItem, load_item_lexicon, save_item_lexicon

_ITEM_POOL = [
    "pasta", "pizza", "burger", "noodles", "momos", "biryani", "chai",
    "coffee", "sandwich", "fries", "garlic bread", "brownie", "dosa", "idli",
    "nachos", "maggi", "shake", "salad", "soup", "waffle", "tacos",
    "paneer tikka", "samosa", "rolls",
]

_POS_WORDS = ["delicious", "excellent", "amazing", "fantastic", "tasty", "great", "wonderful", "superb"]
_NEG_WORDS = ["awful", "bland", "soggy", "terrible", "stale", "horrible", "mediocre", "disappointing"]

_SLANG_FOR = {"great": "gr8", "awful": "awfl", "delicious": "delish"}

_STOPWORDS = frozenset({"the", "was", "were", "and", "a", "an", "is", "of", "very", "with"})

_CUISINES = ["cafe", "italian", "north indian", "south indian", "chinese", "fast food"]


def default_lexicons() -> LexiconSet:
    return LexiconSet(
        stopwords=_STOPWORDS,
        emoticon_map={":)": "POS_EMO", ":(": "NEG_EMO"},
        slang_map={slang: (word,) for word, slang in _SLANG_FOR.items()},
    )


@dataclass
class CorpusData:
    """A corpus directory in memory: inputs plus optional gold files."""

    reviews: list[ReviewRecord]
    restaurants: list[RestaurantProfile]
    items: list[LexiconItem]
    lexicons: LexiconSet
    fragment_labels: dict[tuple[str, int], str] = field(default_factory=dict)
    gold_ratings: dict[tuple[str, str, int], float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def synth_corpus(seed: int, n_users: int, n_restaurants: int, n_items: int,
                 good_per_item: int | None = None, user_bias: float = 0.5,
                 noise: float = 0.1, reviews_per_user: int = 8,
                 max_items_per_review: int = 2, mention_bias: float = 0.0,
                 bad_restaurants: int = 0) -> CorpusData:
    """Generate a corpus with planted preferences.

    good_per_item controls how many restaurants serve each item well
    (default: 40% of restaurants, at least one). mention_bias is the
    probability that a review mentions only items its restaurant is good at
    (planted mention affinity); bad_restaurants reserves the last ids as
    restaurants good at nothing, which keeps negative fragments flowing even
    under full mention bias. Raises InvalidConfig for non-positive sizes.
    """
    if n_users <= 0 or n_restaurants <= 0 or n_items <= 0:
        raise InvalidConfig("corpus sizes must be positive")
    if not 0.0 <= noise <= 1.0:
        raise InvalidConfig("noise must be in [0, 1]")
    if bad_restaurants >= n_restaurants:
        raise InvalidConfig("bad_restaurants must leave at least one other restaurant")
    if good_per_item is None:
        good_per_item = max(1, round(0.4 * n_restaurants))
    good_per_item = min(good_per_item, n_restaurants - bad_restaurants)

    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_items):
        name = _ITEM_POOL[i] if i < len(_ITEM_POOL) else f"dish {i}"
        alias = tuple(name.lower().split())
        items.append(LexiconItem(i, name, (alias,)))

    restaurant_ids = [f"r{r:03d}" for r in range(n_restaurants)]
    user_ids = [f"u{u:03d}" for u in range(n_users)]

    # planted quality: 5 where a restaurant is good at an item, else 2
    quality = np.full((n_restaurants, n_items), 2.0)
    eligible = np.arange(0, n_restaurants - bad_restaurants)
    for i in range(n_items):
        good = rng.choice(eligible, size=good_per_item, replace=False)
        quality[good, i] = 5.0

    bias = rng.uniform(-user_bias, user_bias, size=n_users)

    restaurants = []
    for r, rid in enumerate(restaurant_ids):
        cuisines = tuple(
            sorted(rng.choice(_CUISINES, size=2, replace=False).tolist())
        )
        rating = float(np.clip(round(float(quality[r].mean()) * 2) / 2, 1.0, 5.0))
        restaurants.append(RestaurantProfile(rid, f"Restaurant {r}", cuisines, rating))

    reviews = []
    fragment_labels = {}
    gold_ratings = {}
    connectors = [". ", " but ", " and then "]
    review_no = 0
    for u, uid in enumerate(user_ids):
        visits = rng.choice(
            n_restaurants, size=min(reviews_per_user, n_restaurants), replace=False
        )
        for r in visits:
            rid = restaurant_ids[r]
            n_mention = int(rng.integers(1, max_items_per_review + 1))
            good_here = np.flatnonzero(quality[r] == 5.0)
            if len(good_here) and rng.random() < mention_bias:
                pool = good_here
            else:
                pool = np.arange(n_items)
            n_mention = min(n_mention, len(pool))
            mentioned = sorted(rng.choice(pool, size=n_mention, replace=False).tolist())
            review_id = f"rev{review_no:05d}"
            review_no += 1

            clauses = []
            expressed = []       # expressed sentiment per mentioned item
            expressed_rating = []
            for i in mentioned:
                gold = float(np.clip(quality[r, i] + bias[u], 1.0, 5.0))
                gold_ratings[(uid, rid, i)] = gold
                positive = gold >= 3.5
                if rng.random() < noise:
                    positive = not positive
                    expressed_rating.append(float(np.clip(7.0 - gold, 1.0, 5.0)))
                else:
                    expressed_rating.append(gold)
                expressed.append(positive)
                fragment_labels[(review_id, i)] = POSITIVE if positive else NEGATIVE
                pool = _POS_WORDS if positive else _NEG_WORDS
                word = pool[int(rng.integers(0, len(pool)))]
                if word in _SLANG_FOR and rng.random() < 0.2:
                    word = _SLANG_FOR[word]
                clause = f"the {items[i].canonical_name} was {word}"
                if rng.random() < 0.2:
                    clause += " :)" if positive else " :("
                clauses.append(clause)

            text = clauses[0]
            for clause in clauses[1:]:
                text += connectors[int(rng.integers(0, len(connectors)))] + clause
            text += "."

            stars = float(np.clip(round(float(np.mean(expressed_rating)) * 2) / 2, 1.0, 5.0))
            n_pos = sum(expressed)
            label = POSITIVE if n_pos * 2 >= len(expressed) else NEGATIVE
            reviews.append(ReviewRecord(review_id, rid, uid, stars, text, label))

    meta = {
        "seed": seed,
        "n_users": n_users,
        "n_restaurants": n_restaurants,
        "n_items": n_items,
        "good_per_item": good_per_item,
        "user_bias": user_bias,
        "noise": noise,
        "reviews_per_user": reviews_per_user,
        "max_items_per_review": max_items_per_review,
    }
    return CorpusData(reviews, restaurants, items, default_lexicons(),
                      fragment_labels, gold_ratings, meta)


def separable_sequences(seed: int, n_train: int = 200, n_test: int = 50,
                        vocab_size: int = 20, min_len: int = 3, max_len: int = 10):
    """Synthetic separable sequence corpus for the sequence regressor.

    Positive sequences contain the GOOD token (index 0), negative ones the
    BAD token (index 1); everything else is filler. Returns (train, test,
    vocab_tokens) with labels in {-1.0, +1.0}.
    """
    if vocab_size < 3:
        raise InvalidConfig("vocab_size must be >= 3")
    rng = np.random.default_rng(seed)
    tokens = ["good", "bad"] + [f"w{i}" for i in range(2, vocab_size)]

    def make(n):
        data = []
        for _ in range(n):
            length = int(rng.integers(min_len, max_len + 1))
            seq = rng.integers(2, vocab_size, size=length).tolist()
            positive = bool(rng.integers(0, 2))
            seq[int(rng.integers(0, length))] = 0 if positive else 1
            data.append((seq, 1.0 if positive else -1.0))
        return data

    return make(n_train), make(n_test), tokens


# ---------------------------------------------------------------------------
# Corpus directory round-trips

def write_corpus_dir(corpus: CorpusData, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_reviews(corpus.reviews, outdir / "reviews.jsonl")
    save_restaurants(corpus.restaurants, outdir / "restaurants.jsonl")
    save_item_lexicon(corpus.items, outdir / "items.tsv")
    save_lexicons(corpus.lexicons, outdir / "lexicons")
    gold = outdir / "gold"
    gold.mkdir(exist_ok=True)
    with open(gold / "fragment_labels.tsv", "w", encoding="utf-8") as fh:
        for (review_id, item_id), label in sorted(corpus.fragment_labels.items()):
            fh.write(f"{review_id}\t{item_id}\t{label}\n")
    with open(gold / "ratings.tsv", "w", encoding="utf-8") as fh:
        for (uid, rid, item_id), rating in sorted(corpus.gold_ratings.items()):
            fh.write(f"{uid}\t{rid}\t{item_id}\t{rating!r}\n")
    (outdir / "meta.json").write_text(
        json.dumps(corpus.meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _bad_gold_line(path, lineno, fields, n_fields) -> MalformedRecord:
    """The error for a gold line with the wrong field count or a non-integer
    item id (the second-last field)."""
    if len(fields) != n_fields:
        reason = f"expected {n_fields} tab-separated fields, got {len(fields)}"
    else:
        reason = f"item id {fields[-2]!r} is not an integer"
    return MalformedRecord(lineno, f"gold/{path.name}: {reason}")


def load_corpus_dir(directory) -> CorpusData:
    directory = Path(directory)
    if not (directory / "reviews.jsonl").exists():
        raise InputError(f"no reviews.jsonl under {directory}")
    reviews = load_reviews(directory / "reviews.jsonl")
    restaurants = (
        load_restaurants(directory / "restaurants.jsonl")
        if (directory / "restaurants.jsonl").exists()
        else []
    )
    items = (
        load_item_lexicon(directory / "items.tsv")
        if (directory / "items.tsv").exists()
        else []
    )
    lexicons = (
        load_lexicons(directory / "lexicons")
        if (directory / "lexicons").is_dir()
        else LexiconSet()
    )
    fragment_labels = {}
    labels_path = directory / "gold" / "fragment_labels.tsv"
    if labels_path.exists():
        lines = labels_path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                review_id, item_id, label = fields
                key = (review_id, int(item_id))
            except ValueError:
                raise _bad_gold_line(labels_path, lineno, fields, 3) from None
            if label not in (POSITIVE, NEGATIVE):
                raise MalformedRecord(lineno, f"gold/fragment_labels.tsv: label {label!r} "
                                              f"is not {POSITIVE} or {NEGATIVE}")
            fragment_labels[key] = label
    gold_ratings = {}
    ratings_path = directory / "gold" / "ratings.tsv"
    if ratings_path.exists():
        lines = ratings_path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                uid, rid, item_id, rating = fields
                key = (uid, rid, int(item_id))
            except ValueError:
                raise _bad_gold_line(ratings_path, lineno, fields, 4) from None
            try:
                value = float(rating)
            except ValueError:
                value = math.nan
            if not 1.0 <= value <= 5.0:  # also rejects NaN and infinities
                raise MalformedRecord(lineno, f"gold/ratings.tsv: rating {rating!r} "
                                              f"is not a number in [1, 5]")
            gold_ratings[key] = value
    meta = {}
    meta_path = directory / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return CorpusData(reviews, restaurants, items, lexicons,
                      fragment_labels, gold_ratings, meta)
