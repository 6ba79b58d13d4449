"""Glue that wires corpus -> fragments -> sentiment -> ratings -> recommender.

Used by the CLI commands and the evaluation harness so both run the exact
same pipeline.
"""

from __future__ import annotations

from . import lstm as lstm_mod
from .cf import Recommender, ScoredFragment, build_rating_matrix, check_n_neighbors
from .corpus import NEGATIVE, POSITIVE, UNLABELED, Vocabulary, build_vocabulary, normalize
from .errors import InvalidConfig, SingleClassCorpus
from .fm import build_fm_dataset, fm_train
from .fragmenter import build_alias_index, fragment_review
from .sentiment import bow_matrix, classify_fragment, dt_train, lr_train, nb_train
from .sides import build_comention_graph, louvain
from .synth import CorpusData

SENTIMENT_KINDS = ("nb", "bow-lr", "bow-dt", "lstm")
STEPPED_KINDS = ("bow-lr", "lstm")  # the kinds train_sentiment passes epochs and lr to
THRESHOLD_VALUES = (2.0, 2.5, 3.0)


def normalize_reviews(reviews, lexicons) -> dict[str, list[str]]:
    return {r.review_id: normalize(r.text, lexicons) for r in reviews}


def make_fragments(reviews, token_map, items):
    index = build_alias_index(items)
    fragments = []
    for r in reviews:
        fragments.extend(fragment_review(token_map[r.review_id], index, r.review_id))
    return fragments


def fragment_labels_for(corpus: CorpusData, fragments, mode: str, threshold: float = 2.5):
    """Gold label per fragment.

    "manual" prefers per-fragment gold labels, falling back to the review's
    annotated label (unlabeled reviews are skipped); "threshold" labels by
    review stars >= threshold, for a threshold in THRESHOLD_VALUES.
    """
    if mode == "threshold" and threshold not in THRESHOLD_VALUES:
        raise InvalidConfig(f"threshold must be one of {THRESHOLD_VALUES}")
    by_id = {r.review_id: r for r in corpus.reviews}
    labels = {}
    for f in fragments:
        review = by_id[f.review_id]
        if mode == "manual":
            label = corpus.fragment_labels.get((f.review_id, f.item_id))
            if label is None:
                label = review.annotated_label
            if label == UNLABELED:
                continue
        elif mode == "threshold":
            label = POSITIVE if review.stars >= threshold else NEGATIVE
        else:
            raise InvalidConfig(f"unknown label mode {mode!r}")
        labels[(f.review_id, f.item_id)] = label
    return labels


def train_sentiment(kind: str, fragments, labels, seed: int = 0,
                    epochs: int | None = None, lr: float | None = None):
    """Train one classifier kind on the labeled fragments.

    Returns (model, vocab); vocab is the vocabulary fitted once on the
    labeled training fragments (an NB model's own, else the binary-BoW /
    embedding one). ``epochs`` and ``lr``, when given, go to the bow-lr and
    lstm trainers; nb and bow-dt take neither. Every other setting is the
    trainer's own default.
    """
    pairs = [
        (f, labels[(f.review_id, f.item_id)])
        for f in fragments
        if (f.review_id, f.item_id) in labels
    ]
    if not pairs:
        raise SingleClassCorpus("no labeled fragments")
    token_lists = [list(f.tokens) for f, _ in pairs]
    y = [lab for _, lab in pairs]
    if kind == "nb":
        model = nb_train(token_lists, y)
        return model, model.vocab
    vocab = build_vocabulary(token_lists, min_count=1)
    if kind == "bow-dt":
        return dt_train(bow_matrix(token_lists, vocab), y), vocab
    steps = {k: v for k, v in {"epochs": epochs, "lr": lr}.items() if v is not None}
    if kind == "bow-lr":
        return lr_train(bow_matrix(token_lists, vocab), y, **steps), vocab
    if kind == "lstm":
        data = []
        for toks, lab in zip(token_lists, y):
            indices = vocab.encode(toks)
            if indices:
                data.append((indices, 1.0 if lab == POSITIVE else -1.0))
        if not data:
            raise SingleClassCorpus("no encodable fragments")
        params = lstm_mod.init_params(len(vocab), seed=seed)
        trained, _ = lstm_mod.lstm_train(data, params, seed=seed, **steps)
        return trained, vocab
    raise InvalidConfig(f"unknown sentiment model {kind!r}")


def score_fragments(reviews, fragments, model, vocab: Vocabulary):
    by_id = {r.review_id: r for r in reviews}
    scored = []
    for f in fragments:
        review = by_id[f.review_id]
        scored.append(
            ScoredFragment(
                review_id=f.review_id,
                user_id=review.user_id,
                restaurant_id=review.restaurant_id,
                item_id=f.item_id,
                score=classify_fragment(list(f.tokens), model, vocab),
                stars=review.stars,
            )
        )
    return scored


def build_recommender(corpus: CorpusData, seed: int = 0, sentiment_kind: str = "nb",
                      blend_weight: float = 0.5, n_neighbors: int | None = 20,
                      eq1_center: str = "user", with_fm: bool = True,
                      reviews=None) -> Recommender:
    """Run the full pipeline over a corpus and return a query-ready engine.

    ``reviews`` restricts training to a subset (the evaluation harness passes
    the train split); by default all corpus reviews are used.
    """
    check_n_neighbors(n_neighbors)  # fail before training, not after
    reviews = corpus.reviews if reviews is None else reviews
    token_map = normalize_reviews(reviews, corpus.lexicons)
    fragments = make_fragments(reviews, token_map, corpus.items)
    labels = fragment_labels_for(corpus, fragments, "manual")
    model, vocab = train_sentiment(sentiment_kind, fragments, labels, seed=seed)
    scored = score_fragments(reviews, fragments, model, vocab)
    matrix = build_rating_matrix(scored, blend_weight)

    graph = build_comention_graph(fragments)
    partition = louvain(graph) if graph.nodes else {}

    fm_model = None
    fm_features = None
    if with_fm:
        data, fm_features = build_fm_dataset(matrix)
        if len(data) >= 2:
            fm_model = fm_train(data, lr=0.05, epochs=50, seed=seed,
                                n_features=fm_features.n_features)
        else:
            fm_features = None

    return Recommender(
        matrix, scored,
        partition=partition,
        fm_model=fm_model, fm_features=fm_features,
        n_neighbors=n_neighbors, eq1_center=eq1_center,
    )
