"""Command-line entry point.

Exit codes: 0 success, 2 input error, 3 training error, 4 query error,
64 usage error. Defaults may come from a flat key=value config file named
by --config or the FIDUCIA_CONFIG environment variable; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import evalx, pipeline
from .cf import EQ1_CENTERS
from .corpus import load_lexicons, load_restaurants, load_reviews, normalize
from .errors import InputError, InvalidConfig, QueryError, TrainingError
from .modelio import save_model
from .sides import build_comention_graph, lda_train, louvain, top_words
from .synth import load_corpus_dir, synth_corpus, write_corpus_dir

USAGE_EXIT = 64


def _checked(convert, ok, expected):
    """A setting parser: convert the text, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {expected}, got {text!r}")
    return parse


def _one_of(choices):
    parse = _checked(str, choices.__contains__, "one of " + ", ".join(choices))
    parse.metavar = "{" + ",".join(choices) + "}"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite_float = _checked(float, math.isfinite, "a finite number")
_unit_float = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_method_list = _checked(
    lambda text: [m.strip() for m in text.split(",") if m.strip()],
    lambda methods: methods and set(methods) <= set(evalx.BENCHMARK_METHODS),
    "a comma-separated list of " + ", ".join(evalx.BENCHMARK_METHODS),
)

# Every setting a flag or config file can give: key -> (parser, package default).
SETTINGS = {
    "seed": (_non_negative_int, 0),
    "side_weight": (_finite_float, 0.2),
    "top_k": (_positive_int, 10),
    "neighbors": (_non_negative_int, 20),  # 0: every rater
    "eq1_center": (_one_of(EQ1_CENTERS), "user"),
    "blend_weight": (_finite_float, 0.5),
    "relevance": (_finite_float, 4.0),
    "sentiment": (_one_of(pipeline.SENTIMENT_KINDS), "nb"),
    "split_round": (_one_of(evalx.SPLIT_ROUNDS), "floor"),
}


def _flag_type(parse):
    """A setting parser as an argparse type: a bad value is a usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def _add_setting(parser, key):
    parse = SETTINGS[key][0]
    parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_flag_type(parse),
                        metavar=getattr(parse, "metavar", None))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def load_config(path) -> dict:
    """Flat ``key = value`` lines; # comments; unknown keys are rejected."""
    config = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise InvalidConfig(f"config line {lineno}: unknown key {key!r}")
        try:
            config[key] = SETTINGS[key][0](value.strip())
        except ValueError as exc:
            raise InvalidConfig(f"config line {lineno}: bad value for {key!r}: {exc}")
    return config


def _resolve(args, config, key, default=None):
    """Flag > config file > per-command default > package default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return SETTINGS[key][1] if default is None else default


def build_parser() -> _Parser:
    parser = _Parser(prog="dishrec")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, validate and normalize a corpus")
    p.add_argument("--reviews", required=True)
    p.add_argument("--restaurants", required=True)
    p.add_argument("--lexicons", required=True)
    p.add_argument("--out", required=True)
    _add_setting(p, "seed")

    p = sub.add_parser("train-sentiment", help="train a fragment sentiment model")
    p.add_argument("--model", required=True, choices=pipeline.SENTIMENT_KINDS)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--labels", required=True, help="manual or threshold:T")
    p.add_argument("--out", required=True)
    _add_setting(p, "seed")
    p.add_argument("--epochs", type=_flag_type(_positive_int))
    p.add_argument("--lr", type=_flag_type(_finite_float))

    p = sub.add_parser("recommend", help="rank restaurants for a user and item")
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--item", required=True, help="item id or canonical name")
    p.add_argument("--method", default="user", choices=evalx.BENCHMARK_METHODS)
    for key in ("top_k", "side_weight", "seed", "sentiment", "neighbors", "eq1_center"):
        _add_setting(p, key)

    p = sub.add_parser("sides", help="export side-dish communities or topics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--method", required=True, choices=["louvain", "lda"])
    p.add_argument("--out", required=True)
    _add_setting(p, "seed")
    p.add_argument("--topics", type=_flag_type(_positive_int), default=10)
    p.add_argument("--iterations", type=_flag_type(_positive_int), default=500)

    p = sub.add_parser("evaluate", help="run the recommender benchmark")
    p.add_argument("--corpus", required=True)
    p.add_argument("--methods", type=_flag_type(_method_list), default="baseline,user,item,fm")
    _add_setting(p, "seed")
    p.add_argument("--out", required=True)
    for key in ("top_k", "side_weight", "relevance"):
        _add_setting(p, key)

    p = sub.add_parser("synth", help="generate a synthetic corpus with gold files")
    _add_setting(p, "seed")
    for size in ("--users", "--restaurants", "--items"):
        p.add_argument(size, type=_flag_type(_positive_int), required=True)
    p.add_argument("--noise", type=_flag_type(_unit_float), default=0.1)
    p.add_argument("--out", required=True)

    return parser


def cmd_ingest(args, config):
    reviews_path = Path(args.reviews)
    restaurants_path = Path(args.restaurants)
    for path in (reviews_path, restaurants_path, Path(args.lexicons)):
        if not path.exists():
            raise InputError(f"missing input {path}")
    seed = _resolve(args, config, "seed")
    reviews = load_reviews(reviews_path)
    restaurants = load_restaurants(restaurants_path)
    lexicons = load_lexicons(args.lexicons)
    if not reviews:
        print("warning: reviews file has no records", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        for r in reviews:
            fh.write(json.dumps({
                "review_id": r.review_id,
                "restaurant_id": r.restaurant_id,
                "user_id": r.user_id,
                "stars": r.stars,
                "annotated_label": r.annotated_label,
                "tokens": normalize(r.text, lexicons),
                "seed": seed,
            }, sort_keys=True) + "\n")
    print(f"ingested {len(reviews)} reviews, {len(restaurants)} restaurants (seed={seed})")
    return 0


def _parse_label_mode(value):
    """'manual' or 'threshold:T' as fragment_labels_for's (mode, threshold)."""
    if value == "manual":
        return "manual", None
    if value.startswith("threshold:"):
        try:
            return "threshold", float(value.split(":", 1)[1])
        except ValueError:
            raise InvalidConfig(f"bad threshold in {value!r}")
    raise InvalidConfig(f"labels must be 'manual' or 'threshold:T', got {value!r}")


def cmd_train_sentiment(args, config):
    mode, threshold = _parse_label_mode(args.labels)
    seed = _resolve(args, config, "seed")
    corpus = load_corpus_dir(args.corpus)
    token_map = pipeline.normalize_reviews(corpus.reviews, corpus.lexicons)
    fragments = pipeline.make_fragments(corpus.reviews, token_map, corpus.items)
    labels = pipeline.fragment_labels_for(corpus, fragments, mode, threshold)
    labeled = [f for f in fragments if (f.review_id, f.item_id) in labels]
    train_frags, test_frags = evalx.train_test_split(
        labeled, 0.8, seed, _resolve(args, config, "split_round")
    )
    ignored = [f"--{flag}" for flag in ("epochs", "lr") if getattr(args, flag) is not None]
    if ignored and args.model not in pipeline.STEPPED_KINDS:
        print(f"warning: --model {args.model} ignores {' and '.join(ignored)}", file=sys.stderr)
    model, vocab = pipeline.train_sentiment(args.model, train_frags, labels, seed=seed,
                                            epochs=args.epochs, lr=args.lr)
    from .sentiment import classify_fragment

    preds = []
    golds = []
    for f in test_frags:
        score = classify_fragment(list(f.tokens), model, vocab)
        preds.append("positive" if score > 0 else "negative")
        golds.append(labels[(f.review_id, f.item_id)])
    f1 = evalx.f_score(preds, golds) if preds else float("nan")
    save_model(model, args.out, vocab=vocab, seed=seed)
    print(
        f"model={args.model} labels={args.labels} train={len(train_frags)} "
        f"test={len(test_frags)} f_score={f1:.4f} seed={seed}"
    )
    return 0


def _lookup_item(corpus, item_arg):
    for item in corpus.items:
        if item_arg == str(item.item_id) or item_arg.lower() == item.canonical_name.lower():
            return item.item_id
    raise QueryError(f"unknown item {item_arg!r}")


def cmd_recommend(args, config):
    corpus = load_corpus_dir(args.corpus)
    seed = _resolve(args, config, "seed")
    item_id = _lookup_item(corpus, args.item)
    neighbors = _resolve(args, config, "neighbors")
    engine = pipeline.build_recommender(
        corpus, seed=seed,
        sentiment_kind=_resolve(args, config, "sentiment"),
        blend_weight=_resolve(args, config, "blend_weight"),
        n_neighbors=neighbors or None,
        eq1_center=_resolve(args, config, "eq1_center"),
        with_fm=args.method == "fm",
    )
    if args.user not in engine.matrix.user_index and args.method in ("user", "item", "fm"):
        raise QueryError(f"unknown user {args.user!r}")
    ranked = engine.recommend_top_k(
        args.user, item_id, method=args.method,
        k=_resolve(args, config, "top_k"),
        side_weight=_resolve(args, config, "side_weight"),
    )
    print(f"# seed={seed} method={args.method} item={item_id}")
    for restaurant_id, score in ranked:
        print(f"{restaurant_id}\t{score:.4f}")
    return 0


def _item_token(name: str) -> str:
    return "_".join(name.lower().split())


def cmd_sides(args, config):
    corpus = load_corpus_dir(args.corpus)
    seed = _resolve(args, config, "seed")
    token_map = pipeline.normalize_reviews(corpus.reviews, corpus.lexicons)
    fragments = pipeline.make_fragments(corpus.reviews, token_map, corpus.items)
    if args.method == "louvain":
        graph = build_comention_graph(fragments, all_items=[it.item_id for it in corpus.items])
        partition = louvain(graph)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# seed={seed}\n")
            for item_id in sorted(partition):
                fh.write(f"{item_id}\t{partition[item_id]}\n")
        print(f"communities={len(set(partition.values()))} items={len(partition)} seed={seed}")
    else:
        names = {it.item_id: _item_token(it.canonical_name) for it in corpus.items}
        by_restaurant: dict[str, list[str]] = {}
        review_rest = {r.review_id: r.restaurant_id for r in corpus.reviews}
        for f in fragments:
            by_restaurant.setdefault(review_rest[f.review_id], []).append(names[f.item_id])
        docs = [by_restaurant[rid] for rid in sorted(by_restaurant)]
        model = lda_train(docs, n_topics=args.topics, iterations=args.iterations, seed=seed)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# seed={seed}\n")
            for k in range(model.n_topics):
                probs = model.word_probabilities(k)
                for token in top_words(model, k, 10):
                    w = model.vocab_tokens.index(token)
                    fh.write(f"{k}\t{token}\t{probs[w]:.6f}\n")
        print(f"topics={model.n_topics} documents={len(docs)} seed={seed}")
    return 0


def cmd_evaluate(args, config):
    corpus = load_corpus_dir(args.corpus)
    seed = _resolve(args, config, "seed")
    # method comparison defaults: k=5 and no side-affinity term unless asked
    reports = evalx.run_benchmark(
        corpus, methods=args.methods, seed=seed,
        relevance=_resolve(args, config, "relevance"),
        top_k=_resolve(args, config, "top_k", default=5),
        side_weight=_resolve(args, config, "side_weight", default=0.0),
        blend_weight=_resolve(args, config, "blend_weight"),
    )
    doc = {"seed": seed, "reports": [r.to_dict() for r in reports]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(evalx.format_report_table(reports))
    return 0


def cmd_synth(args, config):
    seed = _resolve(args, config, "seed")
    corpus = synth_corpus(seed, args.users, args.restaurants, args.items, noise=args.noise)
    write_corpus_dir(corpus, args.out)
    print(
        f"wrote {len(corpus.reviews)} reviews for {args.users} users, "
        f"{args.restaurants} restaurants, {args.items} items (seed={seed})"
    )
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "train-sentiment": cmd_train_sentiment,
    "recommend": cmd_recommend,
    "sides": cmd_sides,
    "evaluate": cmd_evaluate,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        config = {}
        config_path = args.config or os.environ.get("FIDUCIA_CONFIG")
        if config_path:
            config = load_config(config_path)
        return _COMMANDS[args.command](args, config)
    except (InputError, OSError, ValueError) as exc:
        # an unreadable input, an unwritable --out or a ValueError that no
        # check caught is still a bad input, never a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
