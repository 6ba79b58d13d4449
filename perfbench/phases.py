"""One phase of a benchmark run, in its own process: serve, evaluate or train.

    python3 perfbench/phases.py --phase serve --users 100 --restaurants 20 \
        --items 24 --seed 1 --seconds 10 --trace 0 --workdir perfbench/out/x

The phase runs its set-up (timed), then slices of its operations until
``--seconds`` have passed and it has had MIN_SLICES slices, then its checks,
outside every timed region. It prints its result as one JSON line; anything
the package prints goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer, per_call

sys.path.insert(0, str(checks.ROOT / "src"))

from dishrec import cf, cli, evalx, fm, lstm, modelio, pipeline, sentiment  # noqa: E402
from dishrec.synth import synth_corpus, write_corpus_dir  # noqa: E402

SETUPS = 3                                   # evaluate/train set-up repeats; the median is reported
SERVE_METHODS = ("baseline", "user", "item", "fm")
TOP_K, SIDE_WEIGHT = 10, 0.2                 # CLI defaults of `dishrec recommend`
SERVE_SLICE_ROUNDS = 476                     # distinct queries per serve slice; `small` has
                                             # 100 users x 24 items = 2400 of them
WARMUP_ROUNDS, CHECKED_ROUNDS = 20, 25
EVAL_METHODS = ("baseline", "user", "item")  # FM off: no FM work in this phase
MIN_SLICES = 2                               # repeated calls for the determinism checks; 3 builds
NB_BATCH = 8                                 # nb is ~0.1 s; a batch spans a useful time
LSTM_EPOCHS, LDA_ITERATIONS, LDA_TOPICS = 3, 200, 10

MS, US = 1e-6, 1e-3  # ns -> ms, ns -> us


class Phase:
    """Counts, timings and problems of one phase."""

    layers = None  # (Tracer) -> per-layer metrics of this phase

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.slices = 0
        self.problems: list[str] = []
        self.setup_s = None
        self.tracer = Tracer() if args.trace else None
        if self.tracer:
            install(self.tracer)

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds) or (None, None) on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None, None
        return result, time.perf_counter() - t0

    def run(self, seconds):
        self.setup()
        deadline = time.perf_counter() + seconds
        while self.has_work() and (self.slices < MIN_SLICES or time.perf_counter() < deadline):
            self.slice()
            self.slices += 1
        return self.finish()

    def has_work(self):
        return True

    def finish(self):
        if self.tracer:
            self.tracer.uninstall()
        e2e, info = self.check()
        if self.failed:
            self.problems.append(f"{self.args.phase}: {self.failed} of {self.attempted} "
                                 "operations failed")
        self.problems += [f"{self.args.phase}: no successful samples for {name}"
                          for name, value in e2e.items() if value is None]
        result = {
            "phase": self.args.phase, "setup_s": self.setup_s, "attempted": self.attempted,
            "failed": self.failed, "problems": self.problems[:20],
            "n_problems": len(self.problems), "e2e": e2e, "info": info,
        }
        if self.tracer:
            result["layers"] = type(self).layers(self.tracer)
            result["missing_names"] = self.tracer.missing
            result["spans"] = len(self.tracer.spans)
            self.tracer.write(Path(self.args.workdir) / f"trace-{self.args.phase}.json")
        return result


def setup_median(fn):
    times = []
    result = None
    for _ in range(SETUPS):
        result = None  # drop the previous result so peak memory holds one copy
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


# ---------------------------------------------------------------------------
# tracing: where spans are recorded

def _method(default):
    def tag(args, kwargs):
        return kwargs.get("method", args[3] if len(args) > 3 else default)
    return tag


def _fm_steps(args, kwargs, result):
    n = len(args[0])
    validation = kwargs.get("validation")
    n_train = n - max(1, int(round(0.1 * n))) if validation is None else n
    return kwargs.get("epochs", 100) * n_train


def install(tr: Tracer):
    """Wrap the names callers resolve at call time, one span per layer call."""
    def size(args, kwargs, result):
        return len(result)

    wrap = tr.wrap
    # set-up of a query engine; used by serve and by evaluate's build
    wrap(pipeline, "build_recommender", "pipeline.build")
    wrap(pipeline, "normalize_reviews", "corpus.normalize")
    wrap(pipeline, "make_fragments", "fragmenter.fragments", value=size)
    wrap(pipeline, "fragment_labels_for", "pipeline.labels")
    wrap(pipeline, "train_sentiment", "sentiment.train")
    wrap(pipeline, "score_fragments", "sentiment.score")
    wrap(pipeline, "build_rating_matrix", "cf.matrix", value=lambda a, k, m: (
        m.n_users, m.n_columns, int(m.mask.sum())))
    wrap(pipeline, "build_comention_graph", "sides.graph")
    wrap(pipeline, "louvain", "sides.louvain", value=lambda a, k, p: len(set(p.values())))
    wrap(pipeline, "build_fm_dataset", "fm.dataset")
    wrap(pipeline, "fm_train", "fm.train", value=_fm_steps)
    wrap(cf.Recommender, "__init__", "cf.recommender")
    wrap(cf, "user_similarity", "cf.similarity")
    wrap(cf, "column_similarity", "cf.similarity")
    # the query path
    wrap(cf.Recommender, "recommend_top_k", "cf.topk", tag=_method("user"))
    wrap(cf.Recommender, "predict", "cf.predict", tag=_method(None))
    wrap(cf.Recommender, "side_score", "cf.side_score")
    wrap(cf.RatingMatrix, "columns_for_item", "cf.columns_for_item", value=size)
    wrap(cf, "positive_counts", "cf.positive_counts")
    wrap(cf, "predict_user_item", "cf.predict_user")
    wrap(cf, "predict_item_item", "cf.predict_item")
    wrap(fm, "fm_predict", "fm.predict", skip_under="fm.train")
    # offline evaluation
    wrap(evalx, "run_benchmark", "evalx.run")
    wrap(evalx, "train_test_split", "evalx.split")
    wrap(evalx, "build_recommender", "evalx.build")
    wrap(evalx, "normalize_reviews", "corpus.normalize")
    wrap(evalx, "make_fragments", "fragmenter.fragments", value=size)
    wrap(evalx, "_held_out_truth", "evalx.truth")
    # commands
    wrap(cli, "main", "cli.main")
    wrap(cli, "load_corpus_dir", "corpus.load")
    wrap(cli, "save_model", "modelio.save")
    wrap(cli, "lda_train", "sides.lda", value=lambda a, k, m: (
        k.get("iterations", 500) * sum(len(d) for d in m.docs)))
    wrap(lstm, "lstm_train", "lstm.train", value=lambda a, k, r: (
        k.get("epochs", 50) * sum(len(indices) for indices, _ in a[0])))
    wrap(sentiment, "classify_fragment", "sentiment.classify")


def _ms_per(tr, name, calls, parent=None, tag=None):
    return per_call(tr.total_ns(name, parent, tag) * MS, calls)


def _us_each(tr, name, parent=None, tag=None):
    spans = tr.select(name, parent, tag)
    return per_call(sum(s[2] - s[1] for s in spans) * US, len(spans))


def _mean_value(spans, index=None):
    values = [s[5] if index is None else s[5][index] for s in spans]
    return per_call(sum(values), len(values))


def serve_layers(tr: Tracer):
    builds = len(tr.select("pipeline.build"))
    covered = tr.child_ns()
    build_spans = [(i, s) for i, s in enumerate(tr.spans) if s[0] == "pipeline.build"]
    build_ns = sum(s[2] - s[1] for _, s in build_spans)
    fm_train = tr.select("fm.train")
    steps = sum(s[5] for s in fm_train)
    cf_queries = len(tr.select("cf.topk", tag="user")) + len(tr.select("cf.topk", tag="item"))
    return {
        "pipeline.build_s": per_call(build_ns * 1e-9, builds),
        "pipeline.build_child_pct": per_call(100.0 * sum(covered[i] for i, _ in build_spans), build_ns),
        "sentiment.train_ms": _ms_per(tr, "sentiment.train", builds),
        "sentiment.score_ms": _ms_per(tr, "sentiment.score", builds),
        "cf.matrix_ms": _ms_per(tr, "cf.matrix", builds),
        "cf.users": _mean_value(tr.select("cf.matrix"), 0),
        "cf.columns": _mean_value(tr.select("cf.matrix"), 1),
        "cf.nnz": _mean_value(tr.select("cf.matrix"), 2),
        "cf.similarity_ms": _ms_per(tr, "cf.similarity", builds),
        "sides.louvain_ms": _ms_per(tr, "sides.louvain", builds),
        "sides.communities": _mean_value(tr.select("sides.louvain")),
        "fm.dataset_ms": _ms_per(tr, "fm.dataset", builds),
        "fm.train_ms": _ms_per(tr, "fm.train", builds),
        "fm.sgd_steps": per_call(steps, len(fm_train)),
        "fm.step_us": per_call(tr.total_ns("fm.train") * US, steps),
        "cf.predict_user_us": _us_each(tr, "cf.predict_user"),
        "cf.predict_item_us": _us_each(tr, "cf.predict_item"),
        "cf.predict_calls": per_call(
            len(tr.select("cf.predict_user")) + len(tr.select("cf.predict_item")), cf_queries),
        "fm.predict_us": _us_each(tr, "fm.predict"),
        "cf.positive_counts_us": _us_each(tr, "cf.positive_counts"),
        "cf.side_score_us": _us_each(tr, "cf.side_score"),
        "cf.candidates": _mean_value(tr.select("cf.columns_for_item")),
    }


def evaluate_layers(tr: Tracer):
    calls = len(tr.select("evalx.run"))
    layers = {
        "evalx.split_ms": _ms_per(tr, "evalx.split", calls),
        "evalx.build_ms": _ms_per(tr, "evalx.build", calls),
        "evalx.truth_ms": _ms_per(tr, "evalx.truth", calls),
        "evalx.self_ms": per_call(tr.self_ns("evalx.run") * MS, calls),
        "evalx.pairs": per_call(len(tr.select("cf.predict", "evalx.run")), calls * len(EVAL_METHODS)),
        "evalx.queries": per_call(len(tr.select("cf.topk", "evalx.run")), calls * len(EVAL_METHODS)),
    }
    for m in EVAL_METHODS:
        layers[f"evalx.predict_{m}_ms"] = _ms_per(tr, "cf.predict", calls, "evalx.run", m)
        layers[f"evalx.topk_{m}_ms"] = _ms_per(tr, "cf.topk", calls, "evalx.run", m)
    return layers


def train_layers(tr: Tracer):
    commands = len(tr.select("cli.main"))
    model_commands = len(tr.select("modelio.save"))
    lstm_spans = tr.select("lstm.train")
    tokens = sum(s[5] for s in lstm_spans)
    lda_spans = tr.select("sides.lda")
    return {
        "corpus.load_ms": _ms_per(tr, "corpus.load", commands),
        "corpus.normalize_ms": _ms_per(tr, "corpus.normalize", commands),
        "fragmenter.fragments_ms": _ms_per(tr, "fragmenter.fragments", commands),
        "fragmenter.fragments": _mean_value(tr.select("fragmenter.fragments")),
        "lstm.train_ms": _ms_per(tr, "lstm.train", len(lstm_spans)),
        "lstm.token_steps": per_call(tokens, len(lstm_spans)),
        "lstm.token_us": per_call(tr.total_ns("lstm.train") * US, tokens),
        "sentiment.classify_ms": _ms_per(tr, "sentiment.classify", model_commands),
        "modelio.save_ms": _ms_per(tr, "modelio.save", model_commands),
        "sides.lda_ms": _ms_per(tr, "sides.lda", len(lda_spans)),
        "sides.lda_token_sweeps": _mean_value(lda_spans),
        "cli.self_ms": per_call(tr.self_ns("cli.main") * MS, commands),
    }


# ---------------------------------------------------------------------------
# what the checks compare against

def evaluate_references(corpus, seed):
    """The held-out pair count, and each method's (rmse, mae) recomputed from
    its own predictions on those pairs against the gold ratings."""
    pairs, train_reviews = checks.held_out_pairs(corpus, seed)
    engine = pipeline.build_recommender(corpus, seed=seed, with_fm=False, reviews=train_reviews)
    golds = [corpus.gold_ratings[(u, rid, item)] for u, (rid, item) in pairs]
    return len(pairs), {
        m: checks.error_metrics([engine.predict(u, c, m) for u, c in pairs], golds)
        for m in EVAL_METHODS
    }


def saved_model_scores(corpus, model_path, seed):
    """Scores of the reloaded model on every labelled fragment, and on the
    seeded test split that train-sentiment reports its f_score on."""
    model, vocab = modelio.load_model(model_path)
    token_map = pipeline.normalize_reviews(corpus.reviews, corpus.lexicons)
    fragments = pipeline.make_fragments(corpus.reviews, token_map, corpus.items)
    labelled = [f for f in fragments if (f.review_id, f.item_id) in corpus.fragment_labels]
    train_frags, test_frags = checks.seeded_split(labelled, seed)

    def scores(frags):
        return [sentiment.classify_fragment(list(f.tokens), model, vocab) for f in frags]

    def labels(frags):
        return [corpus.fragment_labels[(f.review_id, f.item_id)] for f in frags]

    return {"scores": scores(labelled), "labels": labels(labelled),
            "test_scores": scores(test_frags), "test_labels": labels(test_frags),
            "n_train": len(train_frags)}


# ---------------------------------------------------------------------------
# phases

class Serve(Phase):
    """Top-k queries, each answered by every method in turn. Each slice
    rebuilds the engine, one set-up sample, and answers the next
    SERVE_SLICE_ROUNDS distinct queries; the phase ends early if every
    distinct query has been answered, so no query is answered twice."""

    layers = serve_layers

    def setup(self):
        a = self.args
        self.corpus = synth_corpus(a.seed, a.users, a.restaurants, a.items)
        self.builds = []
        self.build()
        # distinct (user, item) queries in a seeded order, drawn from the inputs
        pool = [(u, it.item_id) for u in sorted({r.user_id for r in self.corpus.reviews})
                for it in self.corpus.items]
        self.queries = [pool[j] for j in np.random.default_rng(a.seed).permutation(len(pool))]
        self.serving = checks.serving_restaurants(self.engine.scored_fragments)
        for user, item in self.queries[:WARMUP_ROUNDS]:
            for method in SERVE_METHODS:
                self.answer(user, item, method)
        self.next_query = WARMUP_ROUNDS
        self.spent = dict.fromkeys(SERVE_METHODS, 0.0)
        self.samples = {m: [] for m in SERVE_METHODS}
        self.sampled = []

    def build(self):
        self.engine = None  # drop the previous engine so peak memory holds one copy
        t0 = time.perf_counter()
        self.engine = pipeline.build_recommender(self.corpus, seed=self.args.seed)
        self.builds.append(time.perf_counter() - t0)
        self.setup_s = statistics.median(self.builds)

    def answer(self, user, item, method):
        return self.engine.recommend_top_k(user, item, method=method, k=TOP_K,
                                           side_weight=SIDE_WEIGHT)

    def has_work(self):
        return self.next_query < len(self.queries)

    def slice(self):
        batch = self.queries[self.next_query:self.next_query + SERVE_SLICE_ROUNDS]
        self.next_query += len(batch)
        self.build()
        self.sampled = []  # checked against the engine that answered them
        for n, (user, item) in enumerate(batch):
            for method in SERVE_METHODS:  # interleaved: every method sees the same machine states
                ranked, seconds = self.attempt(self.answer, user, item, method)
                if ranked is None:
                    continue
                self.spent[method] += seconds
                self.samples[method].append(seconds)
                self.problems += checks.check_list_shape(ranked, TOP_K, len(self.serving[item]))
                if n < CHECKED_ROUNDS:
                    self.sampled.append((user, item, method, ranked))

    def finish(self):
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return super().finish()

    def check(self):
        engine = self.engine
        self.problems += checks.check_matrix(engine.matrix, engine.scored_fragments)
        ref = checks.ServeReference(engine.scored_fragments, engine.partition, engine.fm_model,
                                    checks.load_oracles(), side_weight=SIDE_WEIGHT)
        for user, item, method, ranked in self.sampled:
            self.problems += [f"{method} {user} {item}: {p}" for p in
                              checks.check_ranking(ranked, ref.scores(user, item, method), TOP_K)]
        info = {"rounds": self.next_query - WARMUP_ROUNDS, "distinct_queries": len(self.queries),
                "builds": len(self.builds), "checked_queries": len(self.sampled)}
        for m in SERVE_METHODS:
            ms = sorted(1e3 * s for s in self.samples[m])
            info[f"{m}_median_ms"] = statistics.median(ms) if ms else None
            # a p99 needs at least ten samples beyond it
            info[f"{m}_p99_ms"] = ms[int(0.99 * len(ms))] if len(ms) >= 1000 else None
            info[f"{m}_samples"] = len(ms)
        e2e = {f"{m}_qps": per_call(len(self.samples[m]), self.spent[m]) for m in SERVE_METHODS}
        e2e["peak_rss_mb"] = self.peak_rss_mb
        return e2e, info


class Evaluate(Phase):
    """Offline evaluation; one slice is one run_benchmark call."""

    layers = evaluate_layers

    def setup(self):
        a = self.args
        self.corpus, self.setup_s = setup_median(
            lambda: synth_corpus(a.seed, a.users, a.restaurants, a.items))
        self.times, self.results, self.reports = [], [], None

    def slice(self):
        reports, seconds = self.attempt(evalx.run_benchmark, self.corpus,
                                        methods=EVAL_METHODS, seed=self.args.seed)
        if reports is not None:
            self.reports = reports
            self.times.append(seconds)
            self.results.append([r.to_dict() for r in reports])

    def check(self):
        n_pairs = 0
        if self.results:
            if any(r != self.results[0] for r in self.results[1:]):
                self.problems.append("evaluate: repeated calls with one seed disagree")
            n_pairs, recomputed = evaluate_references(self.corpus, self.args.seed)
            self.problems += checks.check_reports(self.reports, n_pairs, recomputed)
        info = {"calls": len(self.times), "pairs": n_pairs}
        return {"eval_s": per_call(sum(self.times), len(self.times))}, info


class Train(Phase):
    """Training commands through the in-process CLI; one slice is one round:
    a batch of nb commands, one lstm command and one lda command."""

    layers = train_layers
    plan = (("nb", NB_BATCH), ("lstm", 1), ("lda", 1))

    def setup(self):
        a = self.args
        corpus_dir = Path(a.workdir) / "corpus"

        def write():
            corpus = synth_corpus(a.seed, a.users, a.restaurants, a.items)
            write_corpus_dir(corpus, corpus_dir)
            return corpus

        self.corpus, self.setup_s = setup_median(write)
        seed = str(a.seed)
        self.outputs = {k: corpus_dir / name for k, name in
                        (("nb", "nb.json"), ("lstm", "lstm.json"), ("lda", "topics.tsv"))}
        self.commands = {
            "nb": ["train-sentiment", "--model", "nb", "--corpus", str(corpus_dir),
                   "--labels", "manual", "--out", str(self.outputs["nb"]), "--seed", seed],
            "lstm": ["train-sentiment", "--model", "lstm", "--corpus", str(corpus_dir),
                     "--labels", "manual", "--out", str(self.outputs["lstm"]), "--seed", seed,
                     "--epochs", str(LSTM_EPOCHS)],
            "lda": ["sides", "--corpus", str(corpus_dir), "--method", "lda",
                    "--out", str(self.outputs["lda"]), "--seed", seed,
                    "--topics", str(LDA_TOPICS), "--iterations", str(LDA_ITERATIONS)],
        }
        self.spent = {k: 0.0 for k, _ in self.plan}
        self.done = {k: 0 for k, _ in self.plan}
        self.first = {}

    def slice(self):
        for kind, repeat in self.plan:
            for _ in range(repeat):
                stdout, seconds = self.attempt(run_command, self.commands[kind])
                if stdout is None:
                    continue
                self.spent[kind] += seconds
                self.done[kind] += 1
                data = self.outputs[kind].read_bytes()
                if kind in self.first:
                    self.problems += checks.check_rerun(self.first[kind][0], data, kind)
                else:
                    self.first[kind] = (data, stdout)

    def check(self):
        for kind in ("nb", "lstm"):
            if kind not in self.first:
                continue
            try:
                s = saved_model_scores(self.corpus, self.outputs[kind], self.args.seed)
            except Exception as exc:  # a model that does not reload is a wrong output
                self.problems.append(f"{kind}: saved model does not reload: {exc!r}")
                continue
            self.problems += checks.check_accuracy(s["scores"], s["labels"], kind)
            self.problems += checks.check_printed_f_score(
                self.first[kind][1], s["test_scores"], s["test_labels"], s["n_train"], kind)
        if "lda" in self.first:
            self.problems += checks.check_topics(self.first["lda"][0].decode("utf-8"), LDA_TOPICS)
        e2e = {f"{k}_s": per_call(self.spent[k], self.done[k]) for k in self.spent}
        return e2e, {"rounds": self.slices, **{f"{k}_commands": n for k, n in self.done.items()}}


def run_command(argv):
    """One in-process `dishrec` command; returns what it printed. A non-zero
    exit raises, so the operation counts as failed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dishrec {argv[0]} exited {code}")
    return out.getvalue()


PHASES = {"serve": Serve, "evaluate": Evaluate, "train": Train}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True, choices=sorted(PHASES))
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--restaurants", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    Path(args.workdir).mkdir(parents=True, exist_ok=True)

    out = sys.stdout
    sys.stdout = sys.stderr  # anything the package prints stays off the result line
    result = PHASES[args.phase](args).run(args.seconds)
    out.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
