"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

On small corpora, each check first runs on the program's real outputs, where
it must pass, and then on a copy with one planted error, where it must fail:
two ranked restaurants swapped, one prediction perturbed, one matrix entry
changed, a list cut short, one confusion count altered, one metric changed,
one label flipped, every score's sign flipped, one topic row changed or
dropped, one byte of a rerun changed. Exits 1 if any check misses its
planted error or rejects a real output.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
from types import SimpleNamespace

import checks
import phases
from phases import EVAL_METHODS, SERVE_METHODS, SIDE_WEIGHT, TOP_K, Phase
from tracer import per_call
from dishrec import evalx, pipeline
from dishrec.synth import synth_corpus, write_corpus_dir

SEED = 5
outcomes = []


def expect(name, planted, problems, should_fail):
    ok = bool(problems) == should_fail
    outcomes.append(ok)
    verdict = ("fails" if problems else "passes") + ("" if ok else "  <-- WRONG")
    print(f"  {name:<22} {planted:<44} {verdict}")


def serve_checks():
    print("serve")
    corpus = synth_corpus(SEED, 40, 10, 12)
    engine = pipeline.build_recommender(corpus, seed=SEED)
    ref = checks.ServeReference(engine.scored_fragments, engine.partition, engine.fm_model,
                                checks.load_oracles(), side_weight=SIDE_WEIGHT)
    serving = checks.serving_restaurants(engine.scored_fragments)
    users = sorted({r.user_id for r in corpus.reviews})
    for method in SERVE_METHODS:
        untied = None
        for user, item in [(users[0], 0), (users[7], 3), (users[21], 5), (users[30], 8)]:
            ranked = engine.recommend_top_k(user, item, method=method, k=TOP_K,
                                            side_weight=SIDE_WEIGHT)
            reference = ref.scores(user, item, method)
            expect(f"ranking {method}", "none", checks.check_ranking(ranked, reference, TOP_K), False)
            expect("list shape", "none", checks.check_list_shape(ranked, TOP_K, len(serving[item])), False)
            steps = [j for j in range(len(ranked) - 1) if ranked[j][1] != ranked[j + 1][1]]
            if steps and untied is None:
                untied = ranked, reference, item, steps[0]
        # plant errors in a list whose scores are not all tied
        ranked, reference, item, i = untied
        swapped = list(ranked)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        expect(f"ranking {method}", "two ranked restaurants swapped",
               checks.check_ranking(swapped, reference, TOP_K), True)
        expect("list shape", "two ranked restaurants swapped",
               checks.check_list_shape(swapped, TOP_K, len(serving[item])), True)
        perturbed = list(ranked)
        perturbed[-1] = (perturbed[-1][0], perturbed[-1][1] - 1e-6)
        expect(f"ranking {method}", "one prediction perturbed by 1e-6",
               checks.check_ranking(perturbed, reference, TOP_K), True)
        expect("list shape", "last restaurant dropped (as top_k=-1 does)",
               checks.check_list_shape(ranked[:-1], TOP_K, len(serving[item])), True)

    expect("matrix", "none", checks.check_matrix(engine.matrix, engine.scored_fragments), False)
    matrix = copy.deepcopy(engine.matrix)
    u, j = map(int, next(zip(*matrix.mask.nonzero())))
    matrix.ratings[u, j] += 1e-6
    expect("matrix", "one entry changed by 1e-6",
           checks.check_matrix(matrix, engine.scored_fragments), True)


def evaluate_checks():
    print("evaluate")
    corpus = synth_corpus(SEED, 60, 12, 12)
    reports = evalx.run_benchmark(corpus, methods=EVAL_METHODS, seed=SEED)
    n_pairs, recomputed = phases.evaluate_references(corpus, SEED)
    expect("reports", "none", checks.check_reports(reports, n_pairs, recomputed), False)
    for planted, change in [
        ("one confusion count altered (tp + 1)", {"tp": reports[1].tp + 1}),
        ("rmse changed by 1e-6", {"rmse": reports[2].rmse + 1e-6}),
        ("mae above rmse", {"mae": reports[0].rmse + 0.1}),
        ("precision outside [0, 1]", {"precision": 1.5}),
    ]:
        which = 1 if "tp" in change else 2 if "rmse" in change else 0
        bad = list(reports)
        bad[which] = dataclasses.replace(bad[which], **change)
        expect("reports", planted, checks.check_reports(bad, n_pairs, recomputed), True)


def train_checks():
    print("train")
    workdir = checks.ROOT / "perfbench" / "out" / "selftest"
    corpus = synth_corpus(SEED, 40, 10, 12)
    write_corpus_dir(corpus, workdir)
    try:
        for kind in ("nb", "lstm"):
            out = str(workdir / f"{kind}.json")
            stdout = phases.run_command(["train-sentiment", "--model", kind, "--corpus", str(workdir),
                                    "--labels", "manual", "--out", out, "--seed", str(SEED),
                                    "--epochs", "3"])
            s = phases.saved_model_scores(corpus, out, SEED)
            expect(f"accuracy {kind}", "none", checks.check_accuracy(s["scores"], s["labels"], kind), False)
            expect(f"accuracy {kind}", "every score's sign flipped",
                   checks.check_accuracy([-x for x in s["scores"]], s["labels"], kind), True)
            args = (s["test_scores"], s["test_labels"], s["n_train"], kind)
            expect(f"printed f_score {kind}", "none", checks.check_printed_f_score(stdout, *args), False)
            flipped = list(s["test_labels"])
            flipped[0] = "negative" if flipped[0] == "positive" else "positive"
            expect(f"printed f_score {kind}", "one label flipped",
                   checks.check_printed_f_score(stdout, s["test_scores"], flipped, s["n_train"], kind),
                   True)

        topics = workdir / "topics.tsv"
        argv = ["sides", "--corpus", str(workdir), "--method", "lda", "--out", str(topics),
                "--seed", str(SEED), "--iterations", "50"]
        phases.run_command(argv)
        first = topics.read_bytes()
        phases.run_command(argv)
        again = topics.read_bytes()
        text = first.decode("utf-8")
        expect("topics", "none", checks.check_topics(text), False)
        rows = [line.split("\t") for line in text.splitlines()]
        j = next(j for j in range(1, len(rows) - 1)
                 if rows[j][0] == rows[j + 1][0] and rows[j][2] != rows[j + 1][2])
        rows[j][2], rows[j + 1][2] = rows[j + 1][2], rows[j][2]
        expect("topics", "two probabilities of a topic swapped",
               checks.check_topics("\n".join("\t".join(r) for r in rows)), True)
        expect("topics", "one row dropped", checks.check_topics("\n".join(text.splitlines()[:-1])), True)
        expect("rerun", "none", checks.check_rerun(first, again, "lda"), False)
        expect("rerun", "one byte changed", checks.check_rerun(first, again[:-2] + (b"1" if again[-2:-1] == b"0" else b"0") + b"\n", "lda"), True)

        class OnlyFailures(Phase):
            def check(self):
                return {"lda_s": per_call(0.0, 0)}, {}

        ph = OnlyFailures(SimpleNamespace(trace=0, phase="train"))
        ph.attempt(phases.run_command, ["sides", "--corpus", str(workdir / "missing"),
                                        "--method", "lda", "--out", str(topics)])
        expect("failed count", "a command exits 2", ["counted"] if ph.failed == 1 else [], True)
        result = ph.finish()
        expect("phase result", "its only lda command exits 2",
               [p for p in result["problems"] if "operations failed" in p], True)
        expect("phase result", "no lda_s sample (reported null, not 0)",
               [p for p in result["problems"] if "lda_s" in p and result["e2e"]["lda_s"] is None],
               True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    print(f"  {'check':<22} {'planted error':<44} result")
    serve_checks()
    evaluate_checks()
    train_checks()
    missed = outcomes.count(False)
    print(f"{len(outcomes)} cases, {missed} wrong")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
