"""Run the benchmark several times and show how steady each end-to-end metric is.

    python3 perfbench/steady.py                        # every workload once: all metrics
    python3 perfbench/steady.py --workload large --runs 10 --sets 2
    python3 perfbench/steady.py --workload small --runs 5 --overhead

Each run is ``run.py`` in its own process, for BENCHMARK.json's
``run_seconds``, with its own seed (set A uses
seeds seed0, seed0+1, ...; set B seed0+1000, ...); the runs of two sets
alternate. For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, and
min/max, next to the metric's bound in BENCHMARK.json. With ``--sets 2`` it
also prints how far set B's median moved from set A's, in the worse
direction. With ``--overhead`` it alternates untraced and traced runs and
prints traced minus untraced for every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# traced end-to-end: "):
            result["traced_e2e"] = json.loads(line.split(": ", 1)[1])
    return result


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "min": min(values), "max": max(values)}


def show_set(label, runs, spec):
    print(f"\n{label}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
          f"failed {[r['failed'] for r in runs]}, correct {all(r['correct'] for r in runs)}")
    if len(runs) < 2:
        for m in spec:
            metric = runs[0]["metrics"][m["name"]]
            print(f"  {m['name']:<14} {metric['value']:>12.4f} {metric['unit']}")
        return {}
    print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
          f"{'bound':>6} {'min':>11} {'max':>11}")
    table = {}
    for m in spec:
        s = table[m["name"]] = stats([r["metrics"][m["name"]]["value"] for r in runs])
        flag = "" if s["spread"] < m["bound"] / 3 else "  > bound/3"
        print(f"  {m['name']:<14} {s['median']:>11.4f} {s['q1']:>11.4f} {s['q3']:>11.4f} "
              f"{s['spread']:>7.3f} {m['bound']:>6.2f} {s['min']:>11.4f} {s['max']:>11.4f}{flag}")
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                        help="default: every workload")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    e2e = SPEC["end_to_end"]
    workloads = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]

    for workload in workloads:
        sets = {"A": [], "B": []}
        traced = []
        for i in range(args.runs):
            sets["A"].append(one_run(workload, args.seed0 + i, 0))
            if args.sets == 2:
                sets["B"].append(one_run(workload, args.seed0 + 1000 + i, 0))
            if args.overhead:
                traced.append(one_run(workload, args.seed0 + i, 1))
        a = show_set(f"{workload} set A", sets["A"], e2e)
        if args.sets == 2:
            b = show_set(f"{workload} set B", sets["B"], e2e)
            print(f"  median shift of B from A, worse direction (bound):")
            for m in e2e:
                shift = (b[m["name"]]["median"] - a[m["name"]]["median"]) / a[m["name"]]["median"]
                worse = shift if m["better"] == "lower" else -shift
                flag = "  > bound" if worse > m["bound"] else ""
                print(f"    {m['name']:<14} {worse:+.3f} ({m['bound']:.2f}){flag}")
            share = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                     for k, v in sets.items()}
            print(f"  failed share A {share['A']:.6f}, B {share['B']:.6f}")
        if args.overhead and len(traced) > 1:
            print(f"  tracing overhead (traced median - untraced median):")
            for m in e2e:
                on = statistics.median(r["traced_e2e"][m["name"]] for r in traced)
                off = a[m["name"]]["median"]
                print(f"    {m['name']:<14} {on - off:+12.4f} {m['unit']:<10} "
                      f"({(on - off) / off:+.1%})")


if __name__ == "__main__":
    main()
