"""dishrec benchmark: one run of one workload.

    python3 perfbench/run.py --workload small --seed 1 --seconds 20 --trace 0

A run executes the three phases of the workload one after another, each in
its own process for a third of ``--seconds`` (see ``phases.py``): ``serve``
answers top-k queries with every method, ``evaluate`` runs the offline
evaluation, and ``train`` runs the training commands. With ``--trace 0`` the
last line of standard output holds every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric
instead, from spans recorded around the package's public calls. The lines
before it give per-phase details for reference.
Exits 1 when a correctness check or an operation fails, or a metric has
no samples; 2 when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# corpus sizes (users, restaurants, items); each user reviews 8 restaurants
WORKLOADS = {
    "small": (100, 20, 24),
    "large": (200, 40, 24),
}
PHASES = ("serve", "evaluate", "train")
RUN_LIMIT_S = 170  # a phase still running by then is killed


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_phase(phase, sizes, seed, seconds, trace, workdir, deadline):
    """One phase in its own process; returns the result it prints last."""
    users, restaurants, items = sizes
    cmd = [sys.executable, str(HERE / "phases.py"), "--phase", phase,
           "--users", str(users), "--restaurants", str(restaurants), "--items", str(items),
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"phase {phase}: the run was not over within {RUN_LIMIT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"phase {phase}: exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    for needed in (ROOT / "src" / "dishrec" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            fail(f"missing {needed.relative_to(ROOT)}: run from a dishrec checkout")
    end_to_end, per_layer = declared_metrics()

    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        results = {p: run_phase(p, WORKLOADS[args.workload], args.seed,
                                args.seconds / len(PHASES), args.trace, workdir / p,
                                start + RUN_LIMIT_S)
                   for p in PHASES}
        for phase in results if args.trace else ():  # keep the span files
            (workdir / phase / f"trace-{phase}.json").replace(
                HERE / "out" / f"trace-{args.workload}-{phase}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # drop the generated corpora

    measured = {"setup_s": sum(r["setup_s"] for r in results.values())}
    layers = {}
    for phase, r in results.items():
        measured.update(r["e2e"])
        layers.update(r.get("layers", {}))
        print(f"# {phase}: setup_s={r['setup_s']:.4f} attempted={r['attempted']} "
              f"failed={r['failed']} problems={r['n_problems']} {json.dumps(r['info'])}")
        for problem in r["problems"]:
            print(f"#   problem: {problem}")
        if r.get("missing_names"):
            print(f"#   not traced (no such name): {r['missing_names']}")
    if args.trace:
        print(f"# traced end-to-end: {json.dumps(measured)}")
        print(f"# spans: {json.dumps({p: r['spans'] for p, r in results.items()})}")
        shown, units = layers, per_layer
    else:
        shown, units = measured, end_to_end
    if set(shown) != set(units):
        fail(f"measured metrics {sorted(shown)} differ from BENCHMARK.json {sorted(units)}")
    empty = sorted(name for name, value in shown.items() if value is None)
    if empty:
        print(f"#   problem: no samples for {empty}")
    failed = sum(r["failed"] for r in results.values())
    correct = not empty and not failed and all(r["n_problems"] == 0 for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {name: {"value": shown[name], "unit": units[name]} for name in units},
    }))
    print(f"# wall {time.monotonic() - start:.1f} s", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
