#!/usr/bin/env python3
"""Steadiness report: run one workload K times and show how much each
metric spreads between runs.

    python3 perfbench/steady.py WORKLOAD [-k 10] [--first-seed 1] [--trace 0|1]

Run from the repository root. Run i uses seed FIRST_SEED + i, with the
`run_seconds` of BENCHMARK.json. For each metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and that spread as a fraction of the metric's bound
in BENCHMARK.json. The benchmark is steady when every fraction is below
1/3 (setup_s is exempt from the spread rule, but not from its bound
between two sets of runs).

It then reruns the first seed and checks that the deterministic metrics
(DETERMINISTIC below) repeat bit for bit; metrics that do not depend on
the seed at all must also agree across every run. A drift exits 1.

Every run must print exactly the manifest's metrics for its mode (all
of end_to_end with --trace 0, all of per_layer with --trace 1); a run
that prints another set fails the report.

Known risks, listed first: serve_max_rps (a rate ladder near
saturation flips rungs), setup_s (a short set-up; it is the median of
repeated set-ups within a run) and cpu_s (CPU time on a shared
machine). serve_max_rps is reported by traced runs only (--trace 1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KNOWN_RISKS = ["serve_max_rps", "setup_s", "cpu_s"]
# Metrics that must repeat exactly for a seed; SEED_FREE ones must not
# depend on the seed either (execute-paper's programs are fixed).
COUNTERS = {"ir.instrs", "ir.vars", "passes.removed", "typeinf.facts",
            "gctd.interference_edges", "gctd.fixpoint_iters", "gctd.slots",
            "analysis.audit_edges", "vm.ops", "runtime.alloc_events",
            "gctd.stack_bytes_total", "codegen.native_failed"}
DETERMINISTIC = {"c_bytes", "runtime.eq2_dyn_kb"} | COUNTERS
# The traced run's execute and serve parts use fixed programs and corpora.
SEED_FREE = {"execute-paper": {"c_bytes"}, "serve-mixed": {"c_bytes"},
             "traced": {"runtime.eq2_dyn_kb", "vm.ops", "runtime.alloc_events",
                        "gctd.stack_bytes_total", "codegen.native_failed"}}


def run_once(workload, seed, seconds, trace, want):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: seed {seed} exited {out.returncode}")
    doc = json.loads(lines[-1])
    if not doc["correct"] or doc["failed"]:
        print(f"steady: seed {seed}: correct={doc['correct']} failed={doc['failed']}")
    if set(doc["metrics"]) != want:
        sys.exit(f"steady: seed {seed} printed metrics {sorted(set(doc['metrics']) ^ want)} "
                 "not matching the manifest")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    want = {m["name"] for m in bench["per_layer" if a.trace else "end_to_end"]}

    runs = []
    for i in range(a.k):
        runs.append(run_once(a.workload, a.first_seed + i, bench["run_seconds"], a.trace, want))
        vals = " ".join(f"{n}={v:.6g}" for n, v in runs[-1].items() if n in bounds)
        print(f"run {i + 1}/{a.k} (seed {a.first_seed + i}): {vals}", file=sys.stderr)

    names = sorted(runs[0], key=lambda n: (n not in KNOWN_RISKS, n))
    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'/bound':>8}")
    for n in names:
        vals = [r[n] for r in runs if n in r]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        b = bounds.get(n)
        frac = f"{spread / b:8.2f}" if b else "       -"
        risk = "  (known risk)" if n in KNOWN_RISKS else ""
        print(f"{n:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{frac}{risk}")

    drift = []
    again = run_once(a.workload, a.first_seed, bench["run_seconds"], a.trace, want)
    for n in DETERMINISTIC & set(again):
        if again[n] != runs[0][n]:
            drift.append(f"{n}: {runs[0][n]!r} then {again[n]!r} for seed {a.first_seed}")
    seed_free = SEED_FREE["traced"] if a.trace else SEED_FREE.get(a.workload, set())
    for n in seed_free & set(again):
        if len({r[n] for r in runs}) != 1:
            drift.append(f"{n} differs between seeds: {sorted({r[n] for r in runs})}")
    for d in drift:
        print(f"DRIFT {d}")
    print("deterministic metrics repeat exactly" if not drift else "DETERMINISM CHECK FAILED")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
