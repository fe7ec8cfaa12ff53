"""Run every workload once untraced and once traced; print all metrics.

Usage, from the root of a ttlab checkout::

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints each end-to-end metric by workload, name and unit, the
failed fraction, and the layer shares that tell the workloads apart.
Exits 1 when a run fails its output checks or when the traced run does
not separate the layers as the workloads are built to.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload -> (layer self-time metrics, the least share of the traced
# wall time they must hold together).
DOMINANT = {
    "rank_sweep": (("cover.self_s", "linalg.self_s"), 0.9),
    "probe_flow": (("saddle.self_s",), 0.9),
}
# Workload -> per-layer metrics that must read 0.
ABSENT = {
    "classify_mix": ("cover.h1_anti_invariant.calls", "saddle.searches"),
}
# The layer self times plus cli.self_s must be within this share of the
# traced wall time; the rest is the benchmark's own checks.
ATTRIBUTED_TOLERANCE = 0.05


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        print(f"[{workload}] correct = {str(plain['correct'] and traced['correct']).lower()}")
        print(f"failed_frac = {plain['failed'] / plain['attempted']:.6g} "
              f"({plain['failed']} of {plain['attempted']})")
        for metric in bench["end_to_end"]:
            entry = plain["metrics"][metric["name"]]
            print(f"{metric['name']} = {entry['value']:.6g} {entry['unit']}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        problems = []
        if workload in DOMINANT:
            names, least = DOMINANT[workload]
            share = sum(layers[name] for name in names) / layers["trace.wall_s"]
            print(f"share of {' + '.join(names)} = {share:.3f} (at least {least})")
            if share < least:
                problems.append(f"{' + '.join(names)} hold {share:.3f} < {least}")
        for name in ABSENT.get(workload, ()):
            if layers[name] != 0:
                problems.append(f"{name} = {layers[name]:.6g}, expected 0")
        attributed = layers["trace.attributed_frac"]
        if abs(attributed - 1) > ATTRIBUTED_TOLERANCE:
            problems.append(f"trace.attributed_frac = {attributed:.4f} is off 1 "
                            f"by more than {ATTRIBUTED_TOLERANCE}")
        for name in ("cover.h1_anti_invariant.calls", "saddle.searches",
                     "trace.attributed_frac", "trace.overhead_frac"):
            print(f"{name} = {layers[name]:.6g}")
        for problem in problems:
            print(f"layer check failed: {problem}")
        ok = ok and not problems
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
