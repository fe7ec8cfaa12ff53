"""Benchmark of the ttlab command line, end to end and layer by layer.

Usage, from the root of a ttlab checkout::

    python3 perfbench/run.py --workload rank_sweep --seed 0 --seconds 40 --trace 0

One run writes the workload's seeded inputs (see ``inputs.py``), then
plays its round of ``ttlab`` commands in this interpreter, one
``ttlab.cli.main(argv)`` call after the other (closed loop, one client,
one thread), and repeats the round while another one still fits into
``--seconds``.  Every command's exit code, stderr and stdout are
checked; the stdout digests are compared across rounds, with the
stored references in ``reference/`` and, in a traced run, between
traced and untraced rounds.

``--trace 0`` reports the end-to-end metrics with tracing off: each
command's median latency over the run's rounds and the median round,
scaled by each round's host speed (see ``CAL_MATRIX``), and the set-up
time.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see ``tracer.py``), per round.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give
the same metrics as ``name = value unit`` plus the machine facts.
The full result, digests included, is also written under
``.perfbench_work/`` in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# Reference digests are stored for this seed; every other seed only
# records its digests, so that two commits can be compared.
DEFAULT_SEED = 0

# Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 7

# The tail percentile leaves this many distinct commands beyond it.
TAIL_BEYOND = 10

# The host is shared, and its speed drifts by up to a third for seconds
# to minutes at a time, for ttlab and for any other Python code alike.
# So a run also times a fixed slice of stdlib work, exact Fraction
# elimination like ttlab's own, after every CAL_EVERY_S of command time
# and at the end of each round.  A round's times are scaled by
# CAL_REFERENCE_S over the median of its slices: they read as on a host
# that runs the slice in CAL_REFERENCE_S.  The slice never calls ttlab,
# so a change to ttlab moves the scaled times by the same share as the
# raw ones.  Set-up is not scaled: slices timed right after a set-up
# process follow its times less well than the raw times follow each
# other.
CAL_MATRIX = [[(3 * i + 5 * j) % 11 - 5 for j in range(12)] for i in range(12)]
CAL_EVERY_S = 0.05
CAL_REFERENCE_S = 0.004


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="ttlab CLI benchmark")
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def machine_facts():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or "unknown",
    }


def calibration_slice():
    """Time one fixed slice of Fraction elimination on CAL_MATRIX."""
    start = time.perf_counter()
    m = [[Fraction(x) for x in row] for row in CAL_MATRIX]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return time.perf_counter() - start


def time_setup(workload, seed, work):
    """Time interpreter start, imports and input generation; return dirs."""
    times, dirs = [], []
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"inputs{i}")
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"),
             "--workload", workload, "--seed", str(seed), "--out", out],
            check=True)
        times.append(time.perf_counter() - start)
        dirs.append(out)
    return statistics.median(times), dirs


def _tree_bytes(directory):
    tree = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            tree[name] = handle.read()
    return tree


def tail_percentile(distinct):
    """Highest percentile with TAIL_BEYOND distinct commands beyond it."""
    return 100.0 * (distinct - TAIL_BEYOND) / distinct


def percentile(values, pct):
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[index]


class Player:
    """Plays rounds of commands and checks every output."""

    def __init__(self, cli, commands, reference, need_reference):
        self.cli = cli
        self.commands = commands
        self.reference = reference
        self.need_reference = need_reference
        self.identity = [None] * len(commands)
        self.digests = [None] * len(commands)
        self.attempted = 0
        self.failures = []

    @staticmethod
    def _identity(command):
        """Digest of the argv and the bytes of every file the command reads."""
        h = hashlib.sha256(json.dumps(command["argv"]).encode())
        for name in command["reads"]:
            with open(name, "rb") as handle:
                h.update(handle.read())
        return h.hexdigest()

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                err.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def _problem(self, command, index, code, stdout, stderr):
        if code != command["expect"]:
            return f"exit {code}, expected {command['expect']}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        if command["expect"] == 0 and stderr:
            return "stderr on success"
        if command["expect"] != 0 and "error.type = " not in stderr:
            return "no error.type on stderr"
        if command["check"] == "rank":
            lines = stdout.splitlines()
            if "agree = true" not in lines or "riemann_hurwitz = ok" not in lines:
                return "rank certificate does not hold"
        h = hashlib.sha256(stdout.encode())
        if command["out"] is not None:
            with open(command["out"], "rb") as handle:
                h.update(handle.read())
        digest = h.hexdigest()
        if self.digests[index] is None:
            self.digests[index] = digest
        elif self.digests[index] != digest:
            return "output differs from an earlier round"
        expected = self.reference.get(self.identity[index])
        if expected is not None and expected != digest:
            return "output differs from the reference digest"
        if expected is None and self.need_reference:
            return "no reference digest for this command"
        return None

    def play(self, latencies):
        """Play one round; return its wall time, command time and scale.

        latencies maps each distinct argv to its (latency, scale) pairs
        so far.  The round's scale is CAL_REFERENCE_S over the median of
        the calibration slices timed between its commands; the slices
        are not part of the round's wall time.
        """
        start = time.perf_counter()
        busy = since_slice = outside = 0.0
        played, slices = [], []
        for index, command in enumerate(self.commands):
            if self.identity[index] is None:
                # taken before the first run: the inputs of later
                # commands may be written by earlier ones
                self.identity[index] = self._identity(command)
            elapsed, code, stdout, stderr = self._call(command["argv"])
            played.append((tuple(command["argv"]), elapsed))
            busy += elapsed
            since_slice += elapsed
            self.attempted += 1
            problem = self._problem(command, index, code, stdout, stderr)
            if problem is not None:
                self.failures.append((" ".join(command["argv"]), problem))
            if since_slice >= CAL_EVERY_S or index == len(self.commands) - 1:
                slice_start = time.perf_counter()
                slices.append(calibration_slice())
                outside += time.perf_counter() - slice_start
                since_slice = 0.0
        wall = time.perf_counter() - start - outside
        scale = CAL_REFERENCE_S / statistics.median(slices)
        for key, elapsed in played:
            latencies.setdefault(key, []).append((elapsed, scale))
        return wall, busy, scale


def per_layer_units():
    """BENCHMARK.json's per-layer metrics, name -> unit: the one list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def layer_metrics(tracer, traced, untraced):
    """Per-round means of the traced rounds, for every per-layer metric
    that BENCHMARK.json names.

    traced and untraced hold (wall, command time, scale) per round.
    """
    n = len(traced)
    wall = sum(w for w, _, _ in traced) / n
    # command time outside every span: argparse, formatting, file I/O
    busy = sum(b for _, b, _ in traced)
    totals = {"cli.self_s": busy - tracer.covered_s}
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = sum(
            v for k, v in tracer.self_s.items() if k.split(".")[0] == layer)
    totals.update((f"{k}.calls", v) for k, v in tracer.calls.items())
    totals.update((f"{k}.self_s", v) for k, v in tracer.self_s.items())
    totals.update(tracer.counters)
    totals["saddle.searches"] = tracer.calls["saddle.saddle_connections_up_to"]
    values = {k: v / n for k, v in totals.items()}
    placements = tracer.counters["saddle.placements"]
    values["saddle.connections_per_placement"] = (
        tracer.counters["saddle.connections"] / placements if placements else 0.0)
    # cli.self_s and the layer totals against the round's wall time,
    # which also holds the benchmark's own checks between commands
    attributed = values["cli.self_s"] + sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.wall_s"] = wall
    values["trace.attributed_frac"] = attributed / wall
    untraced_wall = sum(w for w, _, _ in untraced) / len(untraced)
    values["trace.overhead_frac"] = (wall - untraced_wall) / untraced_wall
    # a name the tracer does not know raises KeyError here
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def run(args):
    from ttlab import cli

    facts = machine_facts()
    facts["load_start"] = os.getloadavg()[0]
    facts["load_flag"] = "high" if facts["load_start"] > facts["nproc"] else "ok"

    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(WORK, f"run-{tag}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_s, dirs = time_setup(args.workload, args.seed, work)
        trees = [_tree_bytes(d) for d in dirs]
        inputs_identical = all(t == trees[0] for t in trees)
        with open(os.path.join(dirs[0], "commands.json"), encoding="utf-8") as handle:
            commands = json.load(handle)
        ref_path = os.path.join(HERE, "reference", f"{args.workload}.json")
        reference = {}
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                reference = json.load(handle)
        os.chdir(dirs[0])
        player = Player(cli, commands, reference, args.seed == DEFAULT_SEED)

        tracer = Tracer()
        latencies, untraced, traced = {}, [], []
        min_rounds = 2 if args.trace else 1
        start = time.perf_counter()
        while True:
            if args.trace and (len(untraced) + len(traced)) % 2 == 1:
                tracer.install()
                try:
                    traced.append(player.play({}))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(player.play(latencies))
            rounds = len(untraced) + len(traced)
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    distinct = len(latencies)
    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        # each distinct command at its median over the run's rounds, and
        # the median untraced round, scaled by each round's host speed
        # (raw: unscaled, printed beside them)
        def medians(scaled):
            typical = [statistics.median(e * k if scaled else e for e, k in v)
                       for v in latencies.values()]
            wall = statistics.median(w * k if scaled else w for w, _, k in untraced)
            return {
                "wall_s": (wall, "s"),
                "op_p50_ms": (1000.0 * statistics.median(typical), "ms"),
                "op_tail_ms": (1000.0 * percentile(typical, tail_percentile(distinct)), "ms"),
            }
        facts["host_scale"] = statistics.median(k for _, _, k in untraced)
        facts["raw"] = {name: value for name, (value, _) in medians(False).items()}
        metrics = {
            **medians(True),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    facts["load_end"] = os.getloadavg()[0]

    failed = len(player.failures)
    correct = failed == 0 and inputs_identical
    digests = dict(zip(player.identity, player.digests))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds,
        "commands_per_round": len(commands), "distinct_commands": distinct,
        "tail_percentile": tail_percentile(distinct),
        "machine": facts, "inputs_identical": inputs_identical,
        "failures": player.failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for sub, name, data in (("results", f"{tag}-trace{args.trace}.json", record),
                            ("digests", f"{tag}.json", digests)):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
        with open(os.path.join(WORK, sub, name), "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")

    for key, value in sorted(facts.items()):
        print(f"machine.{key} = {value}")
    print(f"rounds = {rounds}")
    print(f"commands_per_round = {len(commands)}")
    print(f"distinct_commands = {distinct}")
    print(f"tail_percentile = {tail_percentile(distinct):.2f}")
    print(f"inputs_identical = {str(inputs_identical).lower()}")
    print(f"failed_frac = {failed / player.attempted:.6g}")
    for command, problem in player.failures[:20]:
        print(f"failure = {command}: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": player.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    if not os.path.isdir(os.path.join(ROOT, "src", "ttlab")):
        print("error: no ttlab sources under src/ in this checkout", file=sys.stderr)
        return 2
    import inputs  # puts src/ on sys.path

    return run(parse_args(argv, inputs.WORKLOADS))


if __name__ == "__main__":
    sys.exit(main())
