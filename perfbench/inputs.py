"""Seeded inputs for the ttlab benchmark workloads.

Each workload is one round of ``ttlab`` command lines plus the surface
files they read.  Everything is drawn from ``random.Random`` seeded
with the workload name and the seed, so the same seed writes the same
bytes; ttlab itself only ever sees the files.

Run as a script to write one workload's inputs into a directory::

    python3 perfbench/inputs.py --workload rank_sweep --seed 0 --out DIR

The directory then holds the ``*.spec`` files and ``commands.json``,
the round: a list of records with the argv, the expected exit code,
the files the command reads, the file it writes (``--out``), and the
extra output check to apply (``"rank"`` or null).
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from ttlab.ribbon import (  # noqa: E402
    SpineAssignment,
    pants_assignment,
    plumbing_fixture,
    single_vertex_graph,
    validate_assignment,
)
from ttlab.errors import InvalidAssignment  # noqa: E402
from ttlab.specfile import TorusSpecFile, write_spec  # noqa: E402
from ttlab.topology import make_config, validate_config  # noqa: E402

F = Fraction

# Pants decompositions per genus: 2 in genus 2, 5 in genus 3.  The
# catalog order is ttlab's public --pairing contract.
CATALOG_SIZE = {2: 2, 3: 5}

# The README's genus-3 lengths.  The probe surfaces are fixed, so only
# the twist draws follow the seed.
GENERIC6 = (3, 4, 9, 14, 25, 37)


def random_pants_cfg(genus, rng):
    """Random connected pants decomposition by stub matching."""
    k = 2 * genus - 2
    while True:
        stubs = [(p, s) for p in range(k) for s in range(3)]
        rng.shuffle(stubs)
        gluing = [
            tuple(sorted((stubs[2 * i], stubs[2 * i + 1])))
            for i in range(len(stubs) // 2)
        ]
        cfg = make_config(genus, [(0, 3)] * k, gluing)
        if not validate_config(cfg).violations:
            return cfg


def random_pants(genus, rng):
    cfg = random_pants_cfg(genus, rng)
    return cfg, pants_assignment(cfg, _rationals(rng, cfg.n_curves, 40, 8))


def plumbing_pair(p, length):
    """Two p-holed plumbing fixtures glued straight across."""
    cfg = make_config(p - 1, [(0, p), (0, p)], [((0, j), (1, j)) for j in range(p)])
    fts = tuple(range(p))
    sa = SpineAssignment((plumbing_fixture(p, length),) * 2, (fts, fts))
    return cfg, sa


def plumbing_ring(n, length):
    """Ring of n four-holed fixtures, doubled curves between neighbours."""
    gluing = []
    for i in range(n):
        j = (i + 1) % n
        gluing += [((i, 0), (j, 2)), ((i, 1), (j, 3))]
    cfg = make_config(n + 1, [(0, 4)] * n, gluing)
    sa = SpineAssignment(
        tuple(plumbing_fixture(4, length) for _ in range(n)),
        tuple(tuple(range(4)) for _ in range(n)),
    )
    return cfg, sa


def _pairings(items):
    """Every fixed-point-free involution of items, as a list of pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, other in enumerate(rest):
        for tail in _pairings(rest[:k] + rest[k + 1:]):
            yield [(first, other)] + tail


def one_cylinder_census():
    """Genus-3 one-cylinder surfaces: valid one-vertex spines on 10 halves."""
    cfg = make_config(3, [(2, 2)], [((0, 0), (0, 1))])
    found = []
    for pairs in _pairings(list(range(10))):
        iota = [None] * 10
        for a, b in pairs:
            iota[a], iota[b] = b, a
        graph = single_vertex_graph(iota, {min(a, b): F(1) for a, b in pairs})
        sa = SpineAssignment((graph,), ((0, 1),))
        try:
            validate_assignment(cfg, sa)
        except InvalidAssignment:
            continue
        found.append((cfg, sa))
    return found


def _spec(cfg, sa, heights=None, twists=None):
    n = cfg.n_curves
    heights = tuple(heights) if heights else (F(1),) * n
    twists = tuple(twists) if twists else (F(0),) * n
    return write_spec(TorusSpecFile(cfg, sa, heights, twists))


def _rationals(rng, n, max_num, max_den):
    return [F(rng.randrange(1, max_num), rng.randrange(1, max_den)) for _ in range(n)]


def _csv(values):
    return ",".join(str(v) for v in values)


class Round:
    """Collects the files and command records of one workload round."""

    def __init__(self):
        self.files = {}
        self.commands = []

    def file(self, name, text):
        self.files[name] = text
        return name

    def run(self, *argv, expect=0, check=None):
        argv = [str(a) for a in argv]
        reads = [a for a in argv[1:] if a in self.files]
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        self.commands.append({
            "argv": argv, "expect": expect, "reads": reads,
            "out": out, "check": check,
        })
        if out is not None:
            # later commands may read what this one writes
            self.files.setdefault(out, None)


def rank_sweep(rng):
    """`rank` on random pants of genus 2 and 3 and plumbing arrangements.

    Twenty-three commands of 25-95 ms (genus 2, pair 3 and 4, ring 2)
    hold the median and the tail percentile; five of 0.15-0.35 s (genus
    3, ring 3) hold half of the round's time.  A round takes about 2 s,
    so a run repeats each command often enough for its median to be steady.
    """
    r = Round()
    names = []
    for i, genus in enumerate([2] * 20 + [3] * 4):
        names.append(r.file(f"pants{i}_g{genus}.spec", _spec(*random_pants(genus, rng))))
    for tag, (cfg, sa) in (
        ("pair3", plumbing_pair(3, rng.choice((1, 2, 3)))),
        ("pair4", plumbing_pair(4, rng.choice((1, 2, 3)))),
        ("ring2", plumbing_ring(2, rng.choice((1, 2, 3)))),
        ("ring3", plumbing_ring(3, rng.choice((1, 2, 3)))),
    ):
        names.append(r.file(f"{tag}.spec", _spec(cfg, sa)))
    rng.shuffle(names)
    for name in names:
        r.run("rank", name, check="rank")
    return r


def _mismatch_edges(cfg, sa):
    """(piece, edge index) pairs whose lengthening unbalances some curve.

    Growing an edge grows the faces its two half-edges lie on; the file
    becomes invalid when the two faces glued along some curve no longer
    grow alike (a self-glued pair of faces may grow alike).
    """
    found = []
    for p, graph in enumerate(sa.graphs):
        for e, pair in enumerate(graph.edges()):
            grown = [0] * len(graph.faces())
            for half in pair:
                grown[graph.face_of(half)] += 1

            def growth(piece, slot):
                return grown[sa.slot_to_face(piece, slot)] if piece == p else 0

            if any(growth(*a) != growth(*b) for a, b in cfg.gluing):
                found.append((p, e))
    return found


def _malformed(rng, cfg, sa, text):
    """Four broken variants of a valid spec text; each must exit 2."""
    lines = text.split("\n")
    edge_lines = {}
    piece = None
    for i, line in enumerate(lines):
        if line.startswith("[ribbon "):
            piece = int(line[len("[ribbon "):-1])
        elif line.startswith("edge:"):
            edge_lines.setdefault(piece, []).append(i)
    cut = rng.randrange(len(text) // 4, len(text) // 2)
    bad_length = lines[:]
    i = rng.choice(sorted(i for rows in edge_lines.values() for i in rows))
    bad_length[i] = bad_length[i].rsplit(" ", 1)[0] + " 3/x"
    mismatch = lines[:]
    p, e = rng.choice(_mismatch_edges(cfg, sa))
    i = edge_lines[p][e]
    head, value = mismatch[i].rsplit(" ", 1)
    mismatch[i] = f"{head} {F(value) + F(1, 3)}"
    unknown = lines[:2] + ["", "[bogus]", "x = 1"] + lines[2:]
    return {
        "truncated": text[:cut],
        "badlength": "\n".join(bad_length),
        "mismatch": "\n".join(mismatch),
        "unknown": "\n".join(unknown),
    }


def classify_mix(rng):
    """Short reporters and generators; no `rank`, no `probe`."""
    r = Round()
    reported, pants = [], []
    for i, genus in enumerate([2] * 3 + [3] * 4 + [4] * 3 + [5] * 2):
        n = 3 * genus - 3
        pants.append(random_pants(genus, rng))
        text = _spec(*pants[-1], _rationals(rng, n, 5, 3), _rationals(rng, n, 7, 4))
        reported.append(r.file(f"pants{i}_g{genus}.spec", text))
    for tag, (cfg, sa) in (
        ("pair4", plumbing_pair(4, rng.choice((1, 2)))),
        ("pair6", plumbing_pair(6, rng.choice((1, 2)))),
        ("ring3", plumbing_ring(3, rng.choice((1, 2)))),
        ("ring4", plumbing_ring(4, rng.choice((1, 2)))),
    ):
        reported.append(r.file(f"{tag}.spec", _spec(cfg, sa)))
    census = one_cylinder_census()
    for k, (cfg, sa) in enumerate(rng.sample(census, 6)):
        reported.append(r.file(f"onecyl{k}.spec", _spec(cfg, sa)))

    # generators write beside the inputs; their output is read back
    generated = []
    for k in range(6):
        genus = rng.choice((2, 3))
        n = 3 * genus - 3
        out = f"gen{k}.spec"
        r.run("pants", genus,
              "--pairing", rng.randrange(CATALOG_SIZE[genus]),
              "--lengths", _csv(_rationals(rng, n, 30, 5)),
              "--heights", _csv(_rationals(rng, n, 4, 3)),
              "--out", out)
        generated.append(out)
    for k, valences in enumerate(((3, 3, 3, 5), (4, 4), (4, 4, 4), (3, 3, 4, 4))):
        out = f"plumb{k}.spec"
        r.run("plumbing", *valences, "--length", rng.choice((1, 2, 3)), "--out", out)
        generated.append(out)
    for k, name in enumerate(generated[:6]):
        scale = F(rng.randrange(2, 7), rng.randrange(1, 4))
        shear = F(rng.randrange(0, 5), 4)
        out = f"flow{k}.spec"
        r.run("flow", name, "--scale", scale, "--shear", shear, "--out", out)
        r.run("twist", out, f"0={F(rng.randrange(1, 9), 7)}",
              f"1={F(rng.randrange(1, 9), 3)}")

    for name in reported + generated:
        r.run("validate", name)
        r.run("classify", name)
        r.run("spin", name)
    # every reporter on every broken file: their error paths differ in
    # cost (validate reports a perimeter mismatch in about 30 ms, classify
    # and spin in 2-3 ms), so a seeded choice would move the round's time
    for kind, text in _malformed(rng, *pants[4], r.files[reported[4]]).items():
        name = r.file(f"broken_{kind}.spec", text)
        for reporter in ("validate", "classify", "spin"):
            r.run(reporter, name, expect=2)
    return r


def probe_flow(rng):
    """`probe` on fixed genus-3 and genus-5 pants and plumbing ring 4."""
    r = Round()
    g3 = make_config(3, [(0, 3)] * 4, [
        ((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (2, 0)),
        ((1, 2), (3, 0)), ((2, 1), (3, 1)), ((2, 2), (3, 2))])
    g5 = make_config(5, [(0, 3)] * 8, [
        ((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (3, 0)),
        ((1, 1), (4, 0)), ((1, 2), (5, 0)), ((2, 1), (6, 0)),
        ((2, 2), (7, 0)), ((3, 1), (4, 1)), ((3, 2), (5, 1)),
        ((4, 2), (6, 1)), ((5, 2), (7, 1)), ((6, 2), (7, 2))])
    lengths5 = GENERIC6 + (49, 61, 85, 101, 113, 131)
    surfaces = [
        r.file("pants_g3.spec", _spec(g3, pants_assignment(g3, [F(x) for x in GENERIC6]))),
        r.file("pants_g5.spec", _spec(g5, pants_assignment(g5, [F(x) for x in lengths5]))),
        r.file("ring4.spec", _spec(*plumbing_ring(4, 2))),
    ]
    # samples and flow times per (surface, radius) even out the cost of
    # one command at about 70 ms on a 2.1 GHz Xeon, so the latency median
    # and the tail percentile fall inside one dense cluster.  A round
    # takes about 2 s, so a run repeats each command often enough for
    # its median to be steady.
    every, even = "0,1,2,3,4", "0,2,4"
    plan = {(0, "1.0"): (2, every), (0, "1.5"): (2, even), (1, "1.0"): (1, every),
            (1, "1.5"): (1, even), (2, "1.0"): (2, even), (2, "1.5"): (1, even)}
    probes = [(surfaces[s], radius, k, times)
              for (s, radius), (k, times) in plan.items()] * 5
    rng.shuffle(probes)
    for name, radius, k, times in probes:
        r.run("probe", name, "--times", times, "--samples", k,
              "--seed", rng.randrange(10**6), "--radius", radius)
    return r


BUILDERS = {
    "rank_sweep": rank_sweep,
    "classify_mix": classify_mix,
    "probe_flow": probe_flow,
}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed):
    """The round of `workload` for `seed`: a Round with files and commands."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def write(workload, seed, out_dir):
    """Write the round's input files and commands.json into out_dir."""
    r = build(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in r.files.items():
        if text is not None:
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
    with open(os.path.join(out_dir, "commands.json"), "w", encoding="utf-8") as handle:
        json.dump(r.commands, handle, indent=1)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
