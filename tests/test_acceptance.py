"""Acceptance gate: one test per numbered criterion, run in order.

Criteria 1, 2, 3, 5, 7, 8 and 10 to 15 share one sweep of instances,
built once per module: the exhaustive pants catalogs in genus 2 and 3
under a length battery that realizes every spine type on every piece,
200 random pants decompositions up to genus 5, a census of
one-cylinder surfaces, and a handful of plumbing arrangements.  Each test prints a
single `criterion N: PASS` line with its headline numbers.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ttlab.classify import (
    FULL_STRATUM,
    INCONCLUSIVE,
    StratumLabel,
    classify_orbit_closure,
    classify_pants_torus,
    identify_stratum,
    nabla_count,
)
from ttlab.cover import (
    cover_genus,
    h1_anti_invariant,
    holonomy_double_cover,
    rank_lower_bound,
    relations_formula,
)
import ttlab.classify as classify_module
from ttlab.errors import InvalidAssignment, NoSpinStructure
from ttlab.probe import run_probe
from ttlab.ribbon import (
    SpineAssignment,
    co_orientable,
    jointly_orientable,
    pants_assignment,
    single_vertex_graph,
    validate_assignment,
)
from ttlab.saddle import saddle_connections_up_to
from ttlab.spin import arf_invariant, spin_parity, winding_form
from ttlab.surface import (
    EXACT,
    NUMERIC,
    build_surface,
    cylinder_twist,
    geodesic_flow,
    horocycle_flow,
)
from ttlab.topology import (
    enumerate_pants_configs,
    is_pants_decomposition,
    make_config,
    validate_config,
)

from oracles import corner_orbit_faults, piece_preimage_connected, rank_gf2
from test_classify import (
    RING3,
    RING3_LENGTHS,
    odd_plumbing,
    plumbing_pair,
    plumbing_ring,
    reference_involution_search,
    relabeled,
)
from test_ribbon import assert_integer_perimeters, nabla_assignment
from test_saddle import origami_surface
from test_spin import (
    all_pairings,
    assert_bits_match_joint_orientability,
    assert_parity_matches_both_oracles,
    census_form,
    rank_checked_form,
    transported,
)
from test_topology import TWO_PANTS

F = Fraction

# No value is twice another and none is a sum of two others, so every
# boundary triple drawn from distinct entries is strictly triangular.
GENERIC12 = (3, 4, 9, 14, 25, 37, 49, 61, 85, 101, 113, 131)

RANDOM_PANTS_PER_GENUS = {2: 80, 3: 60, 4: 35, 5: 25}


def note(number, text):
    print(f"criterion {number}: {text}")


# ------------------------------------------------------------ the sweep


@dataclass
class SweepInstance:
    name: str
    kind: str
    cfg: object
    sa: object
    heights: tuple
    q: object
    cover: object
    rank_lb: int
    formula: int
    stratum: object
    jo: bool
    anti_dim: int
    verdict: object


@dataclass
class SweepData:
    instances: list
    seconds: float
    n_catalog: int
    n_random: int


def make_instance(name, kind, cfg, sa, heights=None):
    if heights is None:
        heights = (F(1),) * cfg.n_curves
    q = build_surface(cfg, sa, heights)
    cover = holonomy_double_cover(q)
    jo, epsilon = jointly_orientable(q)
    stratum = identify_stratum(q)
    assert stratum.epsilon == epsilon
    return SweepInstance(
        name=name,
        kind=kind,
        cfg=cfg,
        sa=sa,
        heights=tuple(heights),
        q=q,
        cover=cover,
        rank_lb=rank_lower_bound(cover, cfg),
        formula=relations_formula(q),
        stratum=stratum,
        jo=jo,
        anti_dim=h1_anti_invariant(cover).dimension,
        verdict=classify_orbit_closure(q),
    )


def piece_triples(cfg):
    triples = [[] for _ in cfg.pieces]
    for i, pair in enumerate(cfg.gluing):
        for p, _ in pair:
            triples[p].append(i)
    return [tuple(t) for t in triples]


def degenerate_at(base, triple, bump):
    """Lengths forcing the triple to a = b + c (+bump for a dumbbell)."""
    lengths = list(base)
    i, j, k = triple
    if i == j:
        lengths[k] = 2 * lengths[i] + bump
    elif j == k:
        lengths[i] = 2 * lengths[j] + bump
    elif i == k:
        lengths[j] = 2 * lengths[i] + bump
    else:
        lengths[k] = lengths[i] + lengths[j] + bump
    return lengths


def pants_battery(cfg):
    n = cfg.n_curves
    base = [F(x) for x in GENERIC12[:n]]
    yield "generic", base
    yield "ones", [F(1)] * n
    for p, triple in enumerate(piece_triples(cfg)):
        yield f"nabla@{p}", degenerate_at(base, triple, 0)
        yield f"dumbbell@{p}", degenerate_at(base, triple, 1)


def spine_shape(graph):
    verts = graph.vertices()
    if len(verts) == 1:
        return "nabla"
    where = {}
    for v, orbit in enumerate(verts):
        for h in orbit:
            where[h] = v
    loops = sum(1 for a, b in graph.edges() if where[a] == where[b])
    return "dumbbell" if loops else "theta"


def random_pants_cfg(genus, rng):
    """Random connected pants decomposition via stub matching."""
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


def one_cylinder_entries():
    """All single-vertex spines on 6 and 10 half-edges that close up.

    Unit lengths make the two boundary faces match exactly when their
    degrees agree, so the census is a plain validity filter over the
    fixed-point-free pairings.
    """
    shapes = (
        (6, make_config(2, [(1, 2)], [((0, 0), (0, 1))])),
        (10, make_config(3, [(2, 2)], [((0, 0), (0, 1))])),
    )
    for n_halves, cfg in shapes:
        kept = 0
        for index, pairs in enumerate(all_pairings(n_halves)):
            if kept >= 40:
                break
            iota = [None] * n_halves
            for a, b in pairs:
                iota[a], iota[b] = b, a
            graph = single_vertex_graph(
                iota, {min(a, b): F(1) for a, b in pairs}
            )
            sa = SpineAssignment((graph,), ((0, 1),))
            try:
                validate_assignment(cfg, sa)
            except InvalidAssignment:
                continue
            kept += 1
            yield f"one-cylinder {n_halves} #{index}", cfg, sa


def plumbing_entries():
    yield "ring3 all-nabla", RING3, pants_assignment(
        RING3, [F(x) for x in RING3_LENGTHS]
    )
    yield "two-pants nabla", TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0))
    for p in (4, 6):
        yield f"plumbing pair {p}", *plumbing_pair(p)
    yield "odd plumbing", *odd_plumbing()
    for n in (3, 4):
        yield f"plumbing ring {n}", *plumbing_ring(n)


@pytest.fixture(scope="module")
def sweep():
    start = time.monotonic()
    instances = []

    catalogs = {g: enumerate_pants_configs(g) for g in (2, 3)}
    assert [len(catalogs[g]) for g in (2, 3)] == [2, 5]
    for genus, configs in catalogs.items():
        for idx, cfg in enumerate(configs):
            shapes_seen = [set() for _ in cfg.pieces]
            for tag, lengths in pants_battery(cfg):
                sa = pants_assignment(cfg, lengths)
                for p, graph in enumerate(sa.graphs):
                    shapes_seen[p].add(spine_shape(graph))
                instances.append(
                    make_instance(
                        f"pants g{genus} #{idx} {tag}", "catalog", cfg, sa
                    )
                )
            for p, seen in enumerate(shapes_seen):
                assert seen == {"theta", "nabla", "dumbbell"}, (
                    f"g{genus} #{idx} piece {p} only realized {seen}"
                )

    rng = random.Random(20260819)
    for genus, count in RANDOM_PANTS_PER_GENUS.items():
        for trial in range(count):
            cfg = random_pants_cfg(genus, rng)
            lengths = [
                F(rng.randrange(1, 40), rng.randrange(1, 8))
                for _ in range(cfg.n_curves)
            ]
            sa = pants_assignment(cfg, lengths)
            instances.append(
                make_instance(
                    f"random pants g{genus} #{trial}", "random", cfg, sa
                )
            )

    for name, cfg, sa in one_cylinder_entries():
        instances.append(make_instance(name, "one-cylinder", cfg, sa))
    for name, cfg, sa in plumbing_entries():
        instances.append(make_instance(name, "plumbing", cfg, sa))

    return SweepData(
        instances=instances,
        seconds=time.monotonic() - start,
        n_catalog=sum(1 for i in instances if i.kind == "catalog"),
        n_random=sum(1 for i in instances if i.kind == "random"),
    )


# ------------------------------------------------------------- criteria


def test_criterion_01_rank_oracle_pair(sweep):
    assert sweep.n_random >= 200
    mismatches = [
        inst.name
        for inst in sweep.instances
        if inst.rank_lb != inst.formula
    ]
    assert mismatches == []
    assert sweep.seconds < 300.0
    note(
        1,
        f"PASS exact span dim == counting formula on "
        f"{len(sweep.instances)} instances "
        f"({sweep.n_catalog} catalog, {sweep.n_random} random) "
        f"in {sweep.seconds:.0f}s",
    )


def test_criterion_02_riemann_hurwitz(sweep):
    connected = 0
    for inst in sweep.instances:
        g = inst.cfg.genus
        if inst.cover.connected:
            connected += 1
            g_hat = cover_genus(inst.cover)
            assert g_hat == 2 * g + inst.stratum.n_sing_odd // 2 - 1
            assert len(inst.cover.branch_set) == inst.stratum.n_sing_odd
            assert inst.anti_dim == 2 * g_hat - 2 * g
        else:
            assert cover_genus(inst.cover) == [g, g]
            assert not inst.cover.branch_set
            assert inst.anti_dim == 2 * g
    assert connected > 0
    note(
        2,
        f"PASS cover genus and anti-invariant dimension exact on "
        f"{connected} connected covers "
        f"(+{len(sweep.instances) - connected} disconnected)",
    )


def test_criterion_03_orientability_equivalences(sweep):
    for inst in sweep.instances:
        assert inst.jo == (not inst.cover.connected), inst.name
        assert inst.stratum.epsilon == (1 if inst.jo else -1)
        for p, graph in enumerate(inst.sa.graphs):
            assert co_orientable(graph) == (
                not piece_preimage_connected(inst.cover, p)
            ), f"{inst.name} piece {p}"
    # the preimage route reads the cover's corner orbits, which come from
    # the orbit routine behind the faces co_orientable colours: recompute
    # them on every fourth surface
    for inst in sweep.instances[::4]:
        assert corner_orbit_faults(inst.cover) == [], inst.name
    pieces = sum(len(i.sa.graphs) for i in sweep.instances)
    note(
        3,
        f"PASS parity solver == cover connectivity on "
        f"{len(sweep.instances)} surfaces and {pieces} pieces",
    )


def test_criterion_04_pants_verdict_table():
    heights = lambda cfg: (F(1),) * cfg.n_curves
    checked = 0

    for idx, cfg in enumerate(enumerate_pants_configs(3)):
        base = [F(x) for x in GENERIC12[: cfg.n_curves]]
        v = classify_pants_torus(cfg, base, heights(cfg))
        assert v.kind == FULL_STRATUM
        assert v.stratum == StratumLabel(3, (1,) * 8, -1)
        assert v.limit_label == "mu_Mirz/b_g"
        assert v.certificate["nabla"] == 0

        for triple in piece_triples(cfg):
            lengths = degenerate_at(base, triple, 0)
            if nabla_count(cfg, lengths) != 1:
                continue
            v = classify_pants_torus(cfg, lengths, heights(cfg))
            assert v.kind == FULL_STRATUM
            assert v.stratum == StratumLabel(3, (1,) * 6 + (2,), -1)
            checked += 1
            break
        else:
            pytest.fail(f"no single-nabla lengths found for g3 #{idx}")

    for cfg in enumerate_pants_configs(2):
        base = [F(x) for x in GENERIC12[: cfg.n_curves]]
        batteries = [base, [F(1)] * 3] + [
            degenerate_at(base, t, 0) for t in piece_triples(cfg)
        ]
        for lengths in batteries:
            v = classify_pants_torus(cfg, lengths, heights(cfg))
            assert v.kind == INCONCLUSIVE
        generic = classify_pants_torus(cfg, base, heights(cfg))
        assert generic.certificate["rank_lb"] == 3
        assert generic.certificate["threshold"] == F(7, 2)
        assert generic.certificate["rank_lb"] < generic.certificate["threshold"]

    note(
        4,
        f"PASS all 5 genus-3 configs hit both table rows "
        f"({checked} single-nabla instances); both genus-2 configs "
        f"inconclusive with rank 3 below 7/2",
    )


def test_criterion_05_no_low_singularity_full_stratum(sweep):
    decisive = 0
    for inst in sweep.instances:
        v = inst.verdict
        if v.kind == FULL_STRATUM and v.stratum.epsilon == -1:
            decisive += 1
            assert v.stratum.n_sing_odd >= 6, inst.name
    assert decisive > 0
    note(
        5,
        f"PASS {decisive} decisive quadratic verdicts, "
        f"every one with at least 6 odd singularities",
    )


def test_criterion_06_plumbing_stratum():
    cfg, sa = odd_plumbing()
    assert not validate_config(cfg).violations
    verdict = classify_orbit_closure(build_surface(cfg, sa, (F(1),) * cfg.n_curves))
    assert verdict.kind == FULL_STRATUM
    assert verdict.stratum == StratumLabel(4, (1, 1, 1, 1, 1, 1, 3, 3), -1)
    note(
        6,
        "PASS plumbing of boundary counts (3, 3, 3, 5) lands in "
        f"{verdict.stratum} as a full component",
    )


def test_criterion_07_dynamics_contracts(sweep):
    rng = random.Random(471)
    pants = [i for i in sweep.instances if is_pants_decomposition(i.cfg)]
    surfaces = 0
    while surfaces < 100:
        inst = pants[surfaces % len(pants)]
        n = inst.cfg.n_curves
        heights = [F(rng.randrange(1, 12), rng.randrange(1, 5)) for _ in range(n)]
        twists = [F(rng.randrange(0, 50), rng.randrange(1, 7)) for _ in range(n)]
        q = build_surface(inst.cfg, inst.sa, heights, twists)
        lam = rng.choice((F(2), F(3, 2), F(5, 7), F(7, 3)))
        s = F(rng.randrange(-30, 31), rng.randrange(1, 9))

        stretched = geodesic_flow(q, lam)
        sheared = horocycle_flow(q, s)
        assert stretched.area() == q.area()
        assert sheared.area() == q.area()

        assert sheared.heights == q.heights
        assert sheared.base_lengths == q.base_lengths
        assert sheared.scale == q.scale

        conjugated = geodesic_flow(
            horocycle_flow(geodesic_flow(q, 1 / lam), s), lam
        )
        direct = horocycle_flow(q, lam * lam * s)
        assert conjugated.twists == direct.twists
        assert conjugated.scale == direct.scale
        assert conjugated.heights == direct.heights

        step = q
        for i in range(n):
            step = cylinder_twist(step, i, s)
        assert step.twists == sheared.twists

        qn = build_surface(
            inst.cfg, inst.sa, heights, twists, mode=NUMERIC
        )
        for moved in (
            geodesic_flow(qn, float(lam)),
            horocycle_flow(qn, float(s)),
        ):
            assert abs(moved.area() - qn.area()) <= 1e-12 * qn.area()
        surfaces += 1
    note(
        7,
        "PASS area, shear, conjugation, and twist-composition laws "
        f"exact on {surfaces} random surfaces (numeric drift <= 1e-12)",
    )


def hol_set(search):
    return {
        (round(c.holonomy[0], 9), round(c.holonomy[1], 9))
        for c in search.connections
    }


def test_criterion_08_saddle_search(sweep):
    # Hand census on the three-square surface.
    q = origami_surface()
    census = saddle_connections_up_to(q, 2.0)
    assert hol_set(census) == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    seen = set()
    counts = []
    for radius in (1.0, 1.2, 1.5, 2.0, 2.5):
        result = saddle_connections_up_to(q, radius)
        assert seen <= hol_set(result)
        seen = hol_set(result)
        counts.append(len(result.connections))
    assert counts == [2, 2, 4, 4, 8]
    assert {(2, 1), (-2, 1), (1, 2), (-1, 2)} <= seen

    # Shortest horizontal saddle == shortest spine edge, twist by twist.
    rng = random.Random(6181)
    pants = [i for i in sweep.instances if is_pants_decomposition(i.cfg)]
    points = 0
    for inst in pants[:10]:
        min_edge = min(
            float(graph.length_of(h))
            for graph in inst.sa.graphs
            for h, _ in graph.edges()
        )
        for _ in range(3):
            twists = [
                rng.uniform(0.0, float(l))
                for l in validate_assignment(inst.cfg, inst.sa)
            ]
            qn = build_surface(
                inst.cfg, inst.sa, inst.heights, twists, mode=NUMERIC
            )
            found = saddle_connections_up_to(qn, 1.5 * min_edge)
            assert not found.cap_exceeded
            horizontal = [
                c for c in found.connections if c.holonomy[1] == 0.0
            ]
            assert horizontal
            shortest = min(c.length for c in horizontal)
            assert shortest == pytest.approx(min_edge, rel=1e-12)
            points += 1

    # Monotone in the radius.
    for inst in pants[:4]:
        min_edge = min(
            float(graph.length_of(h))
            for graph in inst.sa.graphs
            for h, _ in graph.edges()
        )
        nested = set()
        for factor in (1.2, 1.6, 2.1):
            result = saddle_connections_up_to(
                build_surface(
                    inst.cfg, inst.sa, inst.heights, mode=NUMERIC
                ),
                factor * min_edge,
            )
            assert nested <= hol_set(result)
            nested = hol_set(result)
    note(
        8,
        f"PASS hand census exact; shortest horizontal == shortest "
        f"spine edge on {points} twist-torus points; results monotone "
        f"in the radius",
    )


def test_criterion_09_probe_smoke():
    start = time.monotonic()
    cfg = enumerate_pants_configs(3)[0]
    lengths = [F(x) for x in GENERIC12[:6]]
    sa = pants_assignment(cfg, lengths)
    heights = (F(1),) * 6

    report = run_probe(
        build_surface(cfg, sa, heights),
        times=(0.0, 1.0, 2.0, 3.0, 4.0),
        samples=2000, seed=20260819, radius=1.0,
    )
    assert all(stats.dropped == 0 for stats in report.per_time)
    assert report.ks[-1] < report.ks[0]

    # Same seed, first time slot only: the slot statistics must agree
    # bit for bit, which pins both determinism and per-sample streams.
    slice_report = run_probe(
        build_surface(cfg, sa, heights),
        times=(0.0,), samples=2000, seed=20260819, radius=1.0,
    )
    assert slice_report.per_time[0] == report.per_time[0]

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    note(
        9,
        f"PASS zero drops at radius 1; KS fell from "
        f"{report.ks[0]:.3f} to {report.ks[-1]:.3f}; deterministic; "
        f"{elapsed:.0f}s",
    )


def relabeled_build(inst, rng):
    k = len(inst.cfg.pieces)
    piece_perm = list(range(k))
    curve_perm = list(range(inst.cfg.n_curves))
    rng.shuffle(piece_perm)
    rng.shuffle(curve_perm)
    cfg2 = relabeled(inst.cfg, tuple(piece_perm), tuple(curve_perm))
    sa2 = SpineAssignment(
        tuple(inst.sa.graphs[p] for p in piece_perm),
        tuple(inst.sa.face_to_slot[p] for p in piece_perm),
    )
    heights2 = [None] * inst.cfg.n_curves
    for i, h in enumerate(inst.heights):
        heights2[curve_perm[i]] = h
    return build_surface(cfg2, sa2, heights2)


def test_criterion_10_spin_parity_well_defined(sweep):
    rng = random.Random(905)
    oriented = [i for i in sweep.instances if i.stratum.epsilon == 1]
    assert oriented
    defined = refused = 0
    for inst in oriented:
        try:
            parity = spin_parity(inst.q)
        except NoSpinStructure:
            refused += 1
            with pytest.raises(NoSpinStructure):
                spin_parity(relabeled_build(inst, rng))
            continue
        defined += 1
        assert_parity_matches_both_oracles(inst.q)
        form = winding_form(inst.q)
        want = arf_invariant(form.q_vals, form.gram)
        assert parity == ("odd" if want else "even")
        n = len(form.q_vals)
        for _ in range(5):
            while True:
                mat = [
                    [rng.randrange(2) for _ in range(n)] for _ in range(n)
                ]
                if rank_gf2([row[:] for row in mat]) == n:
                    break
            new_q, new_gram = transported(form.q_vals, form.gram, mat)
            assert arf_invariant(new_q, new_gram) == want
        assert spin_parity(relabeled_build(inst, rng)) == parity
    assert defined > 0 and refused > 0
    note(
        10,
        f"PASS parity stable under basis change and relabeling on "
        f"{defined} instances; refusal consistent on {refused} without "
        f"a spin structure",
    )


def test_criterion_11_certificates_match_the_search_oracles(sweep, monkeypatch):
    # the polynomial involution search and the ear basis replayed
    # against the exponential searches they replaced: the same
    # involution, the same verdict and the same form on every instance
    searched = formed = 0
    for inst in sweep.instances:
        found = classify_module.hyperelliptic_involution_search(inst.q)
        assert found == reference_involution_search(inst.q), inst.name
        if inst.stratum.epsilon != 1:
            continue
        if inst.rank_lb == inst.cfg.genus:
            searched += 1
            with monkeypatch.context() as m:
                m.setattr(classify_module, "hyperelliptic_involution_search",
                          reference_involution_search)
                assert classify_orbit_closure(inst.q) == inst.verdict, inst.name
        try:
            form = winding_form(inst.q)
        except NoSpinStructure:
            with pytest.raises(NoSpinStructure):
                census_form(inst.q, monkeypatch)
            continue
        formed += 1
        assert form == census_form(inst.q, monkeypatch), inst.name
    assert searched > 0 and formed > 0
    note(11, f"PASS involution search and ear-basis spin form match the "
             f"depth-first and census oracles ({searched} searches decide "
             f"a verdict, {formed} forms)")


def test_criterion_12_core_lift_closure_matches_the_dense_oracle(sweep):
    # the sparse closure check of lifted_curve_classes against the dense
    # product with every row of d1, on every cover of the sweep
    from test_cover import assert_closure_oracle_agrees, dense_core_lifts

    for inst in sweep.instances:
        assert all(closed for _, closed in dense_core_lifts(inst.cover)), inst.name
        assert_closure_oracle_agrees(inst.cover, inst.cfg)
    note(12, f"PASS sparse core-lift closure check matches the dense d1 "
             f"product on {len(sweep.instances)} covers")


def test_criterion_13_spin_solvers_match_their_oracles(sweep, monkeypatch):
    # the orientation bits read off the alternation system, checked edge
    # by edge against the gluing flips, and the rank of the symplectic
    # reduction against rank_gf2 after every loop winding_form adds
    oriented = formed = 0
    for inst in sweep.instances:
        assert assert_bits_match_joint_orientability(inst.q) == inst.jo, inst.name
        if not inst.jo:
            continue
        oriented += 1
        try:
            form = winding_form(inst.q)
        except NoSpinStructure:
            continue
        formed += 1
        assert rank_checked_form(inst.q, monkeypatch) == form, inst.name
    assert oriented > 0 and formed > 0
    note(13, f"PASS orientation bits respect every gluing on {oriented} "
             f"oriented surfaces; the reduction's rank is the GF(2) rank "
             f"after every loop of {formed} forms")


def test_criterion_14_integer_perimeters_match_the_fraction_sums(sweep):
    # each face perimeter is one integer sum over a common denominator;
    # on every spine graph of the sweep it must be the Fraction sum
    graphs = [graph for inst in sweep.instances for graph in inst.sa.graphs]
    for graph in graphs:
        assert_integer_perimeters(graph)
    note(14, f"PASS integer perimeters equal the Fraction sums on "
             f"{len(graphs)} spine graphs")


def test_criterion_15_trace_dimension_matches_the_two_elimination_route(sweep):
    # (2 g_hat - tr M)/2 against the rank(I - M) basis and the rank
    # identity 2 g_hat - rank(I + M), on every cover of the sweep
    from oracles import anti_invariant_basis

    for inst in sweep.instances:
        assert inst.anti_dim == len(anti_invariant_basis(inst.cover)), inst.name
    note(15, f"PASS anti-invariant dimension from the trace equals the "
             f"two-elimination count on {len(sweep.instances)} covers")
