from fractions import Fraction

import pytest

import ttlab.classify
from ttlab.classify import (
    FULL_STRATUM,
    HYPERELLIPTIC,
    INCONCLUSIVE,
    StratumLabel,
    classify_orbit_closure,
    classify_pants_torus,
    high_rank_threshold,
    hyperelliptic_involution_search,
    identify_stratum,
    nabla_count,
)
from ttlab.errors import (
    BadPartition,
    ModeMismatch,
    NotPants,
)
from ttlab.ribbon import SpineAssignment, pants_assignment, plumbing_fixture
from ttlab.surface import EXACT, NUMERIC, _ribbon_isos, build_surface
from ttlab.topology import (
    enumerate_pants_configs,
    is_pants_decomposition,
    make_config,
)

from test_ribbon import nabla_assignment, theta_assignment
from test_topology import SEPARATING, TWO_PANTS

F = Fraction

# Four pants pieces in a ring, with doubled connections between the
# first and second and between the third and fourth.  With lengths
# (1, 1, 2, 1, 1, 2) every piece gets the triple (1, 1, 2), so all four
# have the a = b + c property, and the sign constraints close up around
# the ring with an even number of flips.
RING3 = make_config(
    3,
    [(0, 3)] * 4,
    [
        ((0, 0), (1, 0)),
        ((0, 1), (1, 1)),
        ((1, 2), (2, 0)),
        ((2, 1), (3, 0)),
        ((2, 2), (3, 1)),
        ((3, 2), (0, 2)),
    ],
)
RING3_LENGTHS = (1, 1, 2, 1, 1, 2)

# No curve length is another one's double and no length is a sum of two
# others, so every piece triple of every genus-3 configuration is
# strictly triangular.
GENERIC6 = (3, 4, 9, 14, 25, 37)


def plumbing_pair(p, length=2):
    """Two plumbing fixtures with all boundaries glued straight across."""
    k = p - 1
    cfg = make_config(k, [(0, p), (0, p)], [((0, j), (1, j)) for j in range(p)])
    graphs = (plumbing_fixture(p, length), plumbing_fixture(p, length))
    fts = tuple(range(p))
    return cfg, SpineAssignment(graphs, (fts, fts))


def plumbing_ring(n_pieces, length=2):
    """Ring of four-holed fixtures, doubled edges between neighbours."""
    gluing = []
    for i in range(n_pieces):
        j = (i + 1) % n_pieces
        gluing.append(((i, 0), (j, 2)))
        gluing.append(((i, 1), (j, 3)))
    genus = n_pieces + 1
    cfg = make_config(genus, [(0, 4)] * n_pieces, gluing)
    graphs = tuple(plumbing_fixture(4, length) for _ in range(n_pieces))
    fts = tuple(tuple(range(4)) for _ in range(n_pieces))
    return cfg, SpineAssignment(graphs, fts)


def odd_plumbing():
    """Three 3-holed fixtures around a 5-holed one, plus one self-gluing.

    All eight cone orders are odd and no piece is co-orientable, so the
    rank certificate equals the full curve count.
    """
    cfg = make_config(
        4,
        [(0, 3), (0, 3), (0, 3), (0, 5)],
        [
            ((3, 0), (0, 0)),
            ((3, 1), (0, 1)),
            ((3, 2), (1, 0)),
            ((3, 3), (1, 1)),
            ((3, 4), (2, 0)),
            ((0, 2), (1, 2)),
            ((2, 1), (2, 2)),
        ],
    )
    graphs = tuple(plumbing_fixture(p, 2) for p in (3, 3, 3, 5))
    fts = tuple(tuple(range(p)) for p in (3, 3, 3, 5))
    return cfg, SpineAssignment(graphs, fts)


def relabeled(cfg, piece_perm, curve_perm):
    """Same configuration with pieces and curves renumbered."""
    inv_p = {old: new for new, old in enumerate(piece_perm)}
    pieces = [
        (cfg.pieces[p].genus, cfg.pieces[p].n_slots) for p in piece_perm
    ]
    gluing = [None] * cfg.n_curves
    for i, pair in enumerate(cfg.gluing):
        gluing[curve_perm[i]] = tuple((inv_p[p], s) for p, s in pair)
    return make_config(cfg.genus, pieces, gluing)


def reference_involution_search(q):
    """The involution search as a depth-first search over every piece
    map, kept as an oracle for hyperelliptic_involution_search.

    It tries each unassigned target piece and each ribbon iso in turn
    and applies the fixed-point census to every complete assignment it
    reaches, returning the first that totals 2g + 2.  It is exponential
    in the number of self-mapped pieces; the shipped version once ran
    it behind a limit of 12 pieces and 500,000 nodes, lifted here.
    """
    cfg, sa = q.cfg, q.sa
    if is_pants_decomposition(cfg):
        return None
    partner = {}
    for a, b in q.glued_faces:
        partner[a] = b
        partner[b] = a
    one = Fraction(1)

    def faces_ok(p, t, iso):
        g_p, g_t = sa.graphs[p], sa.graphs[t]
        return all(
            partner[(p, f)] == (t, g_t.face_of(iso[face[0]]))
            for f, face in enumerate(g_p.faces())
        )

    def census(assignment):
        fixed = 2 * cfg.n_curves
        for p, (t, iso) in assignment.items():
            if t != p:
                continue
            graph = sa.graphs[p]
            for orbit in graph.vertices():
                if iso[orbit[0]] in orbit:
                    fixed += 1
            for h, _ in graph.edges():
                if iso[h] == graph.iota[h]:
                    fixed += 1
        assert fixed <= 2 * cfg.genus + 2
        assert fixed % 4 == (2 * cfg.genus + 2) % 4
        return fixed

    def extend(assignment):
        unassigned = [p for p in range(len(cfg.pieces)) if p not in assignment]
        if not unassigned:
            if census(assignment) == 2 * cfg.genus + 2:
                return {
                    (p, h): (t, iso[h])
                    for p, (t, iso) in assignment.items()
                    for h in range(sa.graphs[p].n_half_edges)
                }
            return None
        p = unassigned[0]
        for t in unassigned:
            if cfg.pieces[p] != cfg.pieces[t]:
                continue
            for iso in _ribbon_isos(sa.graphs[p], sa.graphs[t], one, one, EXACT):
                if not faces_ok(p, t, iso):
                    continue
                if p == t:
                    if any(iso[iso[h]] != h for h in iso):
                        continue
                    assignment[p] = (p, iso)
                else:
                    assignment[p] = (t, iso)
                    assignment[t] = (p, {v: k for k, v in iso.items()})
                found = extend(assignment)
                if found is not None:
                    return found
                del assignment[p]
                if t != p:
                    del assignment[t]
        return None

    return extend({})


def assert_search_matches_reference(q, monkeypatch):
    """Same involution as the depth-first oracle, and the same verdict
    when the classifier asks the oracle instead."""
    found = hyperelliptic_involution_search(q)
    assert found == reference_involution_search(q)
    verdict = classify_orbit_closure(q)
    with monkeypatch.context() as m:
        m.setattr(ttlab.classify, "hyperelliptic_involution_search",
                  reference_involution_search)
        assert classify_orbit_closure(q) == verdict
    return found


# --- stratum labels ----------------------------------------------------------


def test_stratum_label_strings():
    assert str(StratumLabel(2, (1, 1, 1, 1), -1)) == "Q(1^4;-1)"
    assert str(StratumLabel(3, (2, 2, 2, 2), 1)) == "Q(2^4;+1)"
    assert str(StratumLabel(3, (1, 1, 1, 1, 1, 1, 2), -1)) == "Q(1^6,2;-1)"
    assert str(StratumLabel(4, (1, 1, 1, 1, 1, 1, 3, 3), -1)) == "Q(1^6,3^2;-1)"


def test_stratum_label_invariants():
    label = StratumLabel(4, (1, 1, 1, 1, 1, 1, 3, 3), -1)
    assert label.n_sing_odd == 8
    assert label.dim == 2 * 4 - 2 + 8
    assert StratumLabel(3, (2, 2, 2, 2), 1).dim == 9
    with pytest.raises(BadPartition):
        StratumLabel(2, (1, 1, 1), -1)
    with pytest.raises(BadPartition):
        StratumLabel(2, (1, 1, 2), 1)
    with pytest.raises(BadPartition):
        StratumLabel(2, (2, 1, 1), -1)
    with pytest.raises(BadPartition):
        StratumLabel(2, (1, 1, 1, 1), 0)


def test_identify_stratum():
    assert identify_stratum(
        build_surface(TWO_PANTS, theta_assignment(), (1,) * 3)
    ) == StratumLabel(2, (1, 1, 1, 1), -1)
    assert identify_stratum(
        build_surface(SEPARATING, nabla_assignment(SEPARATING, (2, 2)), (1,) * 3)
    ) == StratumLabel(2, (2, 2), -1)
    assert identify_stratum(
        build_surface(TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0)), (1,) * 3)
    ) == StratumLabel(2, (2, 2), 1)


def test_high_rank_threshold():
    assert high_rank_threshold(3, 8) == F(11, 2)
    assert high_rank_threshold(2, 4) == F(7, 2)
    assert high_rank_threshold(3, 0) == F(7, 2)


# --- nabla counting ----------------------------------------------------------


def test_nabla_count():
    assert nabla_count(TWO_PANTS, (5, 5, 5)) == 0
    assert nabla_count(TWO_PANTS, (2, 1, 1)) == 2
    assert nabla_count(TWO_PANTS, (4, 2, 1)) == 0
    # self-gluings count the curve twice in the triple
    assert nabla_count(SEPARATING, (1, 2, 1)) == 2
    assert nabla_count(SEPARATING, (1, 2, 5)) == 1


def test_nabla_count_rejects():
    square = make_config(2, [(1, 2)], [((0, 0), (0, 1))])
    with pytest.raises(NotPants):
        nabla_count(square, (1,))
    with pytest.raises(ModeMismatch):
        nabla_count(TWO_PANTS, (2.0, 1, 1))


# --- the corollary table for pants ------------------------------------------


def test_genus3_generic_is_principal():
    for cfg in enumerate_pants_configs(3):
        verdict = classify_pants_torus(cfg, GENERIC6, (1,) * 6)
        assert verdict.certificate["nabla"] == 0
        assert verdict.kind == FULL_STRATUM
        assert verdict.stratum == StratumLabel(3, (1,) * 8, -1)
        assert verdict.limit_label == "mu_Mirz/b_g"
        assert verdict.certificate["rank_lb"] == 6
        assert verdict.certificate["threshold"] == F(11, 2)
        assert verdict.certificate["N_co"] == 0


def test_genus3_one_nabla():
    for cfg in enumerate_pants_configs(3):
        lengths = None
        for p in range(len(cfg.pieces)):
            curves = [i for i, pair in enumerate(cfg.gluing) for end in pair if end[0] == p]
            if len(set(curves)) == 3:
                trial = list(GENERIC6)
                a, b, c = curves
                trial[a] = trial[b] + trial[c]
                if nabla_count(cfg, trial) == 1:
                    lengths = trial
                    break
        assert lengths is not None
        verdict = classify_pants_torus(cfg, lengths, (1,) * 6)
        assert verdict.kind == FULL_STRATUM
        assert verdict.stratum == StratumLabel(3, (1, 1, 1, 1, 1, 1, 2), -1)
        assert verdict.limit_label == "MSV, singular to mu_Mirz"
        assert verdict.certificate["rank_lb"] == 5
        assert verdict.certificate["threshold"] == F(5)


def test_genus3_all_nabla_orientable():
    verdict = classify_pants_torus(RING3, RING3_LENGTHS, (1,) * 6)
    assert verdict.certificate["nabla"] == 4
    assert verdict.kind == FULL_STRATUM
    assert verdict.stratum == StratumLabel(3, (2, 2, 2, 2), 1)
    assert verdict.limit_label == "MSV on Q(2^4;+1)"
    assert verdict.certificate["rank_lb"] == 3
    assert verdict.certificate["N_co"] == 4
    assert verdict.certificate["delta_jo"] == 1


def test_genus2_always_inconclusive():
    cases = [
        (TWO_PANTS, (3, 4, 5)),
        (TWO_PANTS, (2, 1, 1)),
        (SEPARATING, (1, 2, 1)),
        (SEPARATING, (3, 4, 5)),
        (SEPARATING, (1, 2, 5)),
    ]
    for cfg, lengths in cases:
        verdict = classify_pants_torus(cfg, lengths, (1, 1, 1))
        assert verdict.kind == INCONCLUSIVE
        assert verdict.limit_label == ""
        assert verdict.certificate["threshold"] <= F(7, 2)
    generic = classify_pants_torus(TWO_PANTS, (3, 4, 5), (1, 1, 1))
    assert generic.certificate["rank_lb"] == 3
    assert generic.certificate["threshold"] == F(7, 2)
    assert generic.certificate["nabla"] == 0


def test_verdict_invariant_under_relabeling_and_rescaling():
    cfg = enumerate_pants_configs(3)[0]
    base = classify_pants_torus(cfg, GENERIC6, (1,) * 6)
    other = relabeled(cfg, [2, 0, 3, 1], [5, 3, 1, 0, 4, 2])
    perm_lengths = [None] * 6
    for i in range(6):
        perm_lengths[[5, 3, 1, 0, 4, 2][i]] = GENERIC6[i]
    moved = classify_pants_torus(other, perm_lengths, (1,) * 6)
    scaled = classify_pants_torus(
        cfg, [3 * x for x in GENERIC6], (F(1, 3),) * 6
    )
    for verdict in (moved, scaled):
        assert verdict.kind == base.kind
        assert verdict.stratum == base.stratum
        assert verdict.certificate == base.certificate
        assert verdict.limit_label == base.limit_label


# --- plumbing families -------------------------------------------------------


def test_plumbing_pair_is_hyperelliptic_candidate():
    cfg, sa = plumbing_pair(6)
    involution = hyperelliptic_involution_search(build_surface(cfg, sa, (1,) * 6))
    assert involution is not None
    for key, image in involution.items():
        assert involution[image] == key
        assert image[0] != key[0]
    verdict = classify_orbit_closure(build_surface(cfg, sa, (1,) * 6))
    assert verdict.kind == HYPERELLIPTIC
    assert verdict.stratum == StratumLabel(5, (4, 4, 4, 4), 1)
    assert verdict.limit_label == "MSV on hyperelliptic locus in Q(4^4;+1)"
    assert verdict.certificate["rank_lb"] == 5


def test_three_fixture_ring_has_no_involution():
    cfg, sa = plumbing_ring(3)
    assert hyperelliptic_involution_search(build_surface(cfg, sa, (1,) * 6)) is None


def test_four_fixture_ring_fills_component():
    cfg, sa = plumbing_ring(4)
    verdict = classify_orbit_closure(build_surface(cfg, sa, (1,) * 8))
    assert verdict.kind == FULL_STRATUM
    assert verdict.stratum == StratumLabel(5, (2,) * 8, 1)
    assert verdict.limit_label == "MSV on Q(2^8;+1)"
    assert verdict.certificate["rank_lb"] == 5


def test_odd_plumbing_fills_component():
    cfg, sa = odd_plumbing()
    verdict = classify_orbit_closure(build_surface(cfg, sa, (1,) * 7))
    assert verdict.kind == FULL_STRATUM
    assert verdict.stratum == StratumLabel(4, (1, 1, 1, 1, 1, 1, 3, 3), -1)
    assert verdict.certificate["rank_lb"] == 7
    assert verdict.certificate["threshold"] == F(13, 2)
    assert verdict.certificate["N_co"] == 0
    assert verdict.limit_label == "MSV on Q(1^6,3^2;-1)"


def test_orbit_closure_needs_an_exact_surface():
    cfg, sa = plumbing_pair(4)
    q = build_surface(cfg, sa, (1,) * cfg.n_curves, mode=NUMERIC)
    with pytest.raises(ModeMismatch):
        classify_orbit_closure(q)


def test_pants_never_admit_the_involution():
    assert hyperelliptic_involution_search(
        build_surface(TWO_PANTS, theta_assignment(), (1,) * 3)) is None
    assert (
        hyperelliptic_involution_search(
            build_surface(TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0)), (1,) * 3)
        )
        is None
    )


def classify_fixtures():
    """Every surface this module classifies, plus plumbing pairs 4-10,
    plumbing rings 2-12 and the genus-3 one-cylinder spines."""
    from test_spin import one_cylinder_catalog  # test_spin imports this module

    yield build_surface(TWO_PANTS, theta_assignment(), (1,) * 3)
    yield build_surface(TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0)), (1,) * 3)
    yield build_surface(RING3, pants_assignment(RING3, RING3_LENGTHS), (1,) * 6)
    for cfg in enumerate_pants_configs(3):
        yield build_surface(cfg, pants_assignment(cfg, GENERIC6), (1,) * 6)
    for p in range(4, 11):
        yield build_surface(*plumbing_pair(p), (1,) * p)
    for n in range(2, 13):
        yield build_surface(*plumbing_ring(n), (1,) * (2 * n))
    cfg, sa = odd_plumbing()
    yield build_surface(cfg, sa, (1,) * cfg.n_curves)
    yield from one_cylinder_catalog()


def test_search_matches_the_depth_first_oracle(monkeypatch):
    found = [
        assert_search_matches_reference(q, monkeypatch) is not None
        for q in classify_fixtures()
    ]
    # plumbing pairs 4-10, ring 2 and the symmetric one-cylinder spine
    assert sum(found) == 9


@pytest.mark.parametrize("n_pieces", [13, 14, 20])
def test_long_rings_answer(n_pieces, monkeypatch):
    # the depth-first search refused these past its 12-piece limit;
    # piece 0 is forced onto piece 1, which is forced onward to piece 2
    cfg, sa = plumbing_ring(n_pieces)
    q = build_surface(cfg, sa, (1,) * cfg.n_curves)
    assert assert_search_matches_reference(q, monkeypatch) is None


def test_fourteen_fixture_ring_fills_component():
    cfg, sa = plumbing_ring(14)
    verdict = classify_orbit_closure(build_surface(cfg, sa, (1,) * 28))
    assert verdict.kind == FULL_STRATUM
    assert verdict.stratum == StratumLabel(15, (2,) * 28, 1)
    assert verdict.certificate["rank_lb"] == 15


def test_fixed_point_census_survives_optimize_mode():
    # one fixed point too many on the self-mapped piece of the symmetric
    # one-cylinder surface gives a total of the wrong residue mod 4, so
    # the quotient would not be a surface of any genus
    from test_cover import run_optimized

    out = run_optimized("""
        import sys
        import ttlab.classify
        from ttlab.errors import CrossCheckFailed
        from test_spin import SYMMETRIC_PAIRS, one_cylinder_surface

        assert False, "asserts are on"
        q, _ = one_cylinder_surface(SYMMETRIC_PAIRS)
        if ttlab.classify.hyperelliptic_involution_search(q) is None:
            sys.exit(2)
        real = ttlab.classify._fixed_points
        ttlab.classify._fixed_points = lambda graph, iso: real(graph, iso) + 1
        try:
            ttlab.classify.hyperelliptic_involution_search(q)
        except CrossCheckFailed as exc:
            print("caught:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "fixed points on a genus-3 involution" in out


def test_rank_formula_check_survives_optimize_mode():
    # under -O every assert is gone; a lifted-class rank that disagrees
    # with the counting formula must still stop the classification
    from test_cover import run_optimized  # test_cover imports this module

    out = run_optimized("""
        import sys
        import ttlab.classify
        from ttlab.errors import CrossCheckFailed
        from ttlab.surface import build_surface
        from test_classify import plumbing_pair

        assert False, "asserts are on"
        real = ttlab.classify.rank_lower_bound
        ttlab.classify.rank_lower_bound = lambda c, cfg: real(c, cfg) + 1
        cfg, sa = plumbing_pair(4)
        try:
            ttlab.classify.classify_orbit_closure(
                build_surface(cfg, sa, (1,) * cfg.n_curves))
        except CrossCheckFailed as exc:
            print("caught:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "counting formula" in out


def test_pinned_pants_stratum_survives_optimize_mode():
    # a nabla count off by one pins a stratum the general classifier did
    # not find; under -O that disagreement must still stop the verdict
    from test_cover import run_optimized

    out = run_optimized("""
        import sys
        import ttlab.classify
        from ttlab.errors import CrossCheckFailed
        from ttlab.topology import enumerate_pants_configs
        from test_classify import GENERIC6

        assert False, "asserts are on"
        real = ttlab.classify._nabla
        ttlab.classify._nabla = lambda cfg, lengths: real(cfg, lengths) + 1
        cfg = enumerate_pants_configs(3)[0]
        try:
            ttlab.classify.classify_pants_torus(cfg, GENERIC6, (1,) * 6)
        except CrossCheckFailed as exc:
            print("caught:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "the counts pin" in out
