from fractions import Fraction

import pytest

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
    SearchBudgetExceeded,
)
from ttlab.ribbon import SpineAssignment, plumbing_fixture
from ttlab.surface import NUMERIC, build_surface
from ttlab.topology import enumerate_pants_configs, make_config

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


def test_search_budget():
    cfg, sa = plumbing_ring(13)
    with pytest.raises(SearchBudgetExceeded):
        hyperelliptic_involution_search(build_surface(cfg, sa, (1,) * cfg.n_curves))


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
