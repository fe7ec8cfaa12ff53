from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from ttlab import linalg
from ttlab.errors import (
    InvalidAssignment,
    LowValence,
    MalformedGraph,
    NonPositiveLength,
    OddValence,
    OutOfRange,
)
from ttlab.ribbon import (
    MetricRibbonGraph,
    SpineAssignment,
    boundary_cycles,
    co_orientable,
    cone_orders,
    jointly_orientable,
    pants_spine,
    plumbing_fixture,
    single_vertex_graph,
    validate_assignment,
)
from ttlab.rng import CounterRandom
from ttlab.surface import build_surface
from ttlab.topology import make_config

from test_topology import SEPARATING, TWO_PANTS


def _exhaustive_co_orientable(graph):
    """Oracle: try all sign assignments instead of union-find."""
    n = graph.n_half_edges
    for bits in range(1 << n):
        s = [(bits >> h) & 1 for h in range(n)]
        ok = all(s[h] != s[graph.iota[h]] and s[h] != s[graph.sigma[h]]
                 for h in range(n))
        if ok:
            return True
    return False


def test_theta_face_perimeters_solve_boundary_system():
    # boundary lengths (3,4,5): solve the face-length system for the edges
    # faces of the theta graph use edge pairs {1,2}, {2,3}, {3,1}
    system = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    (solution,) = linalg.solve_square(system, [[3, 4, 5]])
    assert sorted(solution) == [1, 2, 3]
    graph, order = pants_spine(3, 4, 5)
    assert sorted(graph.lengths.values()) == sorted(solution)
    per = [p for _, p in boundary_cycles(graph)]
    assert sorted(per) == [3, 4, 5]
    assert [per[order[k]] for k in range(3)] == [3, 4, 5]


def test_perimeter_sum_is_twice_length_sum():
    rng = CounterRandom(11, "ribbon")
    graphs = [
        pants_spine(3, 4, 5)[0],
        pants_spine(10, 3, 2)[0],
        pants_spine(5, 3, 2)[0],
        plumbing_fixture(5, 2),
        single_vertex_graph([1, 0, 3, 2, 5, 4],
                            {0: rng.fraction(), 2: rng.fraction(),
                             4: rng.fraction()}),
    ]
    for graph in graphs:
        total = sum(p for _, p in boundary_cycles(graph))
        assert total == 2 * graph.total_length()


def test_four_valent_vertex_face_orbits():
    graph = single_vertex_graph([1, 0, 3, 2], {0: 3, 2: 2})
    per = [p for _, p in boundary_cycles(graph)]
    assert per == [5, 3, 2]


def test_cone_orders():
    assert cone_orders(pants_spine(3, 4, 5)[0]) == [1, 1]
    assert cone_orders(pants_spine(5, 3, 2)[0]) == [2]
    assert cone_orders(plumbing_fixture(7, 2)) == [5, 5]


def test_cone_orders_rejects_low_valence():
    # two vertices joined by two parallel edges: both have valence 2
    graph = MetricRibbonGraph(sigma=[1, 0, 3, 2], iota=[2, 3, 0, 1],
                              lengths={0: 1, 1: 1})
    with pytest.raises(LowValence):
        cone_orders(graph)


def test_co_orientable_matches_exhaustive_search():
    cases = [
        pants_spine(3, 4, 5)[0],
        pants_spine(5, 3, 2)[0],
        pants_spine(10, 3, 2)[0],
        plumbing_fixture(3, 2),
        plumbing_fixture(4, 2),
        plumbing_fixture(5, 2),
        single_vertex_graph([1, 0, 3, 2], {0: 3, 2: 2}),
        single_vertex_graph([2, 3, 0, 1], {0: 3, 1: 2}),
    ]
    for graph in cases:
        assert co_orientable(graph) == _exhaustive_co_orientable(graph)


def test_odd_valence_never_co_orientable():
    assert not co_orientable(pants_spine(3, 4, 5)[0])
    assert not co_orientable(pants_spine(10, 3, 2)[0])
    assert not co_orientable(plumbing_fixture(7, 2))


def test_nested_loops_co_orientable_interleaved_not():
    nested = single_vertex_graph([1, 0, 3, 2], {0: 3, 2: 2})
    assert co_orientable(nested)
    interleaved = single_vertex_graph([2, 3, 0, 1], {0: 3, 1: 2})
    assert not co_orientable(interleaved)
    assert not _exhaustive_co_orientable(interleaved)


def test_plumbing_fixture_structure():
    theta = plumbing_fixture(3, 2)
    assert theta.genus() == 0
    assert theta.n_boundaries() == 3
    assert sorted(theta.lengths.values()) == [1, 1, 1]
    assert all(p == 2 for _, p in boundary_cycles(theta))

    seven = plumbing_fixture(7, 2)
    assert seven.n_boundaries() == 7
    assert all(p == 2 for _, p in boundary_cycles(seven))

    for p in range(3, 9):
        assert co_orientable(plumbing_fixture(p, 2)) == (p % 2 == 0)
    with pytest.raises(OutOfRange):
        plumbing_fixture(2, 2)
    with pytest.raises(NonPositiveLength):
        plumbing_fixture(3, 0)


def test_pants_spine_trichotomy():
    theta, _ = pants_spine(3, 4, 5)
    assert len(theta.vertices()) == 2
    assert len(theta.edges()) == 3

    nabla, order = pants_spine(5, 3, 2)
    assert len(nabla.vertices()) == 1
    assert sorted(nabla.lengths.values()) == [2, 3]
    per = [p for _, p in boundary_cycles(nabla)]
    assert [per[order[k]] for k in range(3)] == [5, 3, 2]

    bell, order = pants_spine(10, 3, 2)
    assert len(bell.vertices()) == 2
    assert sorted(bell.lengths.values()) == [2, Fraction(5, 2), 3]
    per = [p for _, p in boundary_cycles(bell)]
    assert [per[order[k]] for k in range(3)] == [10, 3, 2]


def test_pants_spine_handles_any_argument_order():
    for trip in itertools.permutations((10, 3, 2)):
        graph, order = pants_spine(*trip)
        per = [p for _, p in boundary_cycles(graph)]
        assert [per[order[k]] for k in range(3)] == list(trip)
    for trip in itertools.permutations((5, 3, 2)):
        graph, order = pants_spine(*trip)
        per = [p for _, p in boundary_cycles(graph)]
        assert [per[order[k]] for k in range(3)] == list(trip)


def test_pants_spine_rational_walls():
    # exactly on the wall: one third of the boundary sums
    graph, _ = pants_spine(Fraction(7, 3), Fraction(4, 3), 1)
    assert len(graph.vertices()) == 1  # 7/3 = 4/3 + 3/3
    graph, _ = pants_spine(Fraction(7, 3) + Fraction(1, 1000), Fraction(4, 3), 1)
    assert len(graph.vertices()) == 2  # nudged off the wall: dumbbell


def test_pants_spine_rejects_nonpositive():
    with pytest.raises(NonPositiveLength):
        pants_spine(0, 1, 2)
    with pytest.raises(NonPositiveLength):
        pants_spine(3, -1, 2)


def test_single_vertex_graph_rejects_odd():
    with pytest.raises(OddValence):
        single_vertex_graph([1, 0, 2], {0: 1})


def test_malformed_graphs_are_rejected():
    with pytest.raises(MalformedGraph):
        MetricRibbonGraph(sigma=[0, 1], iota=[0, 1], lengths={0: 1})
    with pytest.raises(MalformedGraph):
        MetricRibbonGraph(sigma=[1, 0, 2], iota=[1, 0, 2], lengths={0: 1})
    with pytest.raises(NonPositiveLength):
        single_vertex_graph([1, 0, 3, 2], {0: 0, 2: 1})
    # two disjoint loops: not connected
    with pytest.raises(MalformedGraph):
        MetricRibbonGraph(sigma=[1, 0, 3, 2], iota=[1, 0, 3, 2],
                          lengths={0: 1, 2: 1})


# --- spine assignments --------------------------------------------------------


def theta_assignment(lengths=((3, 4, 5), (3, 4, 5))):
    graphs = []
    maps = []
    for trip in lengths:
        graph, order = pants_spine(*trip)
        graphs.append(graph)
        face_to_slot = [None] * 3
        for k in range(3):
            face_to_slot[order[k]] = k
        maps.append(tuple(face_to_slot))
    return SpineAssignment(tuple(graphs), tuple(maps))


def test_two_pants_assignment_validates():
    sa = theta_assignment()
    lengths = validate_assignment(TWO_PANTS, sa)
    assert lengths == [3, 4, 5]


def test_mismatched_perimeters_rejected():
    sa = theta_assignment(((3, 4, 5), (3, 4, 6)))
    with pytest.raises(InvalidAssignment):
        validate_assignment(TWO_PANTS, sa)


def test_jointly_orientable_needs_co_orientable_pieces():
    sa = theta_assignment()
    flag, eps = jointly_orientable(build_surface(TWO_PANTS, sa, [1] * 3))
    assert (flag, eps) == (False, -1)


def nabla_assignment(cfg, big_slot_of_piece):
    """All-(2,1,1) spines; big_slot_of_piece[p] is the slot carrying the
    perimeter-2 face on piece p."""
    graphs = []
    maps = []
    for p in range(2):
        graph, order = pants_spine(2, 1, 1)
        graphs.append(graph)
        big = big_slot_of_piece[p]
        small = [s for s in range(3) if s != big]
        # order maps boundaries (2,1,1) to faces: face order[0] has perimeter 2
        face_to_slot = [None] * 3
        face_to_slot[order[0]] = big
        face_to_slot[order[1]] = small[0]
        face_to_slot[order[2]] = small[1]
        maps.append(tuple(face_to_slot))
    return SpineAssignment(tuple(graphs), tuple(maps))


def test_compatible_nabla_gluing_is_jointly_orientable():
    cfg = make_config(
        genus=2,
        pieces=[(0, 3), (0, 3)],
        gluing=[((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
    )
    sa = nabla_assignment(cfg, big_slot_of_piece=(0, 0))
    assert validate_assignment(cfg, sa) == [2, 1, 1]
    flag, eps = jointly_orientable(build_surface(cfg, sa, [1] * 3))
    assert (flag, eps) == (True, 1)


def test_coorientable_pieces_can_still_fail_jointly():
    # separating curve plus a handle curve on each side, nabla spines:
    # both pieces are co-orientable but the self-gluings cannot be
    # oriented consistently
    sa = nabla_assignment(SEPARATING, big_slot_of_piece=(2, 2))
    assert all(co_orientable(g) for g in sa.graphs)
    flag, eps = jointly_orientable(build_surface(SEPARATING, sa, [1] * 3))
    assert (flag, eps) == (False, -1)
