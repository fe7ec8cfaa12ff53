from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

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
    co_orientable,
    cone_orders,
    jointly_orientable,
    pants_assignment,
    pants_spine,
    plumbing_fixture,
    ribbon_isomorphisms,
    single_vertex_graph,
    validate_assignment,
)
from ttlab.rng import CounterRandom
from ttlab.spin import orientation_bits
from ttlab.surface import build_surface
from ttlab.topology import enumerate_pants_configs, make_config

from oracles import solve_square, total_length
from test_topology import SEPARATING, TWO_PANTS


def _exhaustive_co_orientable(graph):
    """Oracle: try all sign assignments instead of two-colouring faces."""
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
    (solution,) = solve_square(system, [[3, 4, 5]])
    assert sorted(solution) == [1, 2, 3]
    graph, order = pants_spine(3, 4, 5)
    assert sorted(graph.lengths.values()) == sorted(solution)
    per = list(graph.perimeters())
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
        total = sum(graph.perimeters())
        assert total == 2 * total_length(graph)


def test_four_valent_vertex_face_orbits():
    graph = single_vertex_graph([1, 0, 3, 2], {0: 3, 2: 2})
    per = list(graph.perimeters())
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
    assert all(p == 2 for p in theta.perimeters())

    seven = plumbing_fixture(7, 2)
    assert seven.n_boundaries() == 7
    assert all(p == 2 for p in seven.perimeters())

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
    per = list(nabla.perimeters())
    assert [per[order[k]] for k in range(3)] == [5, 3, 2]

    bell, order = pants_spine(10, 3, 2)
    assert len(bell.vertices()) == 2
    assert sorted(bell.lengths.values()) == [2, Fraction(5, 2), 3]
    per = list(bell.perimeters())
    assert [per[order[k]] for k in range(3)] == [10, 3, 2]


def test_pants_spine_handles_any_argument_order():
    for trip in itertools.permutations((10, 3, 2)):
        graph, order = pants_spine(*trip)
        per = list(graph.perimeters())
        assert [per[order[k]] for k in range(3)] == list(trip)
    for trip in itertools.permutations((5, 3, 2)):
        graph, order = pants_spine(*trip)
        per = list(graph.perimeters())
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


# (sigma, iota, lengths, error type, message); where a graph has several
# faults, the one MetricRibbonGraph checks first is reported
MALFORMED_GRAPHS = [
    ([0, 1], [0, 1], {0: 1}, MalformedGraph, "iota fixes half-edge 0"),
    ([1, 0, 2], [1, 0, 2], {0: 1}, MalformedGraph, "odd number of half-edges"),
    ([1, 2, 3, 0], [1, 0, 3, 2], {0: 0, 2: 1}, NonPositiveLength,
     "edge 0 has length 0"),
    ([1, 2, 3, 0], [1, 0, 3, 2], {0: 1, 2: Fraction(-1, 2)}, NonPositiveLength,
     "edge 2 has length -1/2"),
    # two disjoint loops: not connected
    ([1, 0, 3, 2], [1, 0, 3, 2], {0: 1, 2: 1}, MalformedGraph,
     "graph is not connected"),
    ([1, 2, 3, 0], [1, 2, 3, 0], {0: 1, 1: 1}, MalformedGraph,
     "iota is not an involution"),
    ([1, 2, 3, 0], [1, 0, 3, 2], {0: 1}, MalformedGraph,
     "lengths keyed by wrong half-edges"),
    ([1, 2, 3, 0], [1, 0, 3, 2], {0: 1, 2: 1, 5: 1}, MalformedGraph,
     "lengths keyed by wrong half-edges"),
    ([0, 0], [1, 0], {0: 1}, MalformedGraph, "sigma is not a permutation"),
    ([1, 0], [1, 1], {0: 1}, MalformedGraph, "iota is not a permutation"),
    ([1, 0], [1, 0, 2], {0: 1}, MalformedGraph, "iota is not a permutation"),
    ([0, 0], [0, 0], {0: 0}, MalformedGraph, "sigma is not a permutation"),
    # a non-involution at half-edge 0 comes before the fixed point at 3
    ([1, 2, 3, 0], [1, 2, 0, 3], {0: 1}, MalformedGraph,
     "iota is not an involution"),
    ([1, 2, 3, 0], [0, 2, 1, 3], {0: 1}, MalformedGraph,
     "iota fixes half-edge 0"),
    # wrong keys before a bad length, a bad length before connectivity
    ([1, 2, 3, 0], [1, 0, 3, 2], {0: 1, 4: 0}, MalformedGraph,
     "lengths keyed by wrong half-edges"),
    ([1, 0, 3, 2], [1, 0, 3, 2], {0: 1, 2: 0}, NonPositiveLength,
     "edge 2 has length 0"),
]


def test_malformed_graphs_are_rejected():
    for sigma, iota, lengths, error, message in MALFORMED_GRAPHS:
        with pytest.raises(error) as info:
            MetricRibbonGraph(sigma, iota, lengths)
        assert str(info.value) == message, (sigma, iota, lengths)
    with pytest.raises(NonPositiveLength) as info:
        single_vertex_graph([1, 0, 3, 2], {0: 0, 2: 1})
    assert str(info.value) == "edge 0 has length 0"


def fraction_perimeters(graph):
    """Face perimeters summed as Fractions, one edge at a time."""
    return tuple(sum((graph.length_of(h) for h in face), Fraction(0))
                 for face in graph.faces())


def assert_integer_perimeters(graph):
    """The perimeters, one integer sum per face, are the Fraction sums."""
    per = graph.perimeters()
    assert per == fraction_perimeters(graph)
    assert all(type(p) is Fraction for p in per)
    assert all(type(v) is Fraction for v in graph.lengths.values())


def test_integer_perimeters_are_the_fraction_sums():
    F = Fraction
    graphs = [pants_spine(*trip)[0] for trip in [
        (3, 4, 5), (5, 3, 2), (2, 3, 5), (10, 3, 2),
        (F(1, 2), F(1, 3), F(5, 6)), (F(7, 2), F(3, 2), 2),
        (F(9, 4), F(3, 4), F(3, 2)), (F(1, 6), F(1, 10), F(1, 15)),
    ]]
    graphs += [plumbing_fixture(p, length)
               for p in (3, 4, 6) for length in (1, F(3, 7), F(10, 9))]
    graphs += [
        single_vertex_graph([1, 0, 3, 2, 5, 4],
                            {0: F(1, 2), 2: F(2, 3), 4: F(5, 7)}),
        single_vertex_graph([3, 4, 5, 0, 1, 2],
                            {3: F(1, 6), 1: F(4, 9), 2: 2}),
        single_vertex_graph([2, 3, 0, 1], {0: F(1, 4), 1: F(5, 12)}),
        single_vertex_graph([1, 0, 3, 2], {0: 3, 2: 2}),
    ]
    for graph in graphs:
        assert_integer_perimeters(graph)
    # a length that is already a Fraction is kept as it is
    half = F(1, 2)
    assert single_vertex_graph([1, 0], {0: half}).lengths[0] is half


def graph_outcome(build):
    """What a graph build gives: its data, or its error and message."""
    try:
        g = build()
    except (MalformedGraph, NonPositiveLength) as exc:
        return type(exc), str(exc)
    n = g.n_half_edges
    return (g.sigma, g.iota, tuple(g.lengths.items()), g.vertices(), g.faces(),
            g.perimeters(), [g.vertex_of(h) for h in range(n)],
            [g.face_of(h) for h in range(n)])


def test_new_lengths_build_the_graph_a_full_build_gives():
    F = Fraction
    shapes = [pants_spine(*trip)[0] for trip in ((3, 4, 5), (2, 3, 5), (10, 3, 2))]
    shapes += [plumbing_fixture(4, 2),
               single_vertex_graph([3, 4, 5, 0, 1, 2], {0: 1, 1: 2, 2: 3})]
    for g in shapes:
        edges = [h for h, _ in g.edges()]
        tries = [
            {e: F(k + 1, 3) for k, e in enumerate(edges)},
            {g.iota[e]: k + 2 for k, e in enumerate(edges)},  # larger half-edges
            {e: (0 if k == 1 else 1) for k, e in enumerate(edges)},
            {e: F(-1, 2) for e in edges},
            {e: 1 for e in edges[1:]},
            {**{e: 1 for e in edges}, g.n_half_edges: 1},
            {**{e: 1 for e in edges}, edges[0]: -1, g.n_half_edges + 1: 1},
        ]
        for lengths in tries:
            full = graph_outcome(lambda: MetricRibbonGraph(g.sigma, g.iota, lengths))
            assert graph_outcome(lambda: g.with_lengths(lengths)) == full, lengths


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


def test_piece_count_mismatch_rejected():
    sa = theta_assignment(((3, 4, 5),))
    with pytest.raises(InvalidAssignment, match="piece count mismatch"):
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


def _exhaustive_joint_bits(q):
    """Oracle: try every sign per half-edge of every piece, with
    s(h) != s(iota h) and s(h) != s(sigma h) in each piece and opposite
    signs on the first half-edges of each curve's two glued faces.
    Returns the set of per-curve bottom-face signs relative to curve 0
    over all solutions, empty when there is none."""
    graphs = q.sa.graphs
    offsets = [0]
    for graph in graphs:
        offsets.append(offsets[-1] + graph.n_half_edges)
    apart = [(off + h, off + k)
             for graph, off in zip(graphs, offsets)
             for h in range(graph.n_half_edges)
             for k in (graph.iota[h], graph.sigma[h])]
    firsts = [[offsets[p] + graphs[p].faces()[f][0] for p, f in ends]
              for ends in q.glued_faces]
    apart += firsts
    found = set()
    for signs in range(1 << offsets[-1]):
        if all((signs >> a ^ signs >> b) & 1 for a, b in apart):
            base = signs >> firsts[0][0]
            found.add(tuple((signs >> b ^ base) & 1 for b, _ in firsts))
    return found


def joint_fixtures():
    """The surfaces of test_classify.classify_fixtures, the two built in
    this module's joint tests, and the genus-2 pants catalog on theta,
    four-valent and dumbbell spines."""
    from test_classify import classify_fixtures  # it imports this module

    yield from classify_fixtures()
    yield build_surface(SEPARATING, nabla_assignment(SEPARATING, (2, 2)),
                        [1] * 3)
    cfg = make_config(2, [(0, 3), (0, 3)],
                      [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    yield build_surface(cfg, nabla_assignment(cfg, (0, 0)), [1] * 3)
    for cfg in enumerate_pants_configs(2):
        for lengths in ((3, 4, 5), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 3),
                        (3, 1, 1)):
            yield build_surface(cfg, pants_assignment(cfg, lengths), [1] * 3)


def test_joint_orientability_matches_exhaustive_search():
    checked = oriented = 0
    for q in joint_fixtures():
        if sum(graph.n_half_edges for graph in q.sa.graphs) > 16:
            continue
        solutions = _exhaustive_joint_bits(q)
        flag, eps = jointly_orientable(q)
        assert (flag, eps) == ((True, 1) if solutions else (False, -1))
        if flag:
            # the two solutions are complements: one set of bits
            assert solutions == {orientation_bits(q)}
            oriented += 1
        checked += 1
    assert (checked, oriented) == (52, 16)


def brute_isomorphisms(g1, g2):
    """Every bijection g1 -> g2 commuting with sigma and iota, by trying
    all permutations of the half-edges; none between graphs of different
    sizes."""
    n = g1.n_half_edges
    if n != g2.n_half_edges:
        return []
    found = []
    for perm in itertools.permutations(range(n)):
        if all(perm[g1.sigma[h]] == g2.sigma[perm[h]]
               and perm[g1.iota[h]] == g2.iota[perm[h]] for h in range(n)):
            found.append(dict(enumerate(perm)))
    return found


def spines(*trips):
    """The pants spines of the given boundary triples."""
    return tuple(pants_spine(*trip)[0] for trip in trips)


ONE_VERTEX_4 = single_vertex_graph([2, 3, 0, 1], {0: 1, 1: 1})
ONE_VERTEX_6 = single_vertex_graph([3, 4, 5, 0, 1, 2], {0: 1, 1: 1, 2: 1})


@pytest.mark.parametrize("trips", [
    spines((3, 4, 5), (5, 4, 3)),   # theta, lengths differ
    spines((2, 1, 1), (1, 1, 2)),   # four-valent
    spines((5, 1, 1), (1, 7, 2)),   # dumbbell
    spines((3, 4, 5), (5, 1, 1)),   # theta against dumbbell: none
    # symmetric graphs, whose automorphisms start from every half-edge
    pytest.param((plumbing_fixture(3, 2),) * 2, id="plumbing3"),
    pytest.param((plumbing_fixture(4, 2),) * 2, id="plumbing4"),
    pytest.param((ONE_VERTEX_4,) * 2, id="one_vertex4"),
    pytest.param((ONE_VERTEX_6,) * 2, id="one_vertex6"),
    # one vertex against two, where only sigma tells them apart: none
    pytest.param((ONE_VERTEX_6, plumbing_fixture(3, 2)), id="one_vertex_vs_two"),
    # 6 half-edges against 4: none
    pytest.param((plumbing_fixture(3, 2), ONE_VERTEX_4), id="sizes_differ"),
])
def test_ribbon_isomorphisms_match_the_brute_force(trips):
    g1, g2 = trips
    isos = list(ribbon_isomorphisms(g1, g2))
    assert isos == brute_isomorphisms(g1, g2)
    assert [iso[0] for iso in isos] == sorted(iso[0] for iso in isos)
