import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from ttlab import linalg
from ttlab.cover import (
    Letter,
    cover_genus,
    h1_anti_invariant,
    holonomy_double_cover,
    homology_cycle_basis,
    intersection_matrix,
    lifted_curve_classes,
    piece_preimage_connected,
    rank_lower_bound,
    relations_formula,
    stratum_rank,
)
from ttlab.errors import BadPartition, CrossCheckFailed, NonLiftable
from ttlab.ribbon import co_orientable, jointly_orientable, pants_assignment
from ttlab.rng import CounterRandom
from ttlab.surface import build_surface

from test_acceptance import random_pants_cfg
from test_classify import plumbing_ring
from test_linalg import rank_of_stack, ref_rank, span_dimension_mod
from test_ribbon import nabla_assignment, theta_assignment
from test_topology import SEPARATING, TWO_PANTS

F = Fraction


def theta_cover(twists=None):
    q = build_surface(TWO_PANTS, theta_assignment(), (1, 1, 1), twists)
    return q, holonomy_double_cover(q)


def orientable_cover():
    # compatible (2,1,1) nabla spines on the triple edge: jointly orientable
    sa = nabla_assignment(TWO_PANTS, (0, 0))
    q = build_surface(TWO_PANTS, sa, (1, 1, 1))
    return q, holonomy_double_cover(q)


def separating_nabla_cover():
    sa = nabla_assignment(SEPARATING, (2, 2))
    q = build_surface(SEPARATING, sa, (1, 1, 1))
    return q, holonomy_double_cover(q)


def separating_theta_cover():
    # self-glued slots 0, 1 need equal perimeters on each piece, and the
    # connecting slot 2 must agree across the two pieces
    sa = theta_assignment(((3, 3, 4), (5, 5, 4)))
    q = build_surface(SEPARATING, sa, (1, 1, 1))
    return q, holonomy_double_cover(q)


def random_pants_cover(genus):
    # seeded: a random pants decomposition by stub matching, random
    # rational lengths (so theta and dumbbell spines both occur)
    rng = random.Random(f"cover/pants{genus}")
    cfg = random_pants_cfg(genus, rng)
    lengths = [F(rng.randint(1, 40), rng.randint(1, 8)) for _ in cfg.gluing]
    q = build_surface(cfg, pants_assignment(cfg, lengths), [1] * cfg.n_curves)
    return q, holonomy_double_cover(q)


def ring3_cover():
    cfg, sa = plumbing_ring(3)
    q = build_surface(cfg, sa, [1] * cfg.n_curves)
    return q, holonomy_double_cover(q)


# the four fixtures (orientable_cover is the disconnected one), seeded
# random pants of genus 2-4 and plumbing ring 3
COORDINATE_COVERS = {
    "theta": theta_cover,
    "orientable": orientable_cover,
    "separating_nabla": separating_nabla_cover,
    "separating_theta": separating_theta_cover,
    "pants2": lambda: random_pants_cover(2),
    "pants3": lambda: random_pants_cover(3),
    "pants4": lambda: random_pants_cover(4),
    "ring3": ring3_cover,
}


def run_optimized(script):
    """Run a script under python -O with src and tests importable and
    return its stdout; it must exit 0."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout


def dense_core_lifts(cover):
    """The dense closure oracle: each curve's sheet-0 bottom-walk lift
    as a dense chain, with whether every row of the dense d1 kills it."""
    d1 = cover.boundary_1()
    lifts = []
    for word in cover.words:
        bar = [0] * cover.n_cover_edges
        for letter in word:
            if letter.key[0] == "d":
                break
            bar[2 * cover._edge_index[letter.key] + letter.sheet_bit] += letter.sign
        closed = not any(sum(a * b for a, b in zip(row, bar)) for row in d1)
        lifts.append((bar, closed))
    return lifts


def assert_closure_oracle_agrees(cover, cfg):
    """lifted_curve_classes against the dense closure oracle: the same
    classes when every lift closes, else NonLiftable for the first
    curve whose lift stays open."""
    lifts = dense_core_lifts(cover)
    open_curves = [i for i, (_, closed) in enumerate(lifts) if not closed]
    if open_curves:
        with pytest.raises(NonLiftable, match=f"curve {open_curves[0]} does"):
            lifted_curve_classes(cover, cfg)
        return
    expected = [
        tuple(b - c for b, c in zip(bar, cover.involution_on_edges(bar)))
        for bar, _ in lifts
    ]
    assert lifted_curve_classes(cover, cfg) == expected


def tamper_bottom_letter(cover):
    """Reverse one bottom-walk letter whose sheet-0 lift joins two
    different vertices, so that its curve's core lift no longer closes;
    returns that curve, or None when every such lift is a loop."""
    for i, word in enumerate(cover.words):
        for k, letter in enumerate(word):
            if letter.key[0] == "d":
                break
            row = 2 * cover._edge_index[letter.key] + letter.sheet_bit
            tail, head = cover._ends[row]
            if tail != head:
                flipped = Letter(letter.key, -letter.sign, letter.sheet_bit)
                cover.words[i] = word[:k] + (flipped,) + word[k + 1:]
                return i
    return None


def test_connectivity_matches_joint_orientability():
    for q, cover in (
        theta_cover(),
        orientable_cover(),
        separating_nabla_cover(),
        separating_theta_cover(),
    ):
        jo, _ = jointly_orientable(q)
        assert cover.connected == (not jo)


def test_theta_cover_genus_and_branching():
    q, cover = theta_cover()
    # four valence-3 spine vertices branch the cover
    assert len(cover.branch_set) == 4
    assert cover.connected
    assert cover_genus(cover) == 5


def test_orientable_cover_splits_into_two_copies():
    q, cover = orientable_cover()
    assert not cover.connected
    assert cover.branch_set == []
    assert cover_genus(cover) == [2, 2]


def test_euler_characteristic_bookkeeping():
    for q, cover in (theta_cover(), separating_theta_cover()):
        chi = (
            len(cover.cover_vertices)
            - cover.n_cover_edges
            + cover.n_cover_faces
        )
        assert chi == 2 * (2 - 2 * q.cfg.genus) - len(cover.branch_set)


def test_boundary_squares_to_zero():
    for _, cover in (theta_cover(), orientable_cover(), separating_nabla_cover()):
        d1 = cover.boundary_1()
        d2 = cover.boundary_2()
        for col in range(cover.n_cover_faces):
            for v in range(len(cover.cover_vertices)):
                total = sum(
                    d1[v][row] * d2[row][col]
                    for row in range(cover.n_cover_edges)
                )
                assert total == 0


def test_deck_involution_is_cellular():
    _, cover = theta_cover()
    iv = cover.involution_vertices
    assert all(iv[iv[v]] == v for v in range(len(iv)))
    d1 = cover.boundary_1()
    for v in range(len(iv)):
        for k in range(cover.n_cover_edges // 2):
            for s in (0, 1):
                assert d1[iv[v]][2 * k + (1 - s)] == d1[v][2 * k + s]


def test_anti_invariant_dimension():
    _, cover = theta_cover()
    h1m = h1_anti_invariant(cover)
    assert h1m.dimension == 2 * 5 - 2 * 2
    d1 = cover.boundary_1()
    boundaries = [
        [F(cover.boundary_2()[row][col]) for row in range(cover.n_cover_edges)]
        for col in range(cover.n_cover_faces)
    ]
    base_rank = rank_of_stack(boundaries)
    for vec in h1m.basis:
        # a genuine cycle, not a boundary, with (iota+1) vec a boundary
        assert all(
            sum(d1[v][r] * vec[r] for r in range(len(vec))) == 0
            for v in range(len(cover.cover_vertices))
        )
        assert rank_of_stack(boundaries, [list(vec)]) == base_rank + 1
        folded = [a + b for a, b in zip(vec, cover.involution_on_edges(vec))]
        assert rank_of_stack(boundaries, [folded]) == base_rank


def greedy_anti_invariant_basis(cover):
    """The nullspace route: solve (iota + 1) Z x = B y, then keep the
    candidates Z x that raise the rank modulo boundaries."""
    kernel = linalg.nullspace(cover.boundary_1())
    boundaries = [list(col) for col in zip(*cover.boundary_2())]
    plus = [
        [zi + ii for zi, ii in zip(z, cover.involution_on_edges(z))]
        for z in kernel
    ]
    stacked = [
        [p[row] for p in plus] + [b[row] for b in boundaries]
        for row in range(cover.n_cover_edges)
    ]
    basis = []
    kept = linalg.Echelon(boundaries)
    for sol in linalg.nullspace(stacked):
        vec = [
            sum(xk * kernel[k][row] for k, xk in enumerate(sol[: len(kernel)]))
            for row in range(cover.n_cover_edges)
        ]
        if kept.add(vec):
            basis.append(vec)
    return basis


def test_anti_invariant_basis_matches_nullspace_route():
    for name, fixture in COORDINATE_COVERS.items():
        _, cover = fixture()
        boundaries = [list(col) for col in zip(*cover.boundary_2())]
        ours = [list(v) for v in h1_anti_invariant(cover).basis]
        theirs = greedy_anti_invariant_basis(cover)
        assert len(ours) == len(theirs), name
        # same span modulo boundaries
        both = ref_rank(boundaries + ours + theirs)
        assert both == ref_rank(boundaries + ours), name
        assert both == ref_rank(boundaries + theirs), name


@pytest.mark.parametrize("name", sorted(COORDINATE_COVERS))
def test_tree_cotree_coordinates(name):
    q, cover = COORDINATE_COVERS[name]()
    homology = cover.homology
    n = len(homology.cycles)
    assert n == 2 * sum(cover.genus_of_components())
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    # boundaries have coordinates 0, the generators the unit vectors
    for face in zip(*cover.boundary_2()):
        assert homology.coords(face) == [0] * n
    assert [homology.coords(gamma) for gamma in homology.cycles] == unit
    # the deck involution is an involution on the coordinates
    m = [homology.coords(cover.involution_on_edges(g)) for g in homology.cycles]
    assert [[sum(m[k][i] * m[j][k] for k in range(n)) for i in range(n)]
            for j in range(n)] == unit
    # the lifted-class rank agrees with the old span-modulo-boundaries route
    boundaries = [list(col) for col in zip(*cover.boundary_2())]
    old = span_dimension_mod(lifted_curve_classes(cover, q.cfg), boundaries)
    assert rank_lower_bound(cover, q.cfg) == old
    # a chain with a boundary is refused
    edge = next(r for r in range(cover.n_cover_edges)
                if any(row[r] for row in cover.boundary_1()))
    chain = [int(r == edge) for r in range(cover.n_cover_edges)]
    with pytest.raises(CrossCheckFailed):
        homology.coords(chain)


@pytest.mark.parametrize("name", sorted(COORDINATE_COVERS))
def test_sparse_closure_check_matches_the_dense_oracle(name):
    q, cover = COORDINATE_COVERS[name]()
    assert all(closed for _, closed in dense_core_lifts(cover))
    assert_closure_oracle_agrees(cover, q.cfg)
    curve = tamper_bottom_letter(cover)
    if curve is None:
        # the nabla fixtures lift every bottom-walk letter to a loop
        assert name in ("orientable", "separating_nabla")
        return
    assert not dense_core_lifts(cover)[curve][1]
    assert_closure_oracle_agrees(cover, q.cfg)


@pytest.mark.parametrize("name", sorted(COORDINATE_COVERS))
def test_rank_path_leaves_the_dense_boundaries_unbuilt(name):
    q, cover = COORDINATE_COVERS[name]()
    rank_lower_bound(cover, q.cfg)
    h1_anti_invariant(cover)
    assert "_d1" not in cover.__dict__
    assert "_d2" not in cover.__dict__
    assert "cycles" not in cover.homology.__dict__
    if cover.connected:
        # the cell count behind the genus checks ran once, and is shared
        assert "_genera" in cover.__dict__
    d1, d2 = cover.boundary_1(), cover.boundary_2()
    assert cover.__dict__["_d1"] is d1
    assert cover.__dict__["_d2"] is d2


def test_boundary_maps_are_read_only_and_shared():
    _, cover = theta_cover()
    for get in (cover.boundary_1, cover.boundary_2):
        matrix = get()
        assert matrix is get()
        assert isinstance(matrix, tuple)
        assert all(isinstance(row, tuple) for row in matrix)
    assert cover.homology is cover.homology


def test_cross_checks_survive_optimize_mode():
    # under -O every assert is gone; a broken genus must still be caught
    out = run_optimized("""
        import sys
        import ttlab.cover
        from ttlab.errors import CrossCheckFailed
        from test_cover import theta_cover

        assert False, "asserts are on"
        _, cover = theta_cover()
        ttlab.cover.cover_genus = lambda c: 6
        try:
            ttlab.cover.h1_anti_invariant(cover)
        except CrossCheckFailed as exc:
            print("caught:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "Riemann-Hurwitz" in out


def test_rank_identity_and_genus_checks_survive_optimize_mode():
    # a rank off by one breaks the rank identity; a genus off by one from
    # the cell count disagrees with the branching count
    out = run_optimized("""
        import ttlab.cover
        from ttlab.errors import CrossCheckFailed
        from test_cover import theta_cover

        assert False, "asserts are on"
        rank = ttlab.cover.linalg.rank
        ttlab.cover.linalg.rank = lambda rows: rank(rows) + 1
        try:
            ttlab.cover.h1_anti_invariant(theta_cover()[1])
        except CrossCheckFailed as exc:
            print("caught:", exc)
        ttlab.cover.linalg.rank = rank
        _, cover = theta_cover()
        cover.__dict__["_genera"] = (6,)
        try:
            ttlab.cover.cover_genus(cover)
        except CrossCheckFailed as exc:
            print("caught:", exc)
    """)
    assert "rank identity" in out
    assert "from branching" in out


def test_cell_structure_checks_survive_optimize_mode():
    # one corrupted flip bit breaks the flip parity at the two ends of
    # its edge; under -O the cover must still refuse to build
    out = run_optimized("""
        import sys
        from ttlab.errors import CrossCheckFailed
        from ttlab.surface import FlatTwistSurface
        from test_cover import theta_cover

        assert False, "asserts are on"
        flip = FlatTwistSurface.edge_flip
        FlatTwistSurface.edge_flip = (
            lambda q, p, h: flip(q, p, h) ^ ((p, h) == (0, 0)))
        try:
            theta_cover()
        except CrossCheckFailed as exc:
            print("caught:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "flip parity" in out


def test_open_core_lift_is_refused_in_optimize_mode():
    # NonLiftable is raised by a check, not an assert, so -O keeps it
    out = run_optimized("""
        import sys
        from ttlab.cover import lifted_curve_classes
        from ttlab.errors import NonLiftable
        from test_cover import tamper_bottom_letter, theta_cover

        assert False, "asserts are on"
        q, cover = theta_cover()
        curve = tamper_bottom_letter(cover)
        try:
            lifted_curve_classes(cover, q.cfg)
        except NonLiftable as exc:
            print("caught:", curve, exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert "does not lift closed" in out


def test_anti_invariant_dimension_of_trivial_cover():
    q, cover = orientable_cover()
    assert h1_anti_invariant(cover).dimension == 2 * q.cfg.genus


def test_lifted_classes_are_anti_invariant_cycles():
    q, cover = theta_cover()
    classes = lifted_curve_classes(cover, q.cfg)
    assert len(classes) == 3
    for hat in classes:
        img = cover.involution_on_edges(list(hat))
        assert all(a == -b for a, b in zip(hat, img))


def test_rank_lower_bound_matches_formula_on_fixtures():
    cases = [
        (theta_cover, 3),        # no co-orientable piece
        (orientable_cover, 2),   # both pieces co-orientable, jointly so
        (separating_nabla_cover, 1),  # co-orientable pieces, not jointly
        (separating_theta_cover, 3),
    ]
    for fixture, expected in cases:
        q, cover = fixture()
        got = rank_lower_bound(cover, q.cfg)
        formula = relations_formula(q)
        assert got == formula == expected, fixture.__name__


def test_rank_is_twist_independent():
    rng = CounterRandom(5150, "twists")
    for _ in range(5):
        twists = [rng.fraction() for _ in range(3)]
        q, cover = theta_cover(twists=twists)
        assert rank_lower_bound(cover, q.cfg) == 3


def test_preimage_connectivity_matches_co_orientability():
    for fixture in (
        theta_cover,
        orientable_cover,
        separating_nabla_cover,
        separating_theta_cover,
    ):
        q, cover = fixture()
        for p, graph in enumerate(q.sa.graphs):
            assert piece_preimage_connected(cover, p) == (
                not co_orientable(graph)
            ), (fixture.__name__, p)


def test_stratum_rank_values():
    assert stratum_rank(3, [1] * 8, -1) == 6
    assert stratum_rank(2, (1, 1, 2), -1) == 2
    assert stratum_rank(4, [2] * 6, 1) == 4
    with pytest.raises(BadPartition):
        stratum_rank(3, [1] * 7, -1)
    with pytest.raises(BadPartition):
        stratum_rank(3, [1, 1, 2, 4], 1)
    with pytest.raises(BadPartition):
        stratum_rank(3, [2] * 4, 0)


def test_intersection_form_shape():
    q, cover = theta_cover()
    basis = homology_cycle_basis(cover)
    assert len(basis) == 2 * 5
    form = intersection_matrix(cover, basis)
    dim = len(basis)
    for i in range(dim):
        for j in range(dim):
            assert form[i][j] == -form[j][i]
    assert linalg.rank(form) == dim


def test_lifted_span_is_isotropic():
    for fixture in (theta_cover, separating_nabla_cover):
        q, cover = fixture()
        classes = lifted_curve_classes(cover, q.cfg)
        form = intersection_matrix(cover, [list(c) for c in classes])
        assert all(x == 0 for row in form for x in row), fixture.__name__


def test_intersection_form_is_unimodular_on_the_generators():
    # the tree-cotree cycles are a basis of H_1 over Z, so by Poincare
    # duality their intersection matrix is integral with integral inverse
    for name in ("theta", "orientable", "separating_nabla",
                 "separating_theta", "pants2"):
        _, cover = COORDINATE_COVERS[name]()
        form = intersection_matrix(cover, homology_cycle_basis(cover))
        n = len(form)
        assert n == len(cover.homology.cycles), name
        assert all(x.denominator == 1 for row in form for x in row), name
        unit = [[int(i == j) for i in range(n)] for j in range(n)]
        inverse = linalg.solve_square(form, unit)
        assert all(x.denominator == 1 for col in inverse for x in col), name
