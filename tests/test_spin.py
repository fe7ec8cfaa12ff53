import inspect
import random
from fractions import Fraction

import pytest

import ttlab.spin
from ttlab.errors import (
    ModeMismatch,
    NoSpinStructure,
    NotAbelianSquare,
    OutOfRange,
    TTLabError,
)
from ttlab.linalg import rank_gf2
from ttlab.ribbon import (
    SpineAssignment,
    jointly_orientable,
    single_vertex_graph,
    validate_assignment,
)
from ttlab.spin import (
    _FormBuilder,
    _ear_cycles,
    _edge_table,
    _staircase_succ,
    arf_invariant,
    form_value,
    orientation_bits,
    spin_parity,
    winding_form,
)
from ttlab.surface import EXACT, NUMERIC, build_surface
from ttlab.topology import make_config

from test_classify import odd_plumbing, plumbing_pair, plumbing_ring, relabeled
from test_ribbon import nabla_assignment, theta_assignment
from test_saddle import origami_surface
from test_topology import TWO_PANTS

F = Fraction

# Genus 3, one cylinder, one vertex of valence ten.  The spine has two
# faces, the cylinder's two sides, so any fixed-point-free pairing of
# the ten half-edges with a 5/5 face split fits this configuration.
ONE_CYLINDER = make_config(3, [(2, 2)], [((0, 0), (0, 1))])

# The pairing h -> h + 5 is the rotation-symmetric instance; everything
# else reachable below is asymmetric.
SYMMETRIC_PAIRS = ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))
ASYMMETRIC_PAIRS = ((0, 3), (1, 4), (2, 7), (5, 8), (6, 9))


def one_cylinder_surface(pairs, lengths=None, height=1, twist=0):
    iota = [None] * 10
    for a, b in pairs:
        iota[a], iota[b] = b, a
    if lengths is None:
        lengths = {min(a, b): 1 for a, b in pairs}
    graph = single_vertex_graph(iota, lengths)
    sa = SpineAssignment((graph,), ((0, 1),))
    q = build_surface(ONE_CYLINDER, sa, [height], twists=[twist], mode=EXACT)
    return q, sa


def plumbing_surface(p, heights=None, twists=None):
    cfg, sa = plumbing_pair(p)
    if heights is None:
        heights = [1] * cfg.n_curves
    return build_surface(cfg, sa, heights, twists=twists, mode=EXACT)


def all_pairings(n):
    """Fixed-point-free involutions of range(n)."""
    def rec(rest):
        if not rest:
            yield ()
            return
        a = rest[0]
        for i in range(1, len(rest)):
            tail = rest[1:i] + rest[i + 1:]
            for t in rec(tail):
                yield ((a, rest[i]),) + t
    yield from rec(tuple(range(n)))


def one_cylinder_catalog():
    """A surface on every valid genus-3 one-cylinder spine."""
    for pairs in all_pairings(10):
        iota = [None] * 10
        for a, b in pairs:
            iota[a], iota[b] = b, a
        try:
            graph = single_vertex_graph(iota, {min(a, b): 1 for a, b in pairs})
            sa = SpineAssignment((graph,), ((0, 1),))
            validate_assignment(ONE_CYLINDER, sa)
        except TTLabError:
            continue
        yield build_surface(ONE_CYLINDER, sa, [1], mode=EXACT)


# --- the loop census, kept as an oracle for the ear basis ----------------------


def census_cycles(succ):
    """Every simple directed cycle, in order of length, then root, then path.

    This is the former staircase census: iterative deepening, each
    cycle rooted at its least node.  It is exponential in the size of
    the staircase digraph; the shipped version ran it behind a budget
    of 200,000 steps, lifted here.
    """
    def at_depth(root, node, on_path, path, depth):
        closing = len(path) == depth
        for nxt in succ[node]:
            if closing:
                if nxt == root:
                    yield tuple(path)
            elif nxt > root and nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                yield from at_depth(root, nxt, on_path, path, depth)
                path.pop()
                on_path.remove(nxt)

    for depth in range(1, len(succ) + 1):
        for root in range(len(succ)):
            yield from at_depth(root, root, {root}, [root], depth)


def census_form(q, monkeypatch):
    """winding_form with the census in place of the ear basis."""
    with monkeypatch.context() as m:
        m.setattr(ttlab.spin, "_ear_cycles", census_cycles)
        return winding_form(q)


def staircase_succ(q):
    return _staircase_succ(_edge_table(q, orientation_bits(q)))


def full_family_rank(q, cycles):
    """Rank of the pairing on the cores plus every listed cycle."""
    bits = orientation_bits(q)
    builder = _FormBuilder(q, bits, _edge_table(q, bits))
    for cyc in cycles:
        builder.add(cyc)
    return rank_gf2(builder.gram)


# --- parity oracle by value counting ------------------------------------------


def arf_by_counting(q_vals, gram):
    """Decide the parity by counting the zeros of the form.

    Over all 2^n arguments a quadratic refinement of a rank-r pairing
    takes the value zero 2^(n-r) * (2^(r-1) + 2^(r/2-1)) times when its
    invariant is zero and 2^(n-r) * (2^(r-1) - 2^(r/2-1)) times when it
    is one.  No basis reduction is involved, so this is an independent
    route to the same bit.
    """
    n = len(q_vals)
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in gram]
    value = bytearray(1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        i = low.bit_length() - 1
        rest = m ^ low
        value[m] = value[rest] ^ q_vals[i] ^ ((rows[i] & rest).bit_count() & 1)
    zeros = value.count(0)
    r = rank_gf2([list(row) for row in gram])
    assert r % 2 == 0 and r >= 2
    bulge = (1 << (n - r)) * (1 << (r // 2 - 1))
    center = (1 << (n - r)) * (1 << (r - 1))
    if zeros == center + bulge:
        return 0
    assert zeros == center - bulge
    return 1


# --- the three-square surface --------------------------------------------------


def test_origami_parity_is_odd():
    q = origami_surface(twist=0, mode=EXACT)
    assert spin_parity(q) == "odd"


@pytest.mark.parametrize("twist", [F(1, 2), F(1, 3), 2, F(7, 5)])
def test_origami_parity_ignores_twist(twist):
    # the crossing pattern of every staircase loop changes with the
    # twist, the parity must not
    q = origami_surface(twist=twist, mode=EXACT)
    assert spin_parity(q) == "odd"


def test_origami_form_frozen():
    q = origami_surface(twist=0, mode=EXACT)
    form = winding_form(q)
    assert form.q_vals == (1, 1, 1, 1)
    assert form.gram == (
        (0, 1, 1, 1),
        (1, 0, 0, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    )
    assert form.n_cores == 1
    assert form.cycles == (((0, 0),), ((0, 1),), ((0, 2),))
    assert arf_invariant(form.q_vals, form.gram) == 1


# --- one-cylinder genus three catalog ------------------------------------------


def test_one_cylinder_parities_match_symmetry_search():
    """Sweep every one-cylinder surface of this shape and cross-check.

    The involution search and the winding form share no code, yet on
    all eight orientable instances they split the same way: the single
    rotation-symmetric pairing is even and the seven asymmetric ones
    are odd.  A symmetric surface of this genus must be even, so any
    drift in either module breaks the correlation.
    """
    from ttlab.classify import hyperelliptic_involution_search
    from ttlab.errors import TTLabError
    from ttlab.ribbon import validate_assignment

    split = {("even", True): 0, ("odd", False): 0}
    for pairs in all_pairings(10):
        iota = [None] * 10
        for a, b in pairs:
            iota[a], iota[b] = b, a
        try:
            graph = single_vertex_graph(iota, {min(a, b): 1 for a, b in pairs})
        except TTLabError:
            continue
        faces = graph.faces()
        if len(faces) != 2 or len(faces[0]) != 5:
            continue
        sa = SpineAssignment((graph,), ((0, 1),))
        try:
            validate_assignment(ONE_CYLINDER, sa)
        except TTLabError:
            continue
        q = build_surface(ONE_CYLINDER, sa, [1], mode=EXACT)
        if not jointly_orientable(q)[0]:
            continue
        parity = spin_parity(q)
        found = hyperelliptic_involution_search(q) is not None
        split[(parity, found)] += 1
    assert split == {("even", True): 1, ("odd", False): 7}


def test_symmetric_one_cylinder_is_even():
    q, _ = one_cylinder_surface(SYMMETRIC_PAIRS)
    assert spin_parity(q) == "even"


SYMMETRIC_DEFORMATIONS = [
    (None, 1, 0),
    (None, 3, F(2, 3)),
    ({0: 1, 1: 2, 2: 3, 3: 1, 4: 2}, 1, 0),
    ({0: 5, 1: 1, 2: 1, 3: 1, 4: 1}, 2, F(1, 7)),
]


@pytest.mark.parametrize("lengths,height,twist", SYMMETRIC_DEFORMATIONS)
def test_even_instance_stable_under_deformation(lengths, height, twist):
    q, _ = one_cylinder_surface(SYMMETRIC_PAIRS, lengths, height, twist)
    assert spin_parity(q) == "even"


def test_asymmetric_one_cylinder_is_odd():
    q, _ = one_cylinder_surface(ASYMMETRIC_PAIRS)
    assert spin_parity(q) == "odd"


# --- plumbing instances ---------------------------------------------------------


@pytest.mark.parametrize("p", [6, 10])
def test_plumbing_pair_parity_is_odd(p):
    # frozen values, backed by the counting oracle test below and by the
    # deformation and relabeling checks
    assert spin_parity(plumbing_surface(p)) == "odd"


def test_plumbing_parity_stable_under_deformation():
    q = plumbing_surface(6, heights=[1, 2, 1, 3, 1, 2],
                         twists=[F(1, 2), 0, F(3, 4), 0, F(1, 5), 1])
    assert spin_parity(q) == "odd"


def test_plumbing_parity_survives_relabeling():
    cfg, sa = plumbing_pair(6)
    piece_perm = (1, 0)
    curve_perm = (2, 0, 5, 1, 4, 3)
    cfg2 = relabeled(cfg, piece_perm, curve_perm)
    sa2 = SpineAssignment(
        tuple(sa.graphs[p] for p in piece_perm),
        tuple(sa.face_to_slot[p] for p in piece_perm),
    )
    q = build_surface(cfg, sa, [1] * 6, mode=EXACT)
    q2 = build_surface(cfg2, sa2, [1] * 6, mode=EXACT)
    assert spin_parity(q2) == spin_parity(q) == "odd"


# --- counting oracle and additivity --------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: origami_surface(twist=0, mode=EXACT),
        lambda: one_cylinder_surface(SYMMETRIC_PAIRS)[0],
        lambda: one_cylinder_surface(ASYMMETRIC_PAIRS)[0],
        lambda: plumbing_surface(6),
        lambda: plumbing_surface(10),
    ],
)
def test_counting_oracle_agrees(build):
    form = winding_form(build())
    assert arf_by_counting(form.q_vals, form.gram) == arf_invariant(
        form.q_vals, form.gram
    )


def direct_sum(f1, f2):
    n1, n2 = len(f1.q_vals), len(f2.q_vals)
    q_vals = f1.q_vals + f2.q_vals
    gram = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            gram[i][j] = f1.gram[i][j]
    for i in range(n2):
        for j in range(n2):
            gram[n1 + i][n1 + j] = f2.gram[i][j]
    return q_vals, gram


@pytest.mark.parametrize(
    "build1,build2",
    [
        (lambda: plumbing_surface(6), lambda: plumbing_surface(10)),
        (
            lambda: origami_surface(twist=0, mode=EXACT),
            lambda: one_cylinder_surface(SYMMETRIC_PAIRS)[0],
        ),
        (
            lambda: origami_surface(twist=0, mode=EXACT),
            lambda: one_cylinder_surface(ASYMMETRIC_PAIRS)[0],
        ),
    ],
)
def test_parity_adds_over_disjoint_unions(build1, build2):
    # gluing two orientable pieces along nothing: the form splits as an
    # orthogonal sum and the invariant adds mod 2
    f1 = winding_form(build1())
    f2 = winding_form(build2())
    a1 = arf_invariant(f1.q_vals, f1.gram)
    a2 = arf_invariant(f2.q_vals, f2.gram)
    q_vals, gram = direct_sum(f1, f2)
    assert arf_invariant(q_vals, gram) == a1 ^ a2


# --- invariance under changes of basis ------------------------------------------


def transported(q_vals, gram, mat):
    """Rewrite the form in the basis whose vectors are the rows of mat."""
    n = len(q_vals)
    new_gram = []
    for row_i in mat:
        gram_row = []
        for row_j in mat:
            val = 0
            for a in range(n):
                if not row_i[a]:
                    continue
                for b in range(n):
                    val ^= row_j[b] & gram[a][b]
            gram_row.append(val)
        new_gram.append(gram_row)
    new_q = [
        form_value(q_vals, gram, [a for a in range(n) if row[a]])
        for row in mat
    ]
    return new_q, new_gram


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parity_invariant_under_basis_change(seed):
    rng = random.Random(seed)
    for build in (
        lambda: origami_surface(twist=0, mode=EXACT),
        lambda: one_cylinder_surface(SYMMETRIC_PAIRS)[0],
    ):
        form = winding_form(build())
        n = len(form.q_vals)
        want = arf_invariant(form.q_vals, form.gram)
        for _ in range(10):
            while True:
                mat = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
                if rank_gf2([row[:] for row in mat]) == n:
                    break
            new_q, new_gram = transported(form.q_vals, form.gram, mat)
            assert arf_invariant(new_q, new_gram) == want


def test_parity_invariant_under_loop_reordering():
    form = winding_form(plumbing_surface(6))
    n = len(form.q_vals)
    want = arf_invariant(form.q_vals, form.gram)
    rng = random.Random(44)
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        q_vals = [form.q_vals[perm[i]] for i in range(n)]
        gram = [[form.gram[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert arf_invariant(q_vals, gram) == want


def test_complementary_orientation_gives_same_parity():
    q = plumbing_surface(6)
    bits = orientation_bits(q)
    flipped = tuple(1 - b for b in bits)
    f1 = winding_form(q, bits=bits)
    f2 = winding_form(q, bits=flipped)
    assert arf_invariant(f1.q_vals, f1.gram) == arf_invariant(f2.q_vals, f2.gram)


# --- produced forms are well shaped ---------------------------------------------


@pytest.mark.parametrize(
    "build,genus",
    [
        (lambda: origami_surface(twist=0, mode=EXACT), 2),
        (lambda: one_cylinder_surface(ASYMMETRIC_PAIRS)[0], 3),
        (lambda: plumbing_surface(6), 5),
        (lambda: plumbing_surface(10), 9),
    ],
)
def test_winding_form_shape(build, genus):
    q = build()
    form = winding_form(q)
    n = len(form.q_vals)
    assert form.n_cores == q.cfg.n_curves
    assert form.n_cores + len(form.cycles) == n
    assert all(v in (0, 1) for v in form.q_vals)
    for i in range(n):
        assert form.gram[i][i] == 0
        for j in range(n):
            assert form.gram[i][j] == form.gram[j][i]
    # the certificate behind every parity claim: the loops span a space
    # on which the pairing has full homological rank
    assert rank_gf2([list(row) for row in form.gram]) == 2 * genus
    # every core is disjoint from every other core
    for i in range(form.n_cores):
        for j in range(form.n_cores):
            assert form.gram[i][j] == 0


# --- refusals -------------------------------------------------------------------


def test_numeric_mode_is_rejected():
    q = origami_surface(twist=0.0, mode=NUMERIC)
    with pytest.raises(ModeMismatch):
        spin_parity(q)


@pytest.mark.parametrize(
    "build",
    [
        lambda: plumbing_surface(4),
        lambda: build_surface(*plumbing_ring(4), [1] * 8, mode=EXACT),
        lambda: build_surface(
            TWO_PANTS,
            nabla_assignment(TWO_PANTS, (0, 0)),
            [1, 1, 1],
            mode=EXACT,
        ),
    ],
)
def test_odd_order_zeros_leave_no_parity(build):
    # orientable, but some cone has odd order as a zero of the square
    # root: no consistent parity exists and the call must say so
    q = build()
    with pytest.raises(NoSpinStructure):
        spin_parity(q)


def test_unorientable_surface_has_no_parity():
    cfg, sa = odd_plumbing()
    q = build_surface(cfg, sa, [1] * cfg.n_curves, mode=EXACT)
    with pytest.raises(NotAbelianSquare):
        spin_parity(q)
    q2 = build_surface(TWO_PANTS, theta_assignment(), [1, 1, 1], mode=EXACT)
    with pytest.raises(NotAbelianSquare):
        orientation_bits(q2)


def test_orientation_bits_match_joint_orientability():
    """The bit solver and the sign-constraint solver must agree.

    When they orient, the bits are checked edge by edge against the
    gluing flips, not just trusted for coming back without error.
    """
    catalog = [
        (ONE_CYLINDER, one_cylinder_surface(SYMMETRIC_PAIRS)[1]),
        (TWO_PANTS, theta_assignment()),
        (TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0))),
        plumbing_pair(4),
        plumbing_pair(6),
        plumbing_ring(4),
        odd_plumbing(),
    ]
    oriented = 0
    for cfg, sa in catalog:
        q = build_surface(cfg, sa, [1] * cfg.n_curves, mode=EXACT)
        flag, _ = jointly_orientable(q)
        if not flag:
            with pytest.raises(NotAbelianSquare):
                orientation_bits(q)
            continue
        bits = orientation_bits(q)
        oriented += 1
        assert len(bits) == cfg.n_curves
        for p, graph in enumerate(sa.graphs):
            for h in range(len(graph.sigma)):
                a = q.side_of(p, h).curve
                b = q.side_of(p, graph.iota[h]).curve
                assert bits[a] ^ bits[b] == q.edge_flip(p, h)
    assert oriented == 5


def test_explicit_bits_are_validated():
    q = plumbing_surface(6)
    good = orientation_bits(q)
    with pytest.raises(OutOfRange):
        winding_form(q, bits=good[:-1])
    with pytest.raises(OutOfRange):
        winding_form(q, bits=(2,) + good[1:])
    # right shape, wrong orientation: breaks some gluing constraint
    bad = (good[0] ^ 1,) + good[1:]
    with pytest.raises(OutOfRange):
        winding_form(q, bits=bad)


# --- the ear basis against the census -------------------------------------------


def spin_fixtures():
    """Every surface this module asks for a parity or a form, and every
    genus-3 one-cylinder spine."""
    yield origami_surface(twist=0, mode=EXACT)
    for twist in (F(1, 2), F(1, 3), 2, F(7, 5)):
        yield origami_surface(twist=twist, mode=EXACT)
    for lengths, height, twist in SYMMETRIC_DEFORMATIONS:
        yield one_cylinder_surface(SYMMETRIC_PAIRS, lengths, height, twist)[0]
    yield one_cylinder_surface(ASYMMETRIC_PAIRS)[0]
    for p in (4, 6, 10):
        yield plumbing_surface(p)
    yield plumbing_surface(6, heights=[1, 2, 1, 3, 1, 2],
                           twists=[F(1, 2), 0, F(3, 4), 0, F(1, 5), 1])
    cfg, sa = plumbing_pair(6)
    piece_perm, curve_perm = (1, 0), (2, 0, 5, 1, 4, 3)
    yield build_surface(
        relabeled(cfg, piece_perm, curve_perm),
        SpineAssignment(tuple(sa.graphs[p] for p in piece_perm),
                        tuple(sa.face_to_slot[p] for p in piece_perm)),
        [1] * 6, mode=EXACT)
    yield build_surface(*plumbing_ring(4), [1] * 8, mode=EXACT)
    yield build_surface(TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0)),
                        [1, 1, 1], mode=EXACT)
    yield build_surface(TWO_PANTS, theta_assignment(), [1, 1, 1], mode=EXACT)
    cfg, sa = odd_plumbing()
    yield build_surface(cfg, sa, [1] * cfg.n_curves, mode=EXACT)
    yield from one_cylinder_catalog()


def form_or_refusal(make):
    try:
        return make()
    except (NoSpinStructure, NotAbelianSquare) as exc:
        return type(exc)


def spin_defined_fixtures():
    for q in spin_fixtures():
        if not isinstance(form_or_refusal(lambda: winding_form(q)), type):
            yield q


def test_ear_basis_gives_the_census_form(monkeypatch):
    # the ear basis holds every loop arc and 2-cycle, and those are all
    # the census took on these surfaces, so even the forms agree, not
    # just the parity
    defined = 0
    for q in spin_fixtures():
        form = form_or_refusal(lambda: winding_form(q))
        assert form == form_or_refusal(lambda: census_form(q, monkeypatch))
        if not isinstance(form, type):
            defined += 1
            assert spin_parity(q) == (
                "odd" if arf_invariant(form.q_vals, form.gram) else "even")
    assert defined == 22


def cycle_space_rank(succ, cycles):
    """Rank over GF(2) of the arc vectors of the cycles."""
    arcs = {(u, v): k for k, (u, v) in enumerate(
        (u, v) for u in range(len(succ)) for v in succ[u])}
    rows = []
    for cyc in cycles:
        row = [0] * len(arcs)
        for j, u in enumerate(cyc):
            row[arcs[(u, cyc[(j + 1) % len(cyc)])]] ^= 1
        rows.append(row)
    return rank_gf2(rows) if rows else 0


def assert_ear_basis(succ):
    """The ear basis is a basis, of simple cycles, of what all directed
    cycles span, holds every loop and 2-cycle, and comes sorted."""
    n = len(succ)
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    components = {frozenset(u for u in reach[v] if v in reach[u])
                  for v in range(n)}
    dimension = sum(
        sum(1 for u in comp for v in succ[u] if v in comp) - len(comp) + 1
        for comp in components
    )
    cycles = _ear_cycles(succ)
    assert len(cycles) == dimension
    for cyc in cycles:
        assert len(set(cyc)) == len(cyc) and cyc[0] == min(cyc)
        assert all(cyc[(j + 1) % len(cyc)] in succ[u] for j, u in enumerate(cyc))
    assert cycles == sorted(cycles, key=lambda c: (len(c), c))
    assert cycle_space_rank(succ, cycles) == dimension
    short = {(u,) for u in range(n) if u in succ[u]}
    short |= {(u, v) for u in range(n) for v in succ[u] if u < v and u in succ[v]}
    assert short <= set(cycles)
    return cycles


def test_ear_basis_spans_the_cycle_space():
    total = 0
    for q in spin_defined_fixtures():
        succ = staircase_succ(q)
        total += len(assert_ear_basis(succ))
    assert total > 0


@pytest.mark.parametrize("seed", range(6))
def test_ear_basis_spans_what_the_census_spans(seed):
    # small seeded digraphs with several components, arcs between them
    # and nodes on no cycle: every directed cycle lies in the span of
    # the ear basis, which is itself made of directed cycles
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 7)
        succ = [sorted(rng.sample(range(n), rng.randint(0, min(n, 3))))
                for _ in range(n)]
        cycles = assert_ear_basis(succ)
        census = list(census_cycles(succ))
        assert set(cycles) <= set(census)
        assert cycle_space_rank(succ, census) == len(cycles)


def test_two_components_and_a_tail():
    # 0 <-> 1 -> 2 <-> 3 with a loop at 3, and 4 -> 0 on no cycle
    succ = [[1], [0, 2], [3], [2, 3], [0]]
    assert _ear_cycles(succ) == [(3,), (0, 1), (2, 3)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: origami_surface(twist=0, mode=EXACT),
        lambda: one_cylinder_surface(SYMMETRIC_PAIRS)[0],
        lambda: one_cylinder_surface(ASYMMETRIC_PAIRS)[0],
    ],
)
def test_ear_family_pairs_like_the_whole_census(build):
    q = build()
    succ = staircase_succ(q)
    rank = full_family_rank(q, _ear_cycles(succ))
    assert rank == full_family_rank(q, census_cycles(succ))
    assert rank == 2 * q.cfg.genus


def test_winding_form_takes_no_budget():
    # the ear basis is polynomial, so no step budget bounds the search
    assert list(inspect.signature(winding_form).parameters) == ["q", "bits"]


# --- form plumbing --------------------------------------------------------------


def test_form_value_by_hand():
    q_vals = (1, 1, 1, 1)
    gram = ((0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0))
    assert form_value(q_vals, gram, []) == 0
    assert form_value(q_vals, gram, [2]) == 1
    assert form_value(q_vals, gram, [0, 1]) == 1  # 1 + 1 + B01 = 1
    assert form_value(q_vals, gram, [1, 2]) == 0  # 1 + 1 + 0
    assert form_value(q_vals, gram, [0, 2, 3]) == 0  # 1+1+1 + 1+1+1
    # members form a set: repeats collapse
    assert form_value(q_vals, gram, [2, 2]) == 1


def test_degenerate_forms():
    assert arf_invariant((), []) == 0
    assert arf_invariant((0,), [[0]]) == 0
    with pytest.raises(OutOfRange):
        arf_invariant((1,), [[0]])  # value 1 on a radical vector


def test_malformed_forms_rejected():
    with pytest.raises(OutOfRange):
        arf_invariant((1, 1), [[0, 1]])  # not square
    with pytest.raises(OutOfRange):
        arf_invariant((1, 1), [[0, 1], [0, 0]])  # not symmetric
    with pytest.raises(OutOfRange):
        arf_invariant((1, 1), [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(OutOfRange):
        arf_invariant((2, 1), [[0, 1], [1, 0]])  # q entry not a bit
