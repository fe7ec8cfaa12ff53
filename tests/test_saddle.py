"""Saddle connection search tests.

The main oracle is a square-tiled surface small enough to census by
hand: one horizontal cylinder of three unit squares whose top circle
returns to the bottom circle by a permutation of the squares.  All cone
points sit at integer positions of the charts and every transition is
an integral translation, so saddle connection holonomies are integer
vectors and short ones can be enumerated on paper.
"""

import dataclasses
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import deque

import pytest

from ttlab.errors import (
    CrossCheckFailed,
    ModeMismatch,
    OutOfRange,
    RadiusTooSmall,
)
from ttlab.ribbon import SpineAssignment, pants_assignment, single_vertex_graph
from ttlab.saddle import (
    DEDUP_TOL,
    DEFAULT_CAP,
    _build_complex,
    saddle_connections_up_to,
)
from ttlab.surface import EXACT, NUMERIC, build_surface, geodesic_flow
from ttlab.topology import make_config

from test_classify import GENERIC6, plumbing_ring
from test_ribbon import nabla_assignment, theta_assignment
from test_topology import SEPARATING, TWO_PANTS

ORIGAMI = make_config(2, [(1, 2)], [((0, 0), (0, 1))])
GENUS3 = make_config(3, [(0, 3)] * 4, [
    ((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (2, 0)),
    ((1, 2), (3, 0)), ((2, 1), (3, 1)), ((2, 2), (3, 2))])
GENUS5 = make_config(5, [(0, 3)] * 8, [
    ((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (3, 0)),
    ((1, 1), (4, 0)), ((1, 2), (5, 0)), ((2, 1), (6, 0)),
    ((2, 2), (7, 0)), ((3, 1), (4, 1)), ((3, 2), (5, 1)),
    ((4, 2), (6, 1)), ((5, 2), (7, 1)), ((6, 2), (7, 2))])
GENERIC12 = GENERIC6 + (49, 61, 85, 101, 113, 131)


def origami_surface(twist=0.0, mode=NUMERIC):
    """Three unit squares in a row; one cylinder, one cone point.

    The spine graph has a single vertex of valence six, so the cone
    angle is 6*pi and the surface is a square of an abelian form.
    """
    graph = single_vertex_graph([3, 4, 5, 0, 1, 2], {0: 1, 1: 1, 2: 1})
    sa = SpineAssignment((graph,), ((0, 1),))
    return build_surface(ORIGAMI, sa, [1], twists=[twist], mode=mode)


def two_pants_surface(heights, twists, lengths=((3, 4, 5), (3, 4, 5))):
    sa = theta_assignment(lengths)
    return build_surface(TWO_PANTS, sa, heights, twists=twists, mode=NUMERIC)


def hol_set(result):
    return {(round(x, 6), round(y, 6)) for (x, y), in
            ((c.holonomy,) for c in result)}


# --- hand census on the origami fixture --------------------------------


def test_origami_census_radius_two():
    # Corners sit at x = 0, 1, 2 on both circles.  Horizontals longer
    # than one unit hit a corner, verticals exist over every corner,
    # and the unit diagonals close up inside single squares.  Nothing
    # else fits in radius 2: holonomies are integral and (0, 2) lines
    # are blocked halfway by the corner on the middle circle.
    result = saddle_connections_up_to(origami_surface(), 2.0)
    assert not result.cap_exceeded
    assert [round(c.length, 9) for c in result] == [
        1.0, 1.0, round(math.sqrt(2), 9), round(math.sqrt(2), 9)]
    assert hol_set(result) == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    assert all(c.endpoints == ((0, 0), (0, 0)) for c in result)


def test_origami_census_radius_sweep():
    # Radius 2.5 admits exactly the four length-sqrt(5) classes on top
    # of the radius-2 census: (2,1) and (1,2) vectors, each in two
    # mirror versions.  (2,0) and (0,2) stay blocked by mid corners.
    q = origami_surface()
    counts = []
    seen = set()
    for radius in (1.0, 1.2, 1.5, 2.0, 2.5):
        result = saddle_connections_up_to(q, radius)
        keys = hol_set(result)
        assert seen <= keys
        seen = keys
        counts.append(len(result))
    assert counts == [2, 2, 4, 4, 8]
    assert {(2, 1), (-2, 1), (1, 2), (-1, 2)} <= seen


def test_origami_half_twist_census():
    # Twisting by 1/2 misaligns the circles: the verticals disappear
    # and the shortest crossings have holonomy (±1/2, 1).
    q = origami_surface(twist=0.5)
    short = saddle_connections_up_to(q, 1.0)
    assert hol_set(short) == {(1, 0)}
    more = saddle_connections_up_to(q, 1.15)
    assert hol_set(more) == {(1, 0), (0.5, 1), (-0.5, 1)}


def test_radius_below_shortest_connection():
    with pytest.raises(RadiusTooSmall):
        saddle_connections_up_to(origami_surface(), 0.5)


def test_cap_keeps_seed_edges():
    result = saddle_connections_up_to(origami_surface(), 2.5, cap=2)
    assert result.cap_exceeded
    assert result.placements == 2
    full = saddle_connections_up_to(origami_surface(), 2.5)
    assert hol_set(result) <= hol_set(full)
    assert min(c.length for c in result) == 1.0


def test_argument_guards():
    with pytest.raises(ModeMismatch):
        saddle_connections_up_to(origami_surface(mode=EXACT), 1.0)
    with pytest.raises(OutOfRange):
        saddle_connections_up_to(origami_surface(), 0.0)
    with pytest.raises(OutOfRange):
        saddle_connections_up_to(origami_surface(), 1.0, cap=-1)


# --- properties on pants fixtures ---------------------------------------


def test_shortest_horizontal_is_shortest_spine_edge():
    # Tall cylinders keep every crossing longer than the radius, so the
    # census is exactly one connection per short spine edge.
    q = two_pants_surface([10, 10, 10], [0.7, 1.3, 2.9])
    result = saddle_connections_up_to(q, 1.5)
    assert [c.length for c in result] == pytest.approx([1.0, 1.0])
    assert all(c.holonomy[1] == 0.0 for c in result)
    assert {c.endpoints[0][0] for c in result} == {0, 1}
    min_side = min(side.length for cyl in q.layout()
                   for side in cyl.bottom + cyl.top)
    assert result[0].length == pytest.approx(min_side)


@pytest.mark.parametrize("seed", range(4))
def test_monotone_in_radius_and_sorted(seed):
    rng = random.Random(981000 + seed)
    if seed % 2:
        sa = nabla_assignment(SEPARATING, (2, 2))
        cfg = SEPARATING
    else:
        sa = theta_assignment()
        cfg = TWO_PANTS
    heights = [0.5 + rng.random() for _ in range(3)]
    twists = [5 * rng.random() for _ in range(3)]
    q = build_surface(cfg, sa, heights, twists=twists, mode=NUMERIC)
    prev = set()
    for radius in (1.0, 2.0, 3.5):
        result = saddle_connections_up_to(q, radius)
        assert not result.cap_exceeded
        lengths = [c.length for c in result]
        assert lengths == sorted(lengths)
        assert all(length <= radius + 1e-12 for length in lengths)
        for c in result:
            x, y = c.holonomy
            assert y > 0.0 or (y == 0.0 and x > 0.0)
            assert c.cells
        keys = {(round(c.holonomy[0], 6), round(c.holonomy[1], 6),
                 frozenset(c.endpoints)) for c in result}
        assert prev <= keys
        prev = keys
    again = saddle_connections_up_to(q, 3.5)
    assert [c.holonomy for c in again] == [c.holonomy for c in result]
    assert [c.cells for c in again] == [c.cells for c in result]


def test_connection_cells_are_valid_certificates():
    q = two_pants_surface([1, 1, 1], [0.31, 0.77, 1.91])
    cx = _build_complex(q)
    result = saddle_connections_up_to(q, 2.0)
    for c in result:
        assert all(0 <= t < len(cx.pts) for t in c.cells)
        for a, b in zip(c.cells, c.cells[1:]):
            assert b in {row[0] for row in cx.nbrs[a]}


# --- triangulation structure --------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: origami_surface(twist=0.25),
    lambda: two_pants_surface([2, 1, 1], [0.1, 0.2, 0.3]),
    lambda: build_surface(SEPARATING, nabla_assignment(SEPARATING, (2, 2)),
                          [1, 2, 1], twists=[0.5, 0.25, 0.125],
                          mode=NUMERIC),
])
def test_complex_gluing_is_involutive(make):
    q = make()
    cx = _build_complex(q)
    n_sides = sum(len(cyl.bottom) + len(cyl.top) for cyl in q.layout())
    assert len(cx.pts) == n_sides
    for t in range(len(cx.pts)):
        for e in range(3):
            t2, e2, s, tx, ty = cx.nbrs[t][e]
            t3, e3, s3, tx3, ty3 = cx.nbrs[t2][e2]
            assert (t3, e3) == (t, e)
            # the two stored transitions invert each other
            assert s * s3 == 1
            assert abs(s * tx3 + tx) < 1e-9 and abs(s * ty3 + ty) < 1e-9
            # psi carries the neighbor's copy of the edge onto mine,
            # with the traversal reversed
            pa = cx.pts[t2][e2]
            pb = cx.pts[t2][(e2 + 1) % 3]
            qa = (s * pa[0] + tx, s * pa[1] + ty)
            qb = (s * pb[0] + tx, s * pb[1] + ty)
            ea = cx.pts[t][e]
            eb = cx.pts[t][(e + 1) % 3]
            assert math.dist(qa, eb) < 1e-9
            assert math.dist(qb, ea) < 1e-9


def misspaced_origami():
    """The origami with one bottom side longer than its circle leaves
    room for, so the corner spacing check must fire."""
    q = origami_surface(twist=0.25)
    cyl = q.layout()[0]
    side = cyl.bottom[0]
    bad = dataclasses.replace(side, length=side.length + 0.5)
    q._layout = (dataclasses.replace(cyl, bottom=(bad,) + cyl.bottom[1:]),)
    return q


def test_spacing_check_raises():
    with pytest.raises(CrossCheckFailed, match="corner spacing"):
        _build_complex(misspaced_origami())


def test_triangulation_checks_survive_optimize_mode():
    # under -O every assert is gone; the bad spacing must still be caught
    script = textwrap.dedent("""
        import sys
        from ttlab.errors import CrossCheckFailed
        from ttlab.saddle import _build_complex
        from test_saddle import misspaced_origami

        assert False, "asserts are on"
        q = misspaced_origami()
        try:
            _build_complex(q)
        except CrossCheckFailed as exc:
            print("caught:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "corner spacing" in out.stdout


# --- the search loop against its path-copying reference ------------------


def _reference_clipped_dist2(pa, pb, lo, hi):
    ax, ay = pa
    bx, by = pb
    t0, t1 = 0.0, 1.0
    for ux, uy, sgn in ((lo[0], lo[1], 1.0), (hi[0], hi[1], -1.0)):
        c0 = sgn * (ux * ay - uy * ax)
        c1 = sgn * (ux * by - uy * bx)
        if c0 < 0.0 and c1 < 0.0:
            return None
        if c0 < 0.0:
            t0 = max(t0, c0 / (c0 - c1))
        elif c1 < 0.0:
            t1 = min(t1, c0 / (c0 - c1))
    if t0 > t1:
        return None
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    if dd > 0.0:
        t = -(ax * dx + ay * dy) / dd
        t = min(max(t, t0), t1)
    else:
        t = t0
    px = ax + t * dx
    py = ay + t * dy
    return px * px + py * py


def _reference_search(q, radius, cap=DEFAULT_CAP):
    """The search loop as first written: each queued placement copies
    its cell path, builds its placed corners as a list of pairs and
    carries its window as two pairs.  Returns (cap_exceeded, placements,
    [(holonomy, endpoints, cells), ...]) in search order, or None when a
    search that finished inside its budget found nothing inside the
    radius.
    """
    cx = _build_complex(q)
    pts = cx.pts
    vids = cx.vids
    nbrs = cx.nbrs
    r2 = radius * radius
    found = {}
    remaining = cap
    cap_exceeded = False

    def record(origin, target, hx, hy, cells):
        if hy < 0.0 or (hy == 0.0 and hx < 0.0):
            hx, hy = -hx, -hy
            ends = (target, origin)
        else:
            ends = (origin, target)
        key = (round(hx / DEDUP_TOL), round(hy / DEDUP_TOL),
               min(ends), max(ends))
        if key not in found:
            found[key] = ((hx, hy), ends, cells)

    for t0 in range(len(pts)):
        for corner in range(3):
            ax, ay = pts[t0][corner]
            bx, by = pts[t0][(corner + 1) % 3]
            cx_, cy = pts[t0][(corner + 2) % 3]
            origin = vids[t0][corner]
            lox, loy = bx - ax, by - ay
            hix, hiy = cx_ - ax, cy - ay
            if lox * lox + loy * loy <= r2:
                record(origin, vids[t0][(corner + 1) % 3], lox, loy, (t0,))
            if hix * hix + hiy * hiy <= r2:
                record(origin, vids[t0][(corner + 2) % 3], hix, hiy, (t0,))
            d2 = _reference_clipped_dist2((lox, loy), (hix, hiy),
                                          (lox, loy), (hix, hiy))
            if d2 is None or d2 > r2:
                continue
            e0 = (corner + 1) % 3
            t1, e1, s1, tx1, ty1 = nbrs[t0][e0]
            queue = deque()
            queue.append((t1, e1, s1, tx1 - ax, ty1 - ay,
                          (lox, loy), (hix, hiy), (t0, t1)))
            while queue:
                if remaining <= 0:
                    cap_exceeded = True
                    break
                remaining -= 1
                t, in_e, ms, mx, my, lo, hi, path = queue.popleft()
                lx, ly = lo
                hx, hy = hi
                placed = []
                for k in range(3):
                    px, py = pts[t][k]
                    placed.append((ms * px + mx, ms * py + my))
                pa = placed[in_e]
                pb = placed[(in_e + 1) % 3]
                pw = placed[(in_e + 2) % 3]
                side_o = pa[0] * pb[1] - pa[1] * pb[0]
                side_w = ((pb[0] - pa[0]) * (pw[1] - pa[1])
                          - (pb[1] - pa[1]) * (pw[0] - pa[0]))
                if side_o * side_w >= 0.0:
                    continue
                for k in range(3):
                    px, py = placed[k]
                    if (lx * py - ly * px > 0.0
                            and px * hy - py * hx > 0.0
                            and px * px + py * py <= r2):
                        record(origin, vids[t][k], px, py, path)
                for e in range(3):
                    if e == in_e:
                        continue
                    pa = placed[e]
                    pb = placed[(e + 1) % 3]
                    c = pa[0] * pb[1] - pa[1] * pb[0]
                    if c > 0.0:
                        ca, cb = pa, pb
                    elif c < 0.0:
                        ca, cb = pb, pa
                    else:
                        continue
                    nlo = ca if lx * ca[1] - ly * ca[0] > 0.0 else lo
                    nhi = cb if cb[0] * hy - cb[1] * hx > 0.0 else hi
                    if nlo[0] * nhi[1] - nlo[1] * nhi[0] <= 0.0:
                        continue
                    d2 = _reference_clipped_dist2(pa, pb, nlo, nhi)
                    if d2 is None or d2 > r2:
                        continue
                    t2, e2, s2, tx2, ty2 = nbrs[t][e]
                    queue.append((t2, e2, ms * s2, ms * tx2 + mx,
                                  ms * ty2 + my, nlo, nhi, path + (t2,)))

    if not found and not cap_exceeded:
        return None
    conns = sorted(found.values(),
                   key=lambda c: (math.hypot(*c[0]), c[0], c[1]))
    return cap_exceeded, cap - remaining, conns


def _search_outcome(q, radius, cap):
    try:
        result = saddle_connections_up_to(q, radius, cap=cap)
    except RadiusTooSmall:
        return None
    return (result.cap_exceeded, result.placements,
            [(c.holonomy, c.endpoints, c.cells) for c in result])


def _twisted(cfg, sa, rng):
    base = build_surface(cfg, sa, [1] * cfg.n_curves, mode=NUMERIC)
    twists = [rng.random() * l for l in base.base_lengths]
    return base._replace(twists=twists)


REFERENCE_FAMILIES = {
    "origami": lambda rng: origami_surface(twist=rng.random() * 3),
    "two_pants": lambda rng: two_pants_surface(
        [1, 1, 1], [rng.random() * l for l in (3, 4, 5)]),
    "genus3": lambda rng: _twisted(
        GENUS3, pants_assignment(GENUS3, GENERIC6), rng),
    "genus5": lambda rng: _twisted(
        GENUS5, pants_assignment(GENUS5, GENERIC12), rng),
    "ring4": lambda rng: _twisted(*plumbing_ring(4), rng),
}


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_search_matches_reference_exactly(family):
    # exact equality, floats and all: the search loop must do the same
    # float operations in the same order as the reference, so every
    # holonomy, every cell path and the placement count agree bit for
    # bit, also when the budget truncates the search
    rng = random.Random(f"saddle-reference/{family}")
    make = REFERENCE_FAMILIES[family]
    for time in range(5):
        q = geodesic_flow(make(rng), time)
        for radius in (0.7, 1.0, 1.5, 2.0):
            for cap in (DEFAULT_CAP, 300):
                assert (_search_outcome(q, radius, cap)
                        == _reference_search(q, radius, cap)), (
                    family, time, radius, cap)


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_truncated_search_matches_reference_exactly(family):
    # a full search visits the same placements in any queue order, so
    # only a spent budget shows the order: sweep the cap so that the
    # cut falls at many points of the breadth-first sweep
    rng = random.Random(f"saddle-reference/{family}")
    make = REFERENCE_FAMILIES[family]
    for time in range(5):
        q = geodesic_flow(make(rng), time)
        for radius in (1.0, 2.0):
            for cap in range(5, 400, 13):
                assert (_search_outcome(q, radius, cap)
                        == _reference_search(q, radius, cap)), (
                    family, time, radius, cap)


def test_cut_search_without_connections_reports_the_budget():
    # the genus-5 pants of the reference tests at cap 300: in 7 of the
    # 20 searches the budget runs out before anything is recorded.  Such
    # a search returns empty with cap_exceeded set, because only a search
    # that finished inside its budget knows that nothing fits; in 3 of
    # the 7 the full search does find connections inside the radius
    rng = random.Random("saddle-reference/genus5")
    make = REFERENCE_FAMILIES["genus5"]
    empty = hidden = 0
    for time in range(5):
        q = geodesic_flow(make(rng), time)
        for radius in (0.7, 1.0, 1.5, 2.0):
            full = _search_outcome(q, radius, DEFAULT_CAP)
            try:
                cut = saddle_connections_up_to(q, radius, cap=300)
            except RadiusTooSmall:
                assert full is None, (time, radius)
                continue
            if not len(cut):
                assert cut.cap_exceeded and cut.placements == 300
                empty += 1
                hidden += full is not None
    assert (empty, hidden) == (7, 3)
