"""Saddle connections found by unfolding a cylinder triangulation.

A saddle connection is a straight segment joining two cone points with
no cone point in its interior.  Each cylinder is cut into triangles
whose vertices are the marked corners on its two boundary circles, and
the search develops triangles into the plane along sight lines from
each corner.  Every gluing map of the surface has the shape z -> z + c
or z -> -z + c, so a placement is a sign and an offset and the whole
computation stays in plane geometry.

The search handles numeric surfaces only, and exact-mode callers are
told to build a numeric twin first.  Floats are a speed choice, not a
necessity: the length cutoff compares x^2 + y^2 with r^2 and needs no
square root, so on rational data every test here is a rational
comparison.  An exact integer search to check this one against is an
open step of ROADMAP item 3.
"""

import math
from collections import deque
from dataclasses import dataclass

from .errors import CrossCheckFailed, ModeMismatch, OutOfRange, RadiusTooSmall
from .surface import NUMERIC

DEDUP_TOL = 1e-9
DEFAULT_CAP = 50_000


@dataclass(frozen=True)
class SaddleConnection:
    """One saddle connection, stored up to reversal.

    The holonomy is sign-normalized: y > 0, or y == 0 and x > 0.  The
    endpoints are spine vertex ids (piece, vertex index) ordered so the
    segment runs from the first to the second along the stored
    holonomy.  cells is the sequence of triangulation cells the segment
    crosses, a certificate that can be replayed against the complex.
    """

    holonomy: tuple
    endpoints: tuple
    cells: tuple

    @property
    def length(self):
        return math.hypot(self.holonomy[0], self.holonomy[1])


@dataclass(frozen=True)
class SaddleSearch:
    """Search output: connections sorted by length plus budget status.

    cap_exceeded reports that the placement budget ran out, in which
    case the list is a sample rather than a census.  Every corner
    records its two triangulation edges before it unfolds anything, and
    keeps doing so after the budget is spent, so even a truncated search
    still holds the shortest edges.  A truncated search may hold no
    connection at all; only a finished one raises RadiusTooSmall.
    """

    connections: tuple
    cap_exceeded: bool
    radius: float
    placements: int

    def __len__(self):
        return len(self.connections)

    def __iter__(self):
        return iter(self.connections)

    def __getitem__(self, index):
        return self.connections[index]


class _Complex:
    """Triangulated surface with per-edge transition maps.

    pts[t] holds the corner coordinates of triangle t in its cylinder
    chart, counterclockwise.  nbrs[t][e] is (t2, e2, sign, tx, ty):
    edge e of t (corner e to corner e+1) is glued to edge e2 of t2, and
    psi(z) = sign*z + (tx, ty) maps the chart of t2 into the chart of t.
    """

    def __init__(self):
        self.pts = []
        self.vids = []
        self.nbrs = []

    def add_triangle(self, pts, vids):
        self.pts.append(pts)
        self.vids.append(vids)
        self.nbrs.append([None, None, None])
        return len(self.pts) - 1

    def link(self, t1, e1, t2, e2, sign, tx, ty):
        self.nbrs[t1][e1] = (t2, e2, sign, tx, ty)
        if sign == 1:
            self.nbrs[t2][e2] = (t1, e1, 1, -tx, -ty)
        else:
            # a point reflection is its own inverse
            self.nbrs[t2][e2] = (t1, e1, -1, tx, ty)

    def min_edge(self):
        best = None
        for pts in self.pts:
            for e in range(3):
                d = math.dist(pts[e], pts[(e + 1) % 3])
                if best is None or d < best:
                    best = d
        return best


def _check_spacing(gap, arc, tol):
    """Two successive corners of a circle must sit one arc length apart."""
    if not abs(gap - arc.length) <= tol:
        raise CrossCheckFailed(
            f"corner spacing {gap!r} differs from the length {arc.length!r} "
            f"of side {arc.half_edge} of piece {arc.piece}")


def _triangulate_cylinder(cx, q, cyl, arc_slot):
    """Cut one cylinder into corner-to-corner triangles.

    Corners of both boundary circles are merged by x position and swept
    once around; each event closes a triangle against the most recent
    corner seen on the opposite circle.  Every triangle gets exactly
    one boundary arc, recorded in arc_slot keyed by (piece, half_edge),
    and the sweep's first and last diagonals are glued across the seam
    with a one-period shift.
    """
    ell = cyl.length
    height = cyl.height
    events = []
    for idx, side in enumerate(cyl.bottom):
        x = side.x_tail
        if x >= ell:
            x -= ell
        vid = (side.piece, q.sa.graphs[side.piece].vertex_of(side.half_edge))
        events.append((x, 0, idx, vid, side))
    n_top = len(cyl.top)
    for idx, side in enumerate(cyl.top):
        x = side.x_tail
        if x >= ell:
            x -= ell
        vid = (side.piece, q.sa.graphs[side.piece].vertex_of(side.half_edge))
        # the arc to the right of a top corner is the previous side in
        # the face cycle: the top circle is laid out right to left
        arc = cyl.top[(idx - 1) % n_top]
        events.append((x, 1, idx, vid, arc))
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

    # seed with the last corner of each circle shifted one period left,
    # so the first triangle closes against the last ones over the seam
    last_b = [ev for ev in events if ev[1] == 0][-1]
    last_t = [ev for ev in events if ev[1] == 1][-1]
    cb_x, cb_vid, cb_arc = last_b[0] - ell, last_b[3], last_b[4]
    ct_x, ct_vid, ct_arc = last_t[0] - ell, last_t[3], last_t[4]

    tol = 1e-7 * (1.0 + ell)
    first = len(cx.pts)
    prev = None
    for x, rank, _idx, vid, arc in events:
        if rank == 0:
            _check_spacing(x - cb_x, cb_arc, tol)
            pts = ((cb_x, 0.0), (x, 0.0), (ct_x, height))
            vids = (cb_vid, vid, ct_vid)
            arc_side, arc_e, new_diag = cb_arc, 0, 1
            cb_x, cb_vid, cb_arc = x, vid, arc
        else:
            _check_spacing(x - ct_x, ct_arc, tol)
            pts = ((cb_x, 0.0), (x, height), (ct_x, height))
            vids = (cb_vid, vid, ct_vid)
            arc_side, arc_e, new_diag = ct_arc, 1, 0
            ct_x, ct_vid, ct_arc = x, vid, arc
        t = cx.add_triangle(pts, vids)
        arc_slot[(arc_side.piece, arc_side.half_edge)] = (t, arc_e)
        if prev is not None:
            cx.link(t, 2, prev[0], prev[1], 1, 0.0, 0.0)
        prev = (t, new_diag)
    cx.link(first, 2, prev[0], prev[1], 1, -ell, 0.0)


def _build_complex(q):
    cx = _Complex()
    arc_slot = {}
    for cyl in q.layout():
        _triangulate_cylinder(cx, q, cyl, arc_slot)
    for (piece, h), (t1, e1) in arc_slot.items():
        h2 = q.sa.graphs[piece].iota[h]
        if h2 < h:
            continue
        t2, e2 = arc_slot[(piece, h2)]
        # the tail corner of a side is identified with the head corner
        # of its partner, so psi sends tail2 -> head1 and head2 -> tail1
        head1 = cx.pts[t1][(e1 + 1) % 3]
        tail2 = cx.pts[t2][e2]
        if q.edge_flip(piece, h):
            cx.link(t1, e1, t2, e2, -1,
                    head1[0] + tail2[0], head1[1] + tail2[1])
        else:
            cx.link(t1, e1, t2, e2, 1,
                    head1[0] - tail2[0], head1[1] - tail2[1])
    for t, row in enumerate(cx.nbrs):
        if None in row:
            raise CrossCheckFailed(
                f"triangle {t} has an unglued edge: {row.index(None)}")
    return cx


def _clipped_dist2(ax, ay, bx, by, lox, loy, hix, hiy):
    """Squared distance from the origin to the visible part of ab.

    The segment a -> b is clipped to the closed cone between the rays
    through lo and hi before measuring, so a corridor whose edge sweeps
    near the origin outside its own window does not keep the search
    alive.  Returns None when nothing of the segment lies in the cone.
    """
    t0 = 0.0
    t1 = 1.0
    # clip against the lo ray, then against the hi ray seen from the
    # other side
    c0 = lox * ay - loy * ax
    c1 = lox * by - loy * bx
    if c0 < 0.0:
        if c1 < 0.0:
            return None
        t = c0 / (c0 - c1)
        if t > t0:
            t0 = t
    elif c1 < 0.0:
        t = c0 / (c0 - c1)
        if t < t1:
            t1 = t
    c0 = -(hix * ay - hiy * ax)
    c1 = -(hix * by - hiy * bx)
    if c0 < 0.0:
        if c1 < 0.0:
            return None
        t = c0 / (c0 - c1)
        if t > t0:
            t0 = t
    elif c1 < 0.0:
        t = c0 / (c0 - c1)
        if t < t1:
            t1 = t
    if t0 > t1:
        return None
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    if dd > 0.0:
        t = -(ax * dx + ay * dy) / dd
        if t0 > t:
            t = t0
        if t1 < t:
            t = t1
    else:
        t = t0
    px = ax + t * dx
    py = ay + t * dy
    return px * px + py * py


# Exit edges of a triangle entered through edge in_e, in increasing
# edge order: edge in_e + 1 runs from the entry head b to the far
# corner w, edge in_e + 2 from w back to the entry tail a.
_EXITS = (((1, True), (2, False)),
          ((0, False), (2, True)),
          ((0, True), (1, False)))


def saddle_connections_up_to(q, radius, cap=DEFAULT_CAP):
    """Every saddle connection of length <= radius, sorted by length.

    Duplicates found from both endpoints or from different angular
    sectors collapse under a key of sign-normalized holonomy quantized
    at DEDUP_TOL together with the endpoint pair; parallel segments
    sharing holonomy and endpoints count once.  Raises RadiusTooSmall
    when a search that finished inside its budget found nothing inside
    the radius (the shortest candidate is the shortest triangulation
    edge).  A search that spends its placement budget returns what it
    has with cap_exceeded set instead of raising, even when that is
    nothing.

    A queued placement carries a parent index into a per-corner trail
    instead of a copy of its cell path: node i holds a triangle and the
    node it was reached from, and the path is read back only when a
    placement records a new connection.
    """
    if q.mode != NUMERIC:
        raise ModeMismatch("saddle search needs a numeric-mode surface")
    radius = float(radius)
    if not radius > 0.0:
        raise OutOfRange(f"radius must be positive, got {radius}")
    cap = int(cap)
    if cap < 0:
        raise OutOfRange(f"cap must be nonnegative, got {cap}")

    cx = _build_complex(q)
    pts = cx.pts
    vids = cx.vids
    nbrs = cx.nbrs
    # corner coordinates of each triangle as one flat 6-tuple
    flat = [a + b + c for a, b, c in pts]
    r2 = radius * radius
    found = {}
    trail_t = []
    trail_up = []
    remaining = cap
    cap_exceeded = False

    def record(origin, target, hx, hy, node):
        if hy < 0.0 or (hy == 0.0 and hx < 0.0):
            hx, hy = -hx, -hy
            ends = (target, origin)
        else:
            ends = (origin, target)
        # the endpoint pair is unordered in the key: holonomy carries a
        # sign ambiguity of its own, so the searches from the two ends
        # of one segment may agree on the normalized vector yet swap
        # the traversal order
        key = (round(hx / DEDUP_TOL), round(hy / DEDUP_TOL),
               min(ends), max(ends))
        if key not in found:
            cells = []
            while node >= 0:
                cells.append(trail_t[node])
                node = trail_up[node]
            cells.reverse()
            found[key] = SaddleConnection((hx, hy), ends, tuple(cells))

    for t0 in range(len(pts)):
        for corner in range(3):
            ox, oy = pts[t0][corner]
            nx, ny = pts[t0][(corner + 1) % 3]
            fx, fy = pts[t0][(corner + 2) % 3]
            origin = vids[t0][corner]
            lox, loy = nx - ox, ny - oy
            hix, hiy = fx - ox, fy - oy
            # a fresh trail per starting corner, so it never holds more
            # than two nodes per placement of one corner's sweep
            trail_t[:] = (t0,)
            trail_up[:] = (-1,)
            # the two triangle edges at this corner are themselves
            # saddle connections, and the open window below excludes
            # exactly their directions, so record them as seeds
            if lox * lox + loy * loy <= r2:
                record(origin, vids[t0][(corner + 1) % 3], lox, loy, 0)
            if hix * hix + hiy * hiy <= r2:
                record(origin, vids[t0][(corner + 2) % 3], hix, hiy, 0)
            d2 = _clipped_dist2(lox, loy, hix, hiy, lox, loy, hix, hiy)
            if d2 is None or d2 > r2:
                continue
            e0 = (corner + 1) % 3
            t1, e1, s1, tx1, ty1 = nbrs[t0][e0]
            trail_t.append(t1)
            trail_up.append(0)
            queue = deque()
            queue.append((t1, e1, s1, tx1 - ox, ty1 - oy,
                          lox, loy, hix, hiy, 1))
            while queue:
                if remaining <= 0:
                    cap_exceeded = True
                    break
                remaining -= 1
                t, in_e, ms, mx, my, lx, ly, hx, hy, node = queue.popleft()
                p0x, p0y, p1x, p1y, p2x, p2y = flat[t]
                x0 = ms * p0x + mx
                y0 = ms * p0y + my
                x1 = ms * p1x + mx
                y1 = ms * p1y + my
                x2 = ms * p2x + mx
                y2 = ms * p2y + my
                if in_e == 0:
                    ax, ay = x0, y0
                    bx, by = x1, y1
                    wx, wy = x2, y2
                elif in_e == 1:
                    ax, ay = x1, y1
                    bx, by = x2, y2
                    wx, wy = x0, y0
                else:
                    ax, ay = x2, y2
                    bx, by = x0, y0
                    wx, wy = x1, y1
                # rays must cross the entry edge going away from the
                # origin, so the triangle has to sit on the far side of
                # that edge's line.  Direction cones alone cannot see
                # this: a corridor that wraps a cone point of angle
                # 2 pi or more keeps every directional test happy
                # forever while its crossing parameters run backwards.
                side_o = ax * by - ay * bx
                side_w = (bx - ax) * (wy - ay) - (by - ay) * (wx - ax)
                if side_o * side_w >= 0.0:
                    continue
                if (lx * y0 - ly * x0 > 0.0
                        and x0 * hy - y0 * hx > 0.0
                        and x0 * x0 + y0 * y0 <= r2):
                    record(origin, vids[t][0], x0, y0, node)
                if (lx * y1 - ly * x1 > 0.0
                        and x1 * hy - y1 * hx > 0.0
                        and x1 * x1 + y1 * y1 <= r2):
                    record(origin, vids[t][1], x1, y1, node)
                if (lx * y2 - ly * x2 > 0.0
                        and x2 * hy - y2 * hx > 0.0
                        and x2 * x2 + y2 * y2 <= r2):
                    record(origin, vids[t][2], x2, y2, node)
                for e, from_b in _EXITS[in_e]:
                    if from_b:
                        pax, pay = bx, by
                        pbx, pby = wx, wy
                    else:
                        pax, pay = wx, wy
                        pbx, pby = ax, ay
                    c = pax * pby - pay * pbx
                    if c > 0.0:
                        cax, cay = pax, pay
                        cbx, cby = pbx, pby
                    elif c < 0.0:
                        cax, cay = pbx, pby
                        cbx, cby = pax, pay
                    else:
                        # edge collinear with the origin: nothing is
                        # visible through its open cone
                        continue
                    if lx * cay - ly * cax > 0.0:
                        nlx, nly = cax, cay
                    else:
                        nlx, nly = lx, ly
                    if cbx * hy - cby * hx > 0.0:
                        nhx, nhy = cbx, cby
                    else:
                        nhx, nhy = hx, hy
                    if nlx * nhy - nly * nhx <= 0.0:
                        continue
                    d2 = _clipped_dist2(pax, pay, pbx, pby,
                                        nlx, nly, nhx, nhy)
                    if d2 is None or d2 > r2:
                        continue
                    t2, e2, s2, tx2, ty2 = nbrs[t][e]
                    queue.append((t2, e2, ms * s2, ms * tx2 + mx,
                                  ms * ty2 + my, nlx, nly, nhx, nhy,
                                  len(trail_t)))
                    trail_t.append(t2)
                    trail_up.append(node)

    conns = sorted(found.values(),
                   key=lambda c: (c.length, c.holonomy, c.endpoints))
    if not conns and not cap_exceeded:
        raise RadiusTooSmall(
            f"no saddle connection has length <= {radius}; the shortest "
            f"triangulation edge is {cx.min_edge():.6g}")
    return SaddleSearch(tuple(conns), cap_exceeded, radius, cap - remaining)
