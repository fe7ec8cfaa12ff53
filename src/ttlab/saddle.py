"""Saddle connections found by unfolding a cylinder triangulation.

A saddle connection is a straight segment joining two cone points with
no cone point in its interior.  Each cylinder is cut into triangles
whose vertices are the marked corners on its two boundary circles, and
the search develops triangles into the plane along sight lines from
each corner.  Every gluing map of the surface has the shape z -> z + c
or z -> -z + c, so a placement is a sign and an offset and the whole
computation stays in plane geometry.  The triangulation is built
straight into the lists the search reads, and the sweep is driven by a
table with one row per state, a triangle with its entry edge and a
sign: the row holds the signed corners in entry order, their vertex
ids and the two exits with their successor states, so placing a
triangle is six additions.  Both rows of a (triangle, entry edge) pair
come from one pass, the sign -1 row by negating the sign +1 row.  The
floats are those of applying the sign in the loop, since negating is
multiplying by -1 bit for bit, and the corners are tested in entry
order rather than vertex order, which cannot change what is found: the
final sort is a total order on the dedup keys, and the corners one
placement records are distinct points of an open cone narrower than a
half-turn, at least a triangle edge apart, so they share no key.  A
queued placement links to its parent by a (triangle, parent) pair, and
the exits clip their edge to the window in the loop itself, the one
clip of the search: a starting corner's window spans its own far edge,
which _seed_dist2 measures whole.

The search handles numeric surfaces only; run_probe converts the
surface it is handed to floats once, before any search.  Floats are a
speed choice, not a necessity: the length cutoff compares x^2 + y^2
with r^2 and needs no square root, so on rational data every test here
is a rational comparison.  An exact integer search to check this one
against is an open step of ROADMAP item 3.
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


@dataclass(frozen=True)
class _Complex:
    """Triangulated surface with per-edge transition maps.

    pts[t] holds the corner coordinates of triangle t in its cylinder
    chart, counterclockwise, and vids[t] their spine vertex ids.
    nbrs[t][e] is (t2, e2, sign, tx, ty): edge e of t (corner e to
    corner e+1) is glued to edge e2 of t2, and psi(z) = sign*z + (tx, ty)
    maps the chart of t2 into the chart of t.
    """

    pts: list
    vids: list
    nbrs: list


def _check_spacing(gap, arc, tol):
    """Two successive corners of a circle must sit one arc length apart."""
    if not abs(gap - arc.length) <= tol:
        raise CrossCheckFailed(
            f"corner spacing {gap!r} differs from the length {arc.length!r} "
            f"of side {arc.half_edge} of piece {arc.piece}")


def _triangulate_cylinder(cx, q, cyl, arc_slot):
    """Cut one cylinder into corner-to-corner triangles of cx.

    Corners of both boundary circles are merged by x position and swept
    once around; each event closes a triangle against the most recent
    corner seen on the opposite circle.  Every triangle gets exactly
    one boundary arc, recorded in arc_slot keyed by (piece, half_edge),
    and the sweep's first and last diagonals are glued across the seam
    with a one-period shift.  A translation glued one way is stored
    negated the other way, so a diagonal glued by (0.0, 0.0) one way
    reads (-0.0, -0.0) the other way.
    """
    ell = cyl.length
    height = cyl.height
    events = []
    for rank, sides in enumerate((cyl.bottom, cyl.top)):
        for idx, side in enumerate(sides):
            x = side.x_tail
            if x >= ell:
                x -= ell
            vid = (side.piece,
                   q.sa.graphs[side.piece].vertex_of(side.half_edge))
            # the arc to the right of a corner is its own side on the
            # bottom and the previous side in the face cycle on the top,
            # which is laid out right to left
            events.append((x, rank, idx, vid, sides[idx - rank]))
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

    # seed with the last corner of each circle shifted one period left,
    # so the first triangle closes against the last ones over the seam
    last_b = [ev for ev in events if ev[1] == 0][-1]
    last_t = [ev for ev in events if ev[1] == 1][-1]
    cb_x, cb_vid, cb_arc = last_b[0] - ell, last_b[3], last_b[4]
    ct_x, ct_vid, ct_arc = last_t[0] - ell, last_t[3], last_t[4]

    tol = 1e-7 * (1.0 + ell)
    pts, vids, nbrs = cx.pts, cx.vids, cx.nbrs
    first = len(pts)
    prev = None
    for x, rank, _idx, vid, arc in events:
        t = len(pts)
        vids.append((cb_vid, vid, ct_vid))
        if rank == 0:
            _check_spacing(x - cb_x, cb_arc, tol)
            pts.append(((cb_x, 0.0), (x, 0.0), (ct_x, height)))
            arc_slot[(cb_arc.piece, cb_arc.half_edge)] = (t, 0)
            new_diag = 1
            cb_x, cb_vid, cb_arc = x, vid, arc
        else:
            _check_spacing(x - ct_x, ct_arc, tol)
            pts.append(((cb_x, 0.0), (x, height), (ct_x, height)))
            arc_slot[(ct_arc.piece, ct_arc.half_edge)] = (t, 1)
            new_diag = 0
            ct_x, ct_vid, ct_arc = x, vid, arc
        if prev is None:
            nbrs.append([None, None, None])
        else:
            nbrs.append([None, None, (prev[0], prev[1], 1, 0.0, 0.0)])
            nbrs[prev[0]][prev[1]] = (t, 2, 1, -0.0, -0.0)
        prev = (t, new_diag)
    nbrs[first][2] = (prev[0], prev[1], 1, -ell, 0.0)
    nbrs[prev[0]][prev[1]] = (first, 2, 1, ell, -0.0)


def _build_complex(q):
    cx = _Complex([], [], [])
    arc_slot = {}
    for cyl in q.layout:
        _triangulate_cylinder(cx, q, cyl, arc_slot)
    pts, nbrs = cx.pts, cx.nbrs
    for (piece, h), (t1, e1) in arc_slot.items():
        h2 = q.sa.graphs[piece].iota[h]
        if h2 < h:
            continue
        t2, e2 = arc_slot[(piece, h2)]
        # the tail corner of a side is identified with the head corner
        # of its partner, so psi sends tail2 -> head1 and head2 -> tail1
        head1 = pts[t1][(e1 + 1) % 3]
        tail2 = pts[t2][e2]
        if q.edge_flip(piece, h):
            # a point reflection is its own inverse
            tx, ty = head1[0] + tail2[0], head1[1] + tail2[1]
            nbrs[t1][e1] = (t2, e2, -1, tx, ty)
            nbrs[t2][e2] = (t1, e1, -1, tx, ty)
        else:
            tx, ty = head1[0] - tail2[0], head1[1] - tail2[1]
            nbrs[t1][e1] = (t2, e2, 1, tx, ty)
            nbrs[t2][e2] = (t1, e1, 1, -tx, -ty)
    for t, row in enumerate(nbrs):
        if None in row:
            raise CrossCheckFailed(
                f"triangle {t} has an unglued edge: {row.index(None)}")
    return cx


def _seed_dist2(lox, loy, hix, hiy):
    """Squared distance from the origin to the seed edge lo -> hi, or
    None when the window from lo to hi turns clockwise.

    This is the exit loop's clip of lo -> hi to the cone of lo and hi
    itself: the lo ray reads lox*loy - loy*lox = +0.0 and clips nothing,
    and the hi ray cuts the whole edge exactly when the cross product
    lox*hiy - loy*hix is negative.  So what is left is the distance to
    the segment, its parameter clamped to [0, 1] as the loop clamps it.
    The two differ only on a clockwise window holding a coordinate
    product past the float range, which no cylinder triangle gives.
    """
    if lox * hiy - loy * hix < 0.0:
        return None
    dx = hix - lox
    dy = hiy - loy
    dd = dx * dx + dy * dy
    t = 0.0
    if dd > 0.0:
        t = -(lox * dx + loy * dy) / dd
        if 0.0 > t:
            t = 0.0
        if 1.0 < t:
            t = 1.0
    px = lox + t * dx
    py = loy + t * dy
    return px * px + py * py


def _state_table(cx):
    """One row per sweep state: a triangle, its entry edge and a sign.

    A placement maps a triangle's chart into the origin's plane by
    z -> sign * z + (mx, my).  The row of triangle t entered through
    edge in_e under sign sits at index 6 * t + 2 * in_e + (sign < 0) and
    holds (ax, ay, bx, by, wx, wy, va, vb, vw, exits): the corners in
    entry order, with the sign applied (a is the tail of the entry edge,
    b its head, w the far corner), their vertex ids, and the two exit
    edges in increasing edge order.  An exit is (from_b, state, t2, ox,
    oy): whether it is the edge b -> w rather than w -> a, the index of
    the state of the triangle t2 glued across it, and that gluing's
    offset with the sign applied, so the child placement is (ox + mx,
    oy + my).  The sign -1 row is the sign +1 row negated, which has the
    bits of multiplying by -1, signed zeros included, so a placed corner
    ax + mx is bit for bit the sign * p + mx of a loop that applies the
    sign itself.
    """
    table = []
    for t, p in enumerate(cx.pts):
        v = cx.vids[t]
        n = cx.nbrs[t]
        for ia, ib, iw in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            (ax, ay), (bx, by), (wx, wy) = p[ia], p[ib], p[iw]
            # edge ib runs b -> w and edge iw runs w -> a; the sign +1
            # state of a neighbour is odd exactly when its gluing flips,
            # and its sign -1 state is the other one of the pair
            t1, e1, s1, tx1, ty1 = n[ib]
            t2, e2, s2, tx2, ty2 = n[iw]
            n1 = 6 * t1 + 2 * e1 + (s1 < 0)
            n2 = 6 * t2 + 2 * e2 + (s2 < 0)
            bw = (True, n1, t1, tx1, ty1)
            wa = (False, n2, t2, tx2, ty2)
            bw_neg = (True, n1 ^ 1, t1, -tx1, -ty1)
            wa_neg = (False, n2 ^ 1, t2, -tx2, -ty2)
            if ib < iw:
                plus, minus = (bw, wa), (bw_neg, wa_neg)
            else:
                plus, minus = (wa, bw), (wa_neg, bw_neg)
            table.append((ax, ay, bx, by, wx, wy, v[ia], v[ib], v[iw], plus))
            table.append((-ax, -ay, -bx, -by, -wx, -wy,
                          v[ia], v[ib], v[iw], minus))
    return table


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
    nothing.  Raises OutOfRange when the radius or its square is not a
    finite positive float.

    The sweep from each corner is breadth first.  A queued placement is
    a row index of _state_table plus its offset (mx, my), its window and
    a parent link instead of a copy of its cell path: the link is a pair
    (triangle, parent link), ending in None at the starting triangle,
    and the path is read back only when a placement records a new
    connection.  One deque serves every starting corner, and a spent
    budget empties it.  Placing a triangle adds (mx, my) to the six
    stored corner floats of its row, with no branch on the entry edge
    and no sign multiply.  Each corner runs its most selective test
    first: the entry tail a mostly sits on or past the hi ray, the entry
    head b on or past the lo ray, and the far corner w beyond the
    radius.  The tests are plain comparisons, so their order cannot
    change what is found.  Each exit clips its edge to the narrowed
    window and skips when nothing is left or what is left lies beyond
    the radius.
    """
    if q.mode != NUMERIC:
        raise ModeMismatch("saddle search needs a numeric-mode surface")
    radius = float(radius)
    if not radius > 0.0:
        raise OutOfRange(f"radius must be positive, got {radius}")
    r2 = radius * radius
    if not math.isfinite(r2):
        raise OutOfRange(f"radius must have a finite square, got {radius}")
    cap = int(cap)
    if cap < 0:
        raise OutOfRange(f"cap must be nonnegative, got {cap}")

    cx = _build_complex(q)
    pts = cx.pts
    vids = cx.vids
    nbrs = cx.nbrs
    table = _state_table(cx)
    found = {}
    remaining = cap
    cap_exceeded = False
    queue = deque()
    popleft = queue.popleft
    push = queue.append

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
            while node is not None:
                t, node = node
                cells.append(t)
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
            root = (t0, None)
            # the two triangle edges at this corner are themselves
            # saddle connections, and the open window below excludes
            # exactly their directions, so record them as seeds
            if lox * lox + loy * loy <= r2:
                record(origin, vids[t0][(corner + 1) % 3], lox, loy, root)
            if hix * hix + hiy * hiy <= r2:
                record(origin, vids[t0][(corner + 2) % 3], hix, hiy, root)
            d2 = _seed_dist2(lox, loy, hix, hiy)
            if d2 is None or d2 > r2:
                continue
            t1, e1, s1, tx1, ty1 = nbrs[t0][(corner + 1) % 3]
            push((6 * t1 + 2 * e1 + (s1 < 0), tx1 - ox, ty1 - oy,
                  lox, loy, hix, hiy, (t1, root)))
            while queue and remaining > 0:
                remaining -= 1
                state, mx, my, lx, ly, hx, hy, node = popleft()
                ax, ay, bx, by, wx, wy, va, vb, vw, exits = table[state]
                ax += mx
                ay += my
                bx += mx
                by += my
                wx += mx
                wy += my
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
                if (ax * hy - ay * hx > 0.0
                        and ax * ax + ay * ay <= r2
                        and lx * ay - ly * ax > 0.0):
                    record(origin, va, ax, ay, node)
                if (lx * by - ly * bx > 0.0
                        and bx * bx + by * by <= r2
                        and bx * hy - by * hx > 0.0):
                    record(origin, vb, bx, by, node)
                if (wx * wx + wy * wy <= r2
                        and lx * wy - ly * wx > 0.0
                        and wx * hy - wy * hx > 0.0):
                    record(origin, vw, wx, wy, node)
                for from_b, nxt, t2, ox2, oy2 in exits:
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
                    # clip pa -> pb to the cone between the rays through
                    # nl and nh, then measure what is left of it
                    u0 = 0.0
                    u1 = 1.0
                    c0 = nlx * pay - nly * pax
                    c1 = nlx * pby - nly * pbx
                    if c0 < 0.0:
                        if c1 < 0.0:
                            continue
                        u = c0 / (c0 - c1)
                        if u > u0:
                            u0 = u
                    elif c1 < 0.0:
                        u = c0 / (c0 - c1)
                        if u < u1:
                            u1 = u
                    c0 = -(nhx * pay - nhy * pax)
                    c1 = -(nhx * pby - nhy * pbx)
                    if c0 < 0.0:
                        if c1 < 0.0:
                            continue
                        u = c0 / (c0 - c1)
                        if u > u0:
                            u0 = u
                    elif c1 < 0.0:
                        u = c0 / (c0 - c1)
                        if u < u1:
                            u1 = u
                    if u0 > u1:
                        continue
                    dx = pbx - pax
                    dy = pby - pay
                    dd = dx * dx + dy * dy
                    if dd > 0.0:
                        u = -(pax * dx + pay * dy) / dd
                        if u0 > u:
                            u = u0
                        if u1 < u:
                            u = u1
                    else:
                        u = u0
                    px = pax + u * dx
                    py = pay + u * dy
                    if px * px + py * py > r2:
                        continue
                    push((nxt, ox2 + mx, oy2 + my, nlx, nly, nhx, nhy,
                          (t2, node)))
            if queue:
                cap_exceeded = True
                queue.clear()

    conns = sorted(found.values(),
                   key=lambda c: (c.length, c.holonomy, c.endpoints))
    if not conns and not cap_exceeded:
        shortest = min(math.dist(p[e], p[(e + 1) % 3])
                       for p in pts for e in range(3))
        raise RadiusTooSmall(
            f"no saddle connection has length <= {radius}; the shortest "
            f"triangulation edge is {shortest:.6g}")
    return SaddleSearch(tuple(conns), cap_exceeded, radius, cap - remaining)
