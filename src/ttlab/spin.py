"""Spin parity of surfaces whose horizontal direction is orientable.

When all cylinders can be oriented compatibly, the horizontal unit
field has no zeros away from the cone points and induces a quadratic
refinement of the mod-2 intersection pairing: q(c) = wind(c) + 1 +
self(c), where wind counts full turns of the tangent against the
horizontal field and self counts transverse self-crossings.  The Arf
invariant of that form is the parity, an invariant of the connected
component the surface lives in.

The refinement descends to homology only when the field index at
every cone point is odd, that is, when every zero of the abelian
square root has even order: homologous curves differ by subsurface
boundaries, and the winding picks up the enclosed indices.  A vertex
of valence v carries a zero of order (v-2)/2, so parity exists
exactly when all valences are 2 mod 4; anything else refuses with
NoSpinStructure.  That is not a shortcut: with an odd-order zero the
cores of a pants piece would force an inconsistent form (three
disjoint curves with q = 1 summing to zero in homology).

Loops are built straight from the cylinder decomposition: one core
circle per cylinder, plus staircase loops that climb from cylinder to
cylinder through marked points on the spine edges.  Every staircase
segment points into the open upper half-plane of the oriented
structure, so the tangent direction never completes a turn and the
winding term vanishes identically; only crossing counts remain, and
those are exact rational computations inside single cylinders.

Staircase loops come from an ear decomposition of the staircase
digraph: modulo the cores a loop's class is the sum of its steps, so
one simple cycle per ear spans what every staircase loop together
spans, with no search over all cycles.  Loops are taken, shortest
first, until the pairing matrix reaches full rank 2g, which certifies
that they span the whole homology.  No claim is made beyond the
certificate: if the ear cycles are used up below full rank the
computation refuses rather than extrapolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ModeMismatch,
    NoSpinStructure,
    NotAbelianSquare,
    OutOfRange,
    SpanNotCertified,
)
from .linalg import rank_gf2
from .surface import EXACT

_KIND_BIT = {"bottom": 0, "top": 1}


def orientation_bits(q):
    """One bit per cylinder flipping it so every gluing keeps direction.

    Bit 0 keeps the chart orientation of the cylinder, bit 1 reverses
    it.  Crossing a spine edge preserves the horizontal direction
    exactly when the two sides have opposite kinds, so the bits must
    differ across an edge whose sides have equal kinds.  The least
    cylinder of each constraint component keeps its chart orientation,
    which makes the result deterministic; the other solution on each
    component is the complement.

    Raises NotAbelianSquare when the constraints contradict, which
    happens exactly when the surface is not jointly orientable.
    """
    n = q.n_curves
    adj = [[] for _ in range(n)]
    for p, graph in enumerate(q.sa.graphs):
        for h, k in graph.edges():
            a = q.side_of(p, h).curve
            b = q.side_of(p, k).curve
            flip = q.edge_flip(p, h)
            adj[a].append((b, flip))
            adj[b].append((a, flip))
    bits = [None] * n
    for start in range(n):
        if bits[start] is not None:
            continue
        bits[start] = 0
        stack = [start]
        while stack:
            a = stack.pop()
            for b, flip in adj[a]:
                want = bits[a] ^ flip
                if bits[b] is None:
                    bits[b] = want
                    stack.append(b)
                elif bits[b] != want:
                    raise NotAbelianSquare(
                        "the horizontal direction cannot be oriented, "
                        "so the surface carries no spin structure"
                    )
    return tuple(bits)


@dataclass(frozen=True)
class _Edge:
    """A spine edge with its two boundary sides sorted by orientation.

    up_side belongs to the cylinder above the edge (its reoriented
    bottom circle), down_side to the cylinder below.
    """

    piece: int
    half: int
    length: object
    up_side: object
    down_side: object


@dataclass(frozen=True)
class WindingForm:
    """Quadratic form data of a certified generating family of loops.

    The first n_cores entries are cylinder core circles, the rest are
    the staircase loops listed in cycles, each a tuple of spine edge
    ids (piece, half_edge).  gram is the mod-2 intersection pairing
    and q_vals the values of the quadratic refinement.
    """

    q_vals: tuple
    gram: tuple
    n_cores: int
    cycles: tuple


def _edge_table(q, bits):
    edata = []
    for p, graph in enumerate(q.sa.graphs):
        for h, k in graph.edges():
            side_a = q.side_of(p, h)
            side_b = q.side_of(p, k)
            ra = _KIND_BIT[side_a.kind] ^ bits[side_a.curve]
            rb = _KIND_BIT[side_b.kind] ^ bits[side_b.curve]
            if ra == rb:
                raise OutOfRange(
                    f"orientation bits break the gluing across edge "
                    f"({p}, {h})"
                )
            up, down = (side_a, side_b) if ra == 0 else (side_b, side_a)
            edata.append(
                _Edge(
                    piece=p,
                    half=h,
                    length=side_a.length,
                    up_side=up,
                    down_side=down,
                )
            )
    return edata


def _staircase_succ(edata):
    """Staircase digraph on spine edges: e -> f when f tops the cylinder
    that e bottoms, so a staircase may climb from e to f."""
    return [
        [j for j, f in enumerate(edata) if f.down_side.curve == e.up_side.curve]
        for e in edata
    ]


def _ear_cycles(succ):
    """A basis of simple directed cycles for what directed cycles span.

    Every directed cycle lies in one strongly connected component, and
    there the cycles span the whole mod-2 cycle space, m - n + 1
    dimensions for m arcs on n nodes.  A directed ear decomposition
    gives a basis.  H starts at one node and stays strongly connected;
    an ear is an arc (u, v) out of H followed by a path back into it,
    and closing it through H gives a simple cycle with arcs no earlier
    cycle has.  The ear and its closing path are a shortest way from v
    back to u that, once in H, keeps to the arcs of H; when there is
    none, v lies outside the component of H and the arc is on no cycle.
    Every loop arc and every 2-cycle is in the basis, so the shortest
    staircases are.  The cycles come rooted at their least node, in
    order of length, then node tuple.
    """
    pred = [[] for _ in succ]
    for u, nexts in enumerate(succ):
        for v in nexts:
            pred[v].append(u)
    todo = {(u, v) for u, nexts in enumerate(succ) for v in nexts}
    cycles = []
    for root in range(len(succ)):
        order = [root]
        nodes = {root}
        for u in order:
            for v in succ[u]:
                if (u, v) not in todo:
                    continue
                todo.remove((u, v))
                # breadth first backwards from u: hop[x] is the next node
                # on a shortest way from x to u
                hop = {u: u}
                frontier = [u]
                while frontier and v not in hop:
                    later = []
                    for w in frontier:
                        for x in pred[w]:
                            if x not in hop and not (
                                    x in nodes and (x, w) in todo):
                                hop[x] = w
                                later.append(x)
                    frontier = later
                if v not in hop:
                    continue
                cyc = [u]
                while v != u:
                    cyc.append(v)
                    if v not in nodes:
                        nodes.add(v)
                        order.append(v)
                    v = hop[v]
                todo.difference_update(zip(cyc, cyc[1:] + cyc[:1]))
                i = cyc.index(min(cyc))
                cycles.append(tuple(cyc[i:] + cyc[:i]))
    return sorted(cycles, key=lambda c: (len(c), c))


def _point_x(side, canonical_half, length, s):
    """Chart x of the point at edge parameter s on the given side.

    The parameter is measured from the vertex at the canonical (lesser)
    half-edge, so the two sides of an edge see complementary distances.
    """
    d = s if side.half_edge == canonical_half else length - s
    if side.kind == "bottom":
        return side.x_tail + d
    return side.x_tail - d


def _crossings(a1, d1, a2, d2, ell):
    """Transverse crossings of two bottom-to-top segments in one cylinder.

    Segments run straight from (a, 0) to (a + d, h); crossings happen
    at parameters t = (a1 - a2 - m*ell) / (d2 - d1) for integers m, and
    only interior ones with 0 < t < 1 count.  Marked points are chosen
    pairwise distinct, so the boundary cases never occur and parallel
    segments are disjoint.
    """
    diff = d2 - d1
    if diff == 0:
        return 0
    if diff < 0:
        a1, a2 = a2, a1
        diff = -diff
    lo = (a1 - a2 - diff) / ell
    hi = (a1 - a2) / ell
    return max(0, (math.ceil(hi) - 1) - (math.floor(lo) + 1) + 1)


class _FormBuilder:
    """Grows the loop family one staircase at a time.

    Marked points are placed by a per-edge lifetime counter: visit
    number k sits at fraction (k+1)/(k+2) of the edge, so endpoints
    are pairwise distinct no matter how many loops follow and every
    crossing is strictly interior.  The mod-2 matrix does not depend
    on the exact positions; they only pin down representatives.
    """

    def __init__(self, q, bits, edata):
        self.bits = bits
        self.edata = edata
        self.ells = [q.length_of_curve(i) for i in range(q.n_curves)]
        self.visits = [0] * len(edata)
        self.stairs = []
        self.cycles = []
        n = q.n_curves
        self.gram = [[0] * n for _ in range(n)]
        self.q_vals = [1] * n

    def add(self, cyc):
        params = []
        for node in cyc:
            k = self.visits[node]
            self.visits[node] += 1
            params.append(self.edata[node].length * Fraction(k + 1, k + 2))
        segs = []
        m = len(cyc)
        for j in range(m):
            e = self.edata[cyc[j]]
            f = self.edata[cyc[(j + 1) % m]]
            cyl = e.up_side.curve
            x_from = _point_x(e.up_side, e.half, e.length, params[j])
            x_to = _point_x(
                f.down_side, f.half, f.length, params[(j + 1) % m]
            )
            if self.bits[cyl] == 0:
                bottom_x, top_x = x_from, x_to
            else:
                bottom_x, top_x = x_to, x_from
            ell = self.ells[cyl]
            a = bottom_x % ell
            d = (top_x - a + ell / 2) % ell - ell / 2
            segs.append((cyl, a, d))

        row = [0] * len(self.q_vals)
        for cyl, _, _ in segs:
            row[cyl] ^= 1
        n_cores = len(self.ells)
        for sj, other in enumerate(self.stairs):
            row[n_cores + sj] = self._pair_count(segs, other) & 1
        crossings = 0
        for u in range(m):
            for v in range(u + 1, m):
                if segs[u][0] == segs[v][0]:
                    crossings += _crossings(
                        segs[u][1], segs[u][2],
                        segs[v][1], segs[v][2],
                        self.ells[segs[u][0]],
                    )
        for existing, entry in zip(self.gram, row):
            existing.append(entry)
        self.gram.append(row + [0])
        self.q_vals.append((1 + crossings) & 1)
        self.stairs.append(segs)
        self.cycles.append(cyc)

    def _pair_count(self, segs, other):
        count = 0
        for cyl1, a1, d1 in segs:
            for cyl2, a2, d2 in other:
                if cyl1 == cyl2:
                    count += _crossings(a1, d1, a2, d2, self.ells[cyl1])
        return count


def winding_form(q, bits=None):
    """Certified generating loops with their pairing and form values.

    The loops are the cylinder cores and the staircase cycles of an
    ear basis (_ear_cycles), accepted in order until the pairing
    matrix reaches rank exactly 2g.  That certifies the loops span: a
    bilinear form pulled back from a proper subspace of the homology
    of a closed surface cannot reach full rank.  A loop that changes
    nothing at first may still be needed by a later partner, so none
    are dropped.

    Nothing short of every staircase loop could span more.  Modulo the
    cores, a staircase loop's class is the sum of the classes of its
    steps, one per arc of the staircase digraph (another winding inside
    a cylinder changes it by that cylinder's core), so the span depends
    only on the loop's mod-2 arc vector.  The ear basis spans every
    directed cycle's arc vector, so if even all of it falls short of
    rank 2g, SpanNotCertified is raised.

    bits, when given, must be a valid output of orientation_bits (the
    complement of a component is also valid); the parity does not
    depend on the choice.
    """
    if q.mode != EXACT:
        raise ModeMismatch(
            "spin data needs exact arithmetic; build the surface in "
            "exact mode"
        )
    if bits is None:
        bits = orientation_bits(q)
    else:
        bits = tuple(bits)
        if len(bits) != q.n_curves or any(b not in (0, 1) for b in bits):
            raise OutOfRange(f"need one bit per cylinder, got {bits!r}")
    for p, graph in enumerate(q.sa.graphs):
        for orbit in graph.vertices():
            if len(orbit) % 4 != 2:
                raise NoSpinStructure(
                    f"piece {p} has a vertex of valence {len(orbit)}, "
                    f"a zero of odd order {(len(orbit) - 2) // 2} of the "
                    f"square root"
                )
    edata = _edge_table(q, bits)

    target = 2 * q.cfg.genus
    builder = _FormBuilder(q, bits, edata)
    rank = 0
    for cyc in _ear_cycles(_staircase_succ(edata)):
        builder.add(cyc)
        rank = rank_gf2(builder.gram)
        if rank == target:
            break
    if rank != target:
        raise SpanNotCertified(
            f"staircase loops span a form of rank {rank} < {target}"
        )
    cycles = tuple(
        tuple((edata[node].piece, edata[node].half) for node in cyc)
        for cyc in builder.cycles
    )
    return WindingForm(
        q_vals=tuple(builder.q_vals),
        gram=tuple(tuple(r) for r in builder.gram),
        n_cores=q.n_curves,
        cycles=cycles,
    )


def form_value(q_vals, gram, members):
    """Value of the quadratic form on the sum of the listed generators.

    Follows from q(x + y) = q(x) + q(y) + <x, y> applied repeatedly.
    """
    members = sorted(set(members))
    val = 0
    for i, a in enumerate(members):
        val ^= q_vals[a]
        for b in members[i + 1:]:
            val ^= gram[a][b]
    return val


def _check_form(q_vals, gram):
    size = len(q_vals)
    if len(gram) != size or any(len(row) != size for row in gram):
        raise OutOfRange(f"pairing matrix must be {size} x {size}")
    for i in range(size):
        if gram[i][i] != 0:
            raise OutOfRange("a mod-2 self-pairing must vanish")
        for j in range(size):
            if gram[i][j] not in (0, 1) or gram[i][j] != gram[j][i]:
                raise OutOfRange("pairing matrix must be symmetric over GF(2)")
    if any(v not in (0, 1) for v in q_vals):
        raise OutOfRange("form values must be bits")


def arf_invariant(q_vals, gram):
    """Arf invariant of a quadratic form given on a generating family.

    The family may be larger than a basis.  Hyperbolic pairs are
    extracted greedily; whatever remains pairs to zero with everything
    and must carry form value zero, otherwise the form has no Arf
    invariant and OutOfRange is raised.
    """
    _check_form(q_vals, gram)
    size = len(q_vals)
    rows = [
        sum(bit << j for j, bit in enumerate(row)) for row in gram
    ]

    def pair(x, y):
        acc = 0
        while x:
            low = x & -x
            acc ^= (rows[low.bit_length() - 1] & y).bit_count() & 1
            x ^= low
        return acc

    def q_of(mask):
        members = []
        m = mask
        while m:
            low = m & -m
            members.append(low.bit_length() - 1)
            m ^= low
        return form_value(q_vals, gram, members)

    vecs = [1 << i for i in range(size)]
    arf = 0
    while True:
        found = None
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if pair(vecs[i], vecs[j]) == 1:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i, j = found
        a, b = vecs[i], vecs[j]
        arf ^= q_of(a) & q_of(b)
        rest = [vecs[k] for k in range(len(vecs)) if k not in (i, j)]
        vecs = [
            v ^ (a if pair(v, b) else 0) ^ (b if pair(v, a) else 0)
            for v in rest
        ]
    for v in vecs:
        if q_of(v):
            raise OutOfRange(
                "a radical vector has form value 1, so the parity is "
                "undefined"
            )
    return arf


def spin_parity(q):
    """Parity of the spin structure induced by the horizontal direction.

    Only defined when the horizontal direction is orientable; raises
    NotAbelianSquare otherwise.  The result is "even" or "odd" and does
    not depend on the chosen orientation, the loop order, or
    the symplectic basis extracted from it.
    """
    form = winding_form(q)
    return "odd" if arf_invariant(form.q_vals, form.gram) else "even"
