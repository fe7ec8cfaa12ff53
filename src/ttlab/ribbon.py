"""Metric ribbon graphs and spine assignments.

A ribbon graph is stored as two permutations of the half-edge set
0..n-1: `sigma` (counterclockwise order at each vertex) and `iota`
(fixed-point-free pairing into edges).  Boundary faces are the orbits
of sigma∘iota, and the side h of a face traverses its edge from the
vertex of h to the vertex of iota(h).  Edge lengths are positive
rationals; everything downstream (gluing feasibility, the a = b + c
wall for four-valent spines) depends on exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CrossCheckFailed,
    InvalidAssignment,
    LowValence,
    MalformedGraph,
    NonPositiveLength,
    OddValence,
    OutOfRange,
)


class ParityUnionFind:
    """Union-find tracking a Z/2 offset between each element and its root."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity of the path to the parent

    def find(self, x):
        """Return (root, parity of x relative to root), with compression."""
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        p = 0
        for y in reversed(path):
            p ^= self.parity[y]
            self.parent[y] = x
            self.parity[y] = p
        return x, self.parity[path[0]] if path else 0

    def union(self, a, b, parity):
        """Impose parity(a) xor parity(b) = parity; False on contradiction."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == parity
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ parity
        return True


class MetricRibbonGraph:
    """Immutable ribbon graph with rational edge lengths.

    lengths maps the smaller half-edge of each pair to the edge length.
    names, if given, are per-half-edge labels used by the file format.
    """

    def __init__(self, sigma, iota, lengths, names=None):
        self.sigma = tuple(sigma)
        self.iota = tuple(iota)
        n = len(self.sigma)
        self.lengths = {min(h, self.iota[h]) if h < len(self.iota) else h:
                        Fraction(v) for h, v in lengths.items()}
        if names is None:
            names = tuple(f"h{i}" for i in range(n))
        self.names = tuple(names)
        self._check()
        self._vertices = _orbits(self.sigma)
        self._faces = _orbits(tuple(self.sigma[self.iota[h]] for h in range(n)))
        self._vertex_index = {}
        for vi, orbit in enumerate(self._vertices):
            for h in orbit:
                self._vertex_index[h] = vi
        self._face_index = {}
        for fi, orbit in enumerate(self._faces):
            for h in orbit:
                self._face_index[h] = fi
        self._perimeters = tuple(sum(self.length_of(h) for h in face)
                                 for face in self._faces)

    def _check(self):
        n = len(self.sigma)
        if n % 2:
            raise MalformedGraph("odd number of half-edges")
        if sorted(self.sigma) != list(range(n)):
            raise MalformedGraph("sigma is not a permutation")
        if sorted(self.iota) != list(range(n)):
            raise MalformedGraph("iota is not a permutation")
        for h in range(n):
            if self.iota[h] == h:
                raise MalformedGraph(f"iota fixes half-edge {h}")
            if self.iota[self.iota[h]] != h:
                raise MalformedGraph("iota is not an involution")
        expected = {min(h, self.iota[h]) for h in range(n)}
        if set(self.lengths) != expected:
            raise MalformedGraph("lengths keyed by wrong half-edges")
        for e, val in self.lengths.items():
            if val <= 0:
                raise NonPositiveLength(f"edge {e} has length {val}")
        if len(self.names) != n or len(set(self.names)) != n:
            raise MalformedGraph("half-edge names missing or duplicated")
        # connectivity under <sigma, iota>
        if n:
            seen = {0}
            frontier = [0]
            while frontier:
                h = frontier.pop()
                for g in (self.sigma[h], self.iota[h]):
                    if g not in seen:
                        seen.add(g)
                        frontier.append(g)
            if len(seen) != n:
                raise MalformedGraph("graph is not connected")

    # --- basic structure -------------------------------------------------

    @property
    def n_half_edges(self):
        return len(self.sigma)

    def vertices(self):
        """Sigma-orbits as cyclic tuples, each starting at its least element."""
        return self._vertices

    def edges(self):
        """Half-edge pairs (h, iota(h)) with h < iota(h), sorted."""
        return [(h, self.iota[h]) for h in range(self.n_half_edges)
                if h < self.iota[h]]

    def faces(self):
        """Orbits of sigma∘iota as cyclic tuples, least element first."""
        return self._faces

    def edge_of(self, h):
        return min(h, self.iota[h])

    def length_of(self, h):
        return self.lengths[self.edge_of(h)]

    def vertex_of(self, h):
        """Index into vertices() of the vertex h is attached to."""
        return self._vertex_index[h]

    def face_of(self, h):
        """Index into faces() of the boundary cycle containing side h."""
        return self._face_index[h]

    def perimeters(self):
        """Total edge length around each face, aligned with faces()."""
        return self._perimeters

    def genus(self):
        v = len(self._vertices)
        e = self.n_half_edges // 2
        b = len(self._faces)
        chi = v - e
        g2 = 2 - b - chi
        if g2 % 2 or g2 < 0:
            raise CrossCheckFailed(f"bad Euler characteristic {chi}")
        return g2 // 2

    def n_boundaries(self):
        return len(self._faces)

    def total_length(self):
        return sum(self.lengths.values())


def _orbits(perm):
    """Cycles of a permutation, as tuples starting from the least element."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        h = start
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = perm[h]
        out.append(tuple(cyc))
    return out


def boundary_cycles(graph):
    """Faces with their perimeters: list of (cycle tuple, Fraction)."""
    return list(zip(graph.faces(), graph.perimeters()))


def cone_orders(graph):
    """Multiset of valence-2 over vertices, sorted; the zero orders."""
    orders = []
    for orbit in graph.vertices():
        if len(orbit) <= 2:
            raise LowValence(f"vertex {orbit} has valence {len(orbit)}")
        orders.append(len(orbit) - 2)
    return sorted(orders)


def co_orientable(graph):
    """Whether one sign per half-edge can satisfy all alternation constraints.

    The constraints are s(h) != s(iota h) and s(h) != s(sigma h); around
    an odd-valence vertex the sigma cycle is odd, so this fails there.
    """
    uf = ParityUnionFind(graph.n_half_edges)
    for h in range(graph.n_half_edges):
        if not uf.union(h, graph.iota[h], 1):
            return False
        if not uf.union(h, graph.sigma[h], 1):
            return False
    return True


# --- spine assignments -------------------------------------------------------


@dataclass(frozen=True)
class SpineAssignment:
    """Per-piece ribbon graphs plus the face-to-slot bijections.

    face_to_slot[p][f] is the boundary slot of piece p carrying face f
    (faces indexed as in graphs[p].faces()).
    """

    graphs: tuple
    face_to_slot: tuple

    def slot_to_face(self, piece, slot):
        for f, s in enumerate(self.face_to_slot[piece]):
            if s == slot:
                return f
        raise InvalidAssignment(f"no face is assigned to slot {piece}.{slot}")


def validate_assignment(cfg, sa):
    """Raise InvalidAssignment unless sa fits cfg; return curve lengths."""
    if len(sa.graphs) != len(cfg.pieces):
        raise InvalidAssignment("piece count mismatch")
    for p, (graph, piece) in enumerate(zip(sa.graphs, cfg.pieces)):
        if graph.genus() != piece.genus:
            raise InvalidAssignment(
                f"piece {p}: spine genus {graph.genus()} != {piece.genus}")
        if graph.n_boundaries() != piece.n_slots:
            raise InvalidAssignment(
                f"piece {p}: {graph.n_boundaries()} faces for "
                f"{piece.n_slots} slots")
        mapping = sa.face_to_slot[p]
        if sorted(mapping) != list(range(piece.n_slots)):
            raise InvalidAssignment(f"piece {p}: face->slot is not a bijection")
        for orbit in graph.vertices():
            if len(orbit) <= 2:
                raise InvalidAssignment(
                    f"piece {p}: spine vertex of valence {len(orbit)}")
    lengths = []
    for ci, (side_a, side_b) in enumerate(cfg.gluing):
        per = []
        for p, s in (side_a, side_b):
            per.append(sa.graphs[p].perimeters()[sa.slot_to_face(p, s)])
        if per[0] != per[1]:
            raise InvalidAssignment(
                f"curve {ci}: glued faces have perimeters {per[0]} != {per[1]}")
        lengths.append(per[0])
    return lengths


def jointly_orientable(q):
    """Global orientability of the horizontal direction: (flag, epsilon).

    q is a built FlatTwistSurface.  Extends the per-piece alternation
    system by one odd constraint per curve tying the boundary-walk
    orientations of its two glued faces.  Cross-checked elsewhere
    against double-cover connectivity.
    """
    graphs = q.sa.graphs
    offsets = []
    total = 0
    for graph in graphs:
        offsets.append(total)
        total += graph.n_half_edges
    uf = ParityUnionFind(total)
    for p, graph in enumerate(graphs):
        base = offsets[p]
        for h in range(graph.n_half_edges):
            if not uf.union(base + h, base + graph.iota[h], 1):
                return False, -1
            if not uf.union(base + h, base + graph.sigma[h], 1):
                return False, -1
    for ends in q.glued_faces:
        a, b = (offsets[p] + graphs[p].faces()[f][0] for p, f in ends)
        if not uf.union(a, b, 1):
            return False, -1
    return True, 1


# --- constructors ------------------------------------------------------------


def pants_spine(a, b, c):
    """Spine of a three-holed sphere with boundary lengths (a, b, c).

    Returns (graph, face_order) where face_order[k] is the face index
    carrying input boundary k.  Combinatorics by trichotomy: theta when
    the strict triangle inequalities hold, a single four-valent vertex
    when one length equals the sum of the others, dumbbell when one
    strictly exceeds it.
    """
    trip = [Fraction(a), Fraction(b), Fraction(c)]
    if any(x <= 0 for x in trip):
        raise NonPositiveLength(f"boundary lengths {trip}")
    a, b, c = trip
    big = max(range(3), key=lambda i: (trip[i], -i))
    others = [i for i in range(3) if i != big]
    rest = trip[others[0]] + trip[others[1]]

    if trip[big] < rest:
        # theta graph
        x1 = (a - b + c) / 2
        x2 = (a + b - c) / 2
        x3 = (-a + b + c) / 2
        graph = MetricRibbonGraph(
            sigma=[1, 2, 0, 5, 3, 4],
            iota=[3, 4, 5, 0, 1, 2],
            lengths={0: x1, 1: x2, 2: x3},
        )
        # faces sorted by least half-edge: (0,5)->c, (1,3)->a, (2,4)->b
        face_order = (1, 2, 0)
        expected = (c, a, b)
    elif trip[big] == rest:
        # single 4-valent vertex, two nested loops
        graph = MetricRibbonGraph(
            sigma=[1, 2, 3, 0],
            iota=[1, 0, 3, 2],
            lengths={0: trip[others[0]], 2: trip[others[1]]},
        )
        # faces: (0,2)->big, (1)->first other, (3)->second other
        face_order = [None, None, None]
        face_order[big] = 0
        face_order[others[0]] = 1
        face_order[others[1]] = 2
        face_order = tuple(face_order)
        expected = (trip[big], trip[others[0]], trip[others[1]])
    else:
        # dumbbell: two loops joined by a bar
        bar = (trip[big] - rest) / 2
        graph = MetricRibbonGraph(
            sigma=[1, 2, 0, 4, 5, 3],
            iota=[1, 0, 5, 4, 3, 2],
            lengths={0: trip[others[0]], 2: bar, 3: trip[others[1]]},
        )
        # faces: (0,2,3,5)->big, (1)->first other, (4)->second other
        face_order = [None, None, None]
        face_order[big] = 0
        face_order[others[0]] = 1
        face_order[others[1]] = 2
        face_order = tuple(face_order)
        expected = (trip[big], trip[others[0]], trip[others[1]])

    if graph.perimeters() != expected:
        raise CrossCheckFailed(
            f"pants spine perimeters {graph.perimeters()} != {expected}")
    return graph, face_order


def pants_assignment(cfg, lengths):
    """Spines for a whole pants decomposition from the curve lengths.

    Every piece gets the spine pants_spine picks for its boundary
    triple, wired so that face f of piece p sits on the slot whose
    curve has length matching boundary f.
    """
    slot_curve = {}
    for i, pair in enumerate(cfg.gluing):
        for end in pair:
            slot_curve[end] = i
    graphs = []
    face_to_slot = []
    for p in range(len(cfg.pieces)):
        triple = tuple(lengths[slot_curve[(p, s)]] for s in range(3))
        graph, face_order = pants_spine(*triple)
        graphs.append(graph)
        fts = [None] * len(graph.faces())
        for slot, f in enumerate(face_order):
            fts[f] = slot
        face_to_slot.append(tuple(fts))
    return SpineAssignment(tuple(graphs), tuple(face_to_slot))


def plumbing_fixture(p, boundary_length):
    """Two vertices of valence p joined by p parallel edges of length L/2.

    The rotation at the second vertex is reversed, which makes the p
    boundary faces each cross two edges: all perimeters equal L.
    """
    if p < 3:
        raise OutOfRange(f"p = {p} < 3")
    half = Fraction(boundary_length) / 2
    if half <= 0:
        raise NonPositiveLength(f"boundary length {boundary_length}")
    sigma = [0] * (2 * p)
    for i in range(p):
        sigma[i] = (i + 1) % p
        sigma[p + i] = p + (i - 1) % p
    iota = [0] * (2 * p)
    for i in range(p):
        iota[i] = p + i
        iota[p + i] = i
    lengths = {i: half for i in range(p)}
    graph = MetricRibbonGraph(sigma, iota, lengths)
    if graph.genus() != 0 or graph.n_boundaries() != p:
        raise CrossCheckFailed(f"plumbing fixture of valence {p} has the wrong shape")
    return graph


def single_vertex_graph(pairing, lengths):
    """One-vertex ribbon graph: rotation 0,1,...,n-1 with iota = pairing.

    pairing is a fixed-point-free involution given as a list; lengths
    maps each edge's smaller half-edge to its length.
    """
    n = len(pairing)
    if n % 2:
        raise OddValence(f"valence {n} is odd")
    sigma = [(i + 1) % n for i in range(n)]
    return MetricRibbonGraph(sigma, pairing, lengths)
