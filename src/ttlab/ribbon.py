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

import math
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
    _spell,
)
from .topology import _spanning_forest


class MetricRibbonGraph:
    """Immutable ribbon graph with rational edge lengths.

    lengths maps the smaller half-edge of each pair to the edge length.
    """

    def __init__(self, sigma, iota, lengths):
        self.sigma = sigma = tuple(sigma)
        self.iota = iota = tuple(iota)
        self.lengths = _keyed(iota, lengths)
        self._check()
        self._check_lengths()
        vertices, index = self._vertices, self._vertex_index = _orbits(sigma)
        adjacent = [[(None, index[iota[h]]) for h in v] for v in vertices]
        if len(_spanning_forest(adjacent)) < len(vertices) - 1:
            raise MalformedGraph("graph is not connected")
        self._faces, self._face_index = _orbits([sigma[k] for k in iota])
        self._set_perimeters()

    def with_lengths(self, lengths):
        """The graph MetricRibbonGraph(self.sigma, self.iota, lengths)
        builds, with the same errors; what depends on sigma and iota
        alone (their checks, the vertices and the faces) is this graph's."""
        graph = object.__new__(MetricRibbonGraph)
        graph.sigma, graph.iota = self.sigma, self.iota
        graph.lengths = _keyed(self.iota, lengths)
        graph._check_lengths()
        graph._vertices, graph._vertex_index = self._vertices, self._vertex_index
        graph._faces, graph._face_index = self._faces, self._face_index
        graph._set_perimeters()
        return graph

    def _set_perimeters(self):
        # each perimeter is one integer sum over a common denominator
        iota = self.iota
        d = math.lcm(*[v.denominator for v in self.lengths.values()])
        scaled = [0] * len(iota)
        for e, v in self.lengths.items():
            scaled[e] = scaled[iota[e]] = v.numerator * (d // v.denominator)
        self._perimeters = tuple([Fraction(sum(map(scaled.__getitem__, f)), d)
                                  for f in self._faces])

    def _check(self):
        """Raise MalformedGraph for the first check of sigma and iota
        below that fails, in O(n); the lengths are checked next, and
        connectivity last, once the vertices are known."""
        sigma, iota, n = self.sigma, self.iota, len(self.sigma)
        if n % 2:
            raise MalformedGraph("odd number of half-edges")
        everyone = set(range(n))
        if set(sigma) != everyone:
            raise MalformedGraph("sigma is not a permutation")
        if len(iota) != n or set(iota) != everyone:
            raise MalformedGraph("iota is not a permutation")
        for h, k in enumerate(iota):
            if k == h:
                raise MalformedGraph(f"iota fixes half-edge {h}")
            if iota[k] != h:
                raise MalformedGraph("iota is not an involution")

    def _check_lengths(self):
        """Raise MalformedGraph or NonPositiveLength unless the lengths
        are positive and keyed by the edges of iota, an involution."""
        if self.lengths.keys() != {h for h, k in enumerate(self.iota) if h < k}:
            raise MalformedGraph("lengths keyed by wrong half-edges")
        for e, val in self.lengths.items():
            if val.numerator <= 0:
                raise NonPositiveLength(f"edge {e} has length {_spell(val)}")

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


def _keyed(iota, lengths):
    """lengths as a graph keeps them: each key moved to the smaller
    half-edge of its pair, each value a Fraction."""
    n = len(iota)
    return {min(h, iota[h]) if h < n else h:
            v if type(v) is Fraction else Fraction(v)
            for h, v in lengths.items()}


def _orbits(perm):
    """Cycles of a permutation, as tuples starting from the least element,
    and the index of each element's cycle, both as tuples: with_lengths
    hands them to every graph of the same shape.  The one orbit routine
    of the package: a graph's vertices and faces, and the cover's corner
    orbits."""
    index = [None] * len(perm)
    out = []
    for start in range(len(perm)):
        if index[start] is not None:
            continue
        k = len(out)
        cyc = []
        h = start
        while index[h] is None:
            index[h] = k
            cyc.append(h)
            h = perm[h]
        out.append(tuple(cyc))
    return tuple(out), tuple(index)


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

    The constraints are s(h) != s(iota h) and s(h) != s(sigma h).  They
    hold exactly when each face has one sign and the two sides of every
    edge have opposite signs, that is for a two-colouring of the faces;
    around an odd-valence vertex the faces alternate along an odd
    cycle, so this fails there.
    """
    face = graph.face_of
    return _two_colouring(len(graph.faces()), [
        (face(h), face(k)) for h, k in graph.edges()]) is not None


def _two_colouring(n, pairs):
    """A colouring of the nodes 0..n-1 by 0 and 1 that sets the two
    nodes of every pair apart, each root of the spanning forest taking
    0; None when there is no such colouring."""
    adjacent = [[] for _ in range(n)]
    for a, b in pairs:
        adjacent[a].append((None, b))
        adjacent[b].append((None, a))
    colour = [0] * n
    for v, parent, _ in _spanning_forest(adjacent):
        colour[v] = 1 - colour[parent]
    if any(colour[a] == colour[b] for a, b in pairs):
        return None
    return colour


def ribbon_isomorphisms(g1, g2):
    """Half-edge bijections g1 -> g2 commuting with sigma and iota, as
    dicts, by increasing image of half-edge 0; lengths are not compared.

    Connectedness makes each one determined by that image: one spanning
    tree of g1's half-edges under sigma and iota carries it to every
    half-edge, and a candidate counts when it is a bijection that
    commutes with both."""
    n = g1.n_half_edges
    if n != g2.n_half_edges:
        return
    sigma1, iota1, sigma2, iota2 = g1.sigma, g1.iota, g2.sigma, g2.iota
    # forward steps reach every half-edge, sigma and iota being
    # permutations; each tree edge names the permutation of g2 that
    # moves its parent's image
    tree = _spanning_forest([[(sigma2, s), (iota2, i)] for s, i in zip(sigma1, iota1)])
    for start in range(n):
        image = [start] * n
        for h, parent, perm in tree:
            image[h] = perm[image[parent]]
        if (len(set(image)) == n
                and all(image[s] == sigma2[x] for s, x in zip(sigma1, image))
                and all(image[i] == iota2[x] for i, x in zip(iota1, image))):
            yield dict(enumerate(image))


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
    _check_pieces(cfg, sa)
    lengths = []
    for ci, (side_a, side_b) in enumerate(cfg.gluing):
        per = []
        for p, s in (side_a, side_b):
            per.append(sa.graphs[p].perimeters()[sa.slot_to_face(p, s)])
        if per[0] != per[1]:
            raise InvalidAssignment(
                f"curve {ci}: glued faces have perimeters "
                f"{_spell(per[0])} != {_spell(per[1])}")
        lengths.append(per[0])
    return lengths


def _check_pieces(cfg, sa):
    """The checks of validate_assignment that precede the perimeters:
    raise InvalidAssignment unless each spine fits its piece."""
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


def jointly_orientable(q):
    """Global orientability of the horizontal direction: (flag, epsilon).

    q is a built FlatTwistSurface.  Extends the per-piece alternation
    system by one odd constraint per curve tying the boundary-walk
    orientations of its two glued faces.  Cross-checked elsewhere
    against double-cover connectivity.
    """
    return (False, -1) if _bottom_signs(q) is None else (True, 1)


def _bottom_signs(q):
    """Per curve, the colour of its bottom face relative to curve 0 in
    a two-colouring of the faces of all pieces; None when there is none.

    The colouring is co_orientable's on each piece, and the two faces
    glued along a curve take opposite colours, so the face colours are
    the signs of the joint alternation system.  On a connected surface
    it is unique up to swapping the colours, and the signs say which
    cylinders to reverse for the horizontal direction to cross every
    spine edge intact.
    """
    offsets = [0]  # face f of piece p is node offsets[p] + f
    pairs = []
    for graph in q.sa.graphs:
        off, face = offsets[-1], graph.face_of
        pairs += [(off + face(h), off + face(k)) for h, k in graph.edges()]
        offsets.append(off + graph.n_boundaries())
    curves = [[offsets[p] + f for p, f in ends] for ends in q.glued_faces]
    colour = _two_colouring(offsets[-1], pairs + curves)
    if colour is None:
        return None
    return tuple(colour[bottom] ^ colour[curves[0][0]] for bottom, _ in curves)


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
        raise NonPositiveLength(f"boundary lengths {_spell(trip)}")
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
        order = (2, 0, 1)
    elif trip[big] == rest:
        # single 4-valent vertex, two nested loops
        graph = MetricRibbonGraph(
            sigma=[1, 2, 3, 0],
            iota=[1, 0, 3, 2],
            lengths={0: trip[others[0]], 2: trip[others[1]]},
        )
        # faces: (0,2)->big, (1)->first other, (3)->second other
        order = (big, *others)
    else:
        # dumbbell: two loops joined by a bar
        bar = (trip[big] - rest) / 2
        graph = MetricRibbonGraph(
            sigma=[1, 2, 0, 4, 5, 3],
            iota=[1, 0, 5, 4, 3, 2],
            lengths={0: trip[others[0]], 2: bar, 3: trip[others[1]]},
        )
        # faces: (0,2,3,5)->big, (1)->first other, (4)->second other
        order = (big, *others)

    # face f carries input boundary order[f]
    face_order = tuple(order.index(k) for k in range(3))
    expected = tuple(trip[k] for k in order)
    if graph.perimeters() != expected:
        raise CrossCheckFailed(
            f"pants spine perimeters {_spell(graph.perimeters())} != "
            f"{_spell(expected)}")
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
        raise NonPositiveLength(f"boundary length {_spell(boundary_length)}")
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
