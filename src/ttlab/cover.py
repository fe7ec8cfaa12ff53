"""Orientation double cover of the horizontal line field, as a CW pair.

The base CW structure on the surface has the spine vertices as 0-cells,
the spine edges plus one crossing edge per cylinder as 1-cells, and the
cylinders (cut along their crossing edges) as 2-cells.  Crossing an edge
whose two sides lie on equal boundary kinds (both bottoms or both tops)
reverses the horizontal orientation; those flip bits define a Z/2
cocycle, and the cover glues two sheets of every cell along it.

Vertices of the cover are orbits of corner transitions: the corner
before side h (at the tail vertex v(h)) moves to the corner before side
sigma(h), changing sheet by the flip bit of h's edge.  Going all the way
around a vertex composes to the identity sheet exactly when the valence
is even, so the branch set is the set of odd-valence vertices.

The builder runs on flat integer tables.  Half-edges are numbered
across pieces (piece offset plus h), each with its flip bit and its
letter; corner 2x + s is the corner before half-edge x on sheet s, and
the corner transitions form one permutation of the corners, whose
orbits `ribbon._orbits` (the routine behind the spine's vertices and
faces) reads off: the corner orbits fill one list indexed by corner.
A letter (2k, sign, sheet_bit) names base 1-cell k, the direction it
is crossed in, and which of its lifts the step uses, so every cell of
the cover is read off by integer indexing.

The cover is built from combinatorics alone.  Each 2-cell's boundary
word is read off the two face cycles glued along its curve
(`q.glued_faces`, bottom face first), so no cylinder layout is needed,
and the 2-cells are stored as sparse columns.  No dense boundary
matrix is ever built.

Homology questions run on integer coordinates built once per cover
(`HomologyCoordinates`, Eppstein's tree-cotree decomposition): a
breadth-first spanning forest T of the 1-skeleton, a spanning forest C
of the dual graph on the edges outside T, and the leftover edges, whose
fundamental cycles in T are a basis of H_1 over Z.  A cycle's
coordinates are read off after face boundaries clear it on C, so the
rank of the lifted classes and the deck involution on H_1 become small
integer matrices.  Chains stay
sparse on this path: a core lift is checked closed from its edges' end
points, and the fundamental cycles come from the forest's parent
pointers.

The anti-invariant part of H_1 needs no elimination.  The deck
involution's matrix M is checked to square to the identity, so its
eigenvalues are +-1 and the (-1)-eigenspace has dimension
(2 g_hat - tr M) / 2.  By Lefschetz, tr M = 2 - #branch points on a
connected cover, so that number is also 2 g_hat - 2 g (Riemann-Hurwitz),
which the cell count checks independently.
"""

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import BadPartition, CrossCheckFailed, NonLiftable
from .ribbon import _orbits, co_orientable
from .topology import _spanning_forest


def _require(ok, what):
    """Raise CrossCheckFailed when a check on the cell structure fails."""
    if not ok:
        raise CrossCheckFailed(f"cover cell structure: {what}")


class BranchedDoubleCover:
    """Explicit two-sheeted branched cover of a FlatTwistSurface.

    Half-edge h of piece p is numbered `_offset[p] + h` globally, and
    the corner before it on sheet s is corner 2 (_offset[p] + h) + s;
    `_orbit[c]` is the cover vertex of corner c, and
    `cover_vertices[v]` the first corner of vertex v.  Edge lift
    2k + s and face lift 2i + s are the sheet-s lifts of base 1-cell k
    (the spine edges piece by piece, then one crossing edge per curve)
    and of cylinder i.  `words[i]` is cylinder i's boundary word, one
    (2k, sign, sheet_bit) letter per step, whose lift in a sheet-s cell
    is edge lift 2k + (s ^ sheet_bit); its first `bottom_lengths[i]`
    letters are the bottom walk.  `_ends[r]` is the (tail, head) of
    edge lift r, `_face_cols[c]` the boundary of face lift c as a dict
    {edge lift: nonzero coefficient}, and `_sides[r]` the two face
    lifts on either side of edge lift r.
    """

    def __init__(self, q):
        self.surface = q
        cfg, graphs = q.cfg, q.sa.graphs

        # -- base complex, on global half-edges ----------------------------
        # per half-edge: the flip bit of its edge and its letter, of sign
        # +1 on the smaller half-edge of the edge; per corner 2x + s, the
        # corner 2 sigma(x) + (s ^ flip) it moves to
        self._offset = []
        flip, letter, corner = [], [], []
        spine = []  # the two half-edges of spine edge k, smaller first
        v_base = 0
        for p, graph in enumerate(graphs):
            off = len(flip)
            self._offset.append(off)
            flip += [0] * graph.n_half_edges
            letter += [None] * graph.n_half_edges
            for h, ih in graph.edges():
                bit = q.edge_flip(p, h)
                flip[off + h] = flip[off + ih] = bit
                letter[off + h] = (2 * len(spine), 1, 0)
                letter[off + ih] = (2 * len(spine), -1, bit)
                spine.append((off + h, off + ih))
            for t, bit in zip(graph.sigma, flip[off:]):
                c = 2 * (off + t) + bit
                corner += (c, c ^ 1)
            v_base += len(graph.vertices())
        self._letter = letter

        # Cylinder i: its bottom face cycle, the crossing edge up, its
        # top face cycle, the crossing edge down.
        self.words = []
        self.bottom_lengths = []
        marked = []  # the marked corners' half-edges, bottom and top
        for i, glued in enumerate(q.glued_faces):
            bottom, top = (
                [self._offset[p] + h for h in graphs[p].faces()[f]]
                for p, f in glued
            )
            d = 2 * (len(spine) + i)
            self.words.append((
                *[letter[x] for x in bottom], (d, 1, 0),
                *[letter[x] for x in top], (d, -1, 0),
            ))
            self.bottom_lengths.append(len(bottom))
            marked.append((bottom[0], top[0]))

        self.base_euler = v_base - len(spine)
        _require(self.base_euler == 2 - 2 * cfg.genus, "base Euler number")

        # -- corner orbits = cover vertices --------------------------------
        # the corner map is a bijection, so every orbit closes
        cycles, orbit = _orbits(corner)
        self._orbit = orbit
        self.cover_vertices = [cycle[0] for cycle in cycles]

        self.branch_set = []
        for p, graph in enumerate(graphs):
            off = self._offset[p]
            for v, cycle in enumerate(graph.vertices()):
                parity = sum(flip[off + h] for h in cycle) % 2
                _require(parity == len(cycle) % 2, "flip parity vs valence")
                c = 2 * (off + cycle[0])
                _require((orbit[c] == orbit[c + 1]) == parity, "vertex lift count")
                if parity:
                    self.branch_set.append((p, v))

        # -- cover 1- and 2-cells ------------------------------------------
        # edge lift 2k + s; face lift 2i + s
        self.n_cover_edges = 2 * (len(spine) + cfg.n_curves)
        self.n_cover_faces = 2 * cfg.n_curves
        # lift s of a spine edge runs from its smaller half-edge's
        # corner to the other's; a crossing edge from the bottom face's
        # marked corner to the top face's
        self._ends = ends = []
        for x, ix in spine:
            bit = flip[x]
            ends.append((orbit[2 * x], orbit[2 * ix + bit]))
            ends.append((orbit[2 * x + 1], orbit[2 * ix + 1 - bit]))
        for b, t in marked:
            ends.append((orbit[2 * b], orbit[2 * t]))
            ends.append((orbit[2 * b + 1], orbit[2 * t + 1]))
        self._face_cols = []
        self._sides = sides = [[] for _ in ends]
        for word in self.words:
            for s in (0, 1):
                col = len(self._face_cols)
                face = {}
                # each step starts where the previous one (cyclically)
                # ended; a step of sign -1 runs from head to tail
                k2, sign, bit = word[-1]
                at = ends[k2 + (s ^ bit)][sign > 0]
                closed = True
                for k2, sign, bit in word:
                    row = k2 + (s ^ bit)
                    face[row] = face.get(row, 0) + sign
                    sides[row].append(col)
                    tail_head = ends[row]
                    closed = closed and tail_head[sign < 0] == at
                    at = tail_head[sign > 0]
                _require(closed, "face word is not a closed walk")
                self._face_cols.append({r: x for r, x in face.items() if x})
        _require(all(len(f) == 2 for f in self._sides), "edge without two sides")

        euler_cover = (
            len(self.cover_vertices) - self.n_cover_edges + self.n_cover_faces
        )
        _require(euler_cover == 2 * self.base_euler - len(self.branch_set),
                 "cover Euler number")

        # -- connectivity: a breadth-first spanning forest T ----------------
        adjacent = [[] for _ in self.cover_vertices]
        for r, (tail, head) in enumerate(ends):
            adjacent[tail].append((r, head))
            adjacent[head].append((r, tail))
        self._tree = _spanning_forest(adjacent)
        self.component_of = list(range(len(self.cover_vertices)))
        for v, parent, _ in self._tree:
            self.component_of[v] = self.component_of[parent]
        self.components = sorted(set(self.component_of))
        self.connected = len(self.components) == 1

    @cached_property
    def homology(self):
        """Tree-cotree coordinates on H_1, built on first use."""
        return HomologyCoordinates(self)

    def genus_of_components(self):
        """Genus of each cover component, sorted (computed once)."""
        return list(self._genera)

    @cached_property
    def _genera(self):
        chi = dict.fromkeys(self.components, 0)
        for c in self.component_of:
            chi[c] += 1
        for tail, _ in self._ends:
            chi[self.component_of[tail]] -= 1
        for word in self.words:
            k2, _, bit = word[0]
            for s in (0, 1):
                chi[self.component_of[self._ends[k2 + (s ^ bit)][0]]] += 1
        for c in self.components:
            _require(chi[c] % 2 == 0, "odd Euler number of a component")
        return tuple(sorted((2 - chi[c]) // 2 for c in self.components))


class HomologyCoordinates:
    """Integer coordinates on H_1 of a cover from a tree-cotree split.

    T is a breadth-first spanning forest of the 1-skeleton, and C a
    breadth-first spanning forest of the dual graph on the edges outside
    T (Eppstein, SODA 2003; Erickson-Whittlesey, SODA 2005).  An edge
    whose two sides lie on one face is a dual self-loop and stays out of
    C.  The leftover edges L, 2 g_hat per component, are the generators;
    the fundamental cycles in T of the generators form a basis of H_1
    over Z.  Each cycle is found by walking parent pointers from the
    generator's two ends up to their common ancestor, and
    `_supports[j]` keeps the nonzero entries of the j-th.
    """

    def __init__(self, cover):
        # step[v]: (parent, tree edge, its sign on the path from v up)
        step = {}
        depth = [0] * len(cover.cover_vertices)
        for v, parent, r in cover._tree:
            step[v] = (parent, r, 1 if cover._ends[r][0] == v else -1)
            depth[v] = depth[parent] + 1
        in_tree = {r for _, _, r in cover._tree}
        dual = [[] for _ in range(cover.n_cover_faces)]
        for r, (f, g) in enumerate(cover._sides):
            if f != g and r not in in_tree:
                dual[f].append((r, g))
                dual[g].append((r, f))
        # (face, its cotree edge to its parent, its coefficient there),
        # parents before children
        self._clearing = [
            (f, r, cover._face_cols[f][r]) for f, _, r in _spanning_forest(dual)
        ]
        self._faces = [list(col.items()) for col in cover._face_cols]
        in_cotree = {r for _, r, _ in self._clearing}
        self.generators = [
            r for r in range(cover.n_cover_edges)
            if r not in in_tree and r not in in_cotree
        ]
        self._supports = []
        for e in self.generators:
            # e from tail to head, then from head up to the common
            # ancestor and down to tail
            chain = {e: 1}
            tail, head = cover._ends[e]
            while head != tail:
                if depth[head] >= depth[tail]:
                    head, r, x = step[head]
                    chain[r] = x
                else:
                    tail, r, x = step[tail]
                    chain[r] = -x
            self._supports.append(tuple(chain.items()))

    def coords(self, z):
        """Coordinates of the class of the 1-cycle z in the basis of
        fundamental cycles.

        Face boundaries, taken in the cotree's breadth-first order, clear
        z on C (each face has coefficient +-1 on its parent edge); what is
        left on L is the answer.  Raises CrossCheckFailed when z is not a
        cycle, that is when z minus its expansion is not zero.
        """
        z = list(z)
        for f, c, sign in self._clearing:
            k = z[c] * sign
            if k:
                for r, x in self._faces[f]:
                    z[r] -= k * x
        out = [z[e] for e in self.generators]
        for x, support in zip(out, self._supports):
            if x:
                for r, y in support:
                    z[r] -= x * y
        if any(z):
            raise CrossCheckFailed("chain is not a cycle of the cover")
        return out


def holonomy_double_cover(q):
    """Build the two-sheeted cover orienting the horizontal line field."""
    return BranchedDoubleCover(q)


def cover_genus(cover):
    """Genus of a connected cover; per-component genera when split.

    Raises CrossCheckFailed when the cell count disagrees with the
    branching: 2g + #branch points/2 - 1 for a connected cover, two
    unbranched copies of the base for a disconnected one.
    """
    genera = cover.genus_of_components()
    g = cover.surface.cfg.genus
    if cover.connected:
        expected = 2 * g + len(cover.branch_set) // 2 - 1
        if genera[0] != expected:
            raise CrossCheckFailed(
                f"cover genus {genera[0]} from cells, {expected} from branching"
            )
        return genera[0]
    if genera != [g, g] or cover.branch_set:
        raise CrossCheckFailed(
            f"disconnected cover of genera {genera} with "
            f"{len(cover.branch_set)} branch points; expected two copies of genus {g}"
        )
    return genera


@dataclass(frozen=True)
class AntiInvariantH1:
    """The (-1)-eigenspace of the deck involution on first homology,
    by its dimension: the trace count (2 g_hat - tr M) / 2."""

    dimension: int


def lifted_curve_classes(cover, cfg):
    """Anti-invariant classes of the lifted cylinder core circles.

    The core circle of cylinder i is homotopic to its bottom boundary
    walk; its sheet-0 lift is a closed 1-cycle, and the class returned
    is that lift minus its deck image.  The lift is checked closed from
    its edges' end points, in time linear in the walk; NonLiftable is
    raised when it is not.
    """
    classes = []
    for i in range(cfg.n_curves):
        lift = {}
        for k2, sign, bit in cover.words[i][:cover.bottom_lengths[i]]:
            lift[k2 + bit] = lift.get(k2 + bit, 0) + sign
        boundary = {}
        for row, x in lift.items():
            tail, head = cover._ends[row]
            boundary[head] = boundary.get(head, 0) + x
            boundary[tail] = boundary.get(tail, 0) - x
        if any(boundary.values()):
            raise NonLiftable(f"core circle of curve {i} does not lift closed")
        hat = [0] * cover.n_cover_edges
        for row, x in lift.items():
            hat[row] += x
            hat[row ^ 1] -= x
        classes.append(tuple(hat))
    return classes


def rank_lower_bound(cover, cfg):
    """dim of the span of the lifted classes in cover homology, exactly:
    the rank of their integer tree-cotree coordinates."""
    coords = cover.homology.coords
    return linalg.rank([coords(c) for c in lifted_curve_classes(cover, cfg)])


def h1_anti_invariant(cover):
    """The (-1)-eigenspace of the deck involution on H_1 of the cover.

    In the tree-cotree coordinates of `HomologyCoordinates`, the deck
    involution is the integer 2g_hat x 2g_hat matrix M whose column j
    holds the coordinates of iota(gamma_j); its columns are kept sparse.
    M^2 = I is checked column by column.  It makes M diagonalisable over
    Q with eigenvalues +-1, so the (-1)-eigenspace has dimension
    (2g_hat - tr M)/2, the Lefschetz count: tr M = 2 - #branch points on
    a connected cover.

    CrossCheckFailed is raised when M^2 != I, when 2g_hat - tr M is odd,
    or when the dimension disagrees with the cell count: 2g_hat - 2g by
    Riemann-Hurwitz on a connected cover, 2g on a disconnected one.
    """
    homology = cover.homology
    columns = []
    for support in homology._supports:
        flipped = [0] * cover.n_cover_edges  # iota(gamma_j)
        for r, x in support:
            flipped[r ^ 1] = x
        columns.append([(i, x) for i, x in enumerate(homology.coords(flipped)) if x])
    trace = 0
    for j, column in enumerate(columns):
        square = {}  # column j of M^2
        for i, x in column:
            if i == j:
                trace += x
            for k, y in columns[i]:
                square[k] = square.get(k, 0) + x * y
        if {k: y for k, y in square.items() if y} != {j: 1}:
            raise CrossCheckFailed(f"deck involution: M^2 != I in column {j}")
    excess = len(columns) - trace
    if excess % 2:
        raise CrossCheckFailed(f"deck involution: 2g_hat - tr M = {excess} is odd")
    dim = excess // 2
    g = cover.surface.cfg.genus
    expected = 2 * cover_genus(cover) - 2 * g if cover.connected else 2 * g
    if dim != expected:
        raise CrossCheckFailed(
            f"anti-invariant dimension {dim}, Riemann-Hurwitz gives {expected}"
        )
    return AntiInvariantH1(dimension=dim)


def relations_formula(q):
    """Closed form for the lifted-class span of the surface q:
    #curves - N_co + delta_jo.

    N_co counts the pieces whose arc system is co-orientable; delta_jo
    is 1 exactly when the whole surface is jointly orientable.
    """
    return _counting_terms(q)[0]


def _counting_terms(q):
    """(#curves - N_co + delta_jo, N_co, delta_jo): relations_formula
    with the two counts a certificate reports."""
    n_co = sum(1 for graph in q.sa.graphs if co_orientable(graph))
    delta_jo = 1 if q.orientability[0] else 0
    return q.n_curves - n_co + delta_jo, n_co, delta_jo


def stratum_rank(g, kappa, epsilon):
    """Rank of the ambient stratum locus: g when the differential is an
    abelian square, else g + (#odd entries)/2 - 1."""
    kappa = list(kappa)
    if sum(kappa) != 4 * g - 4:
        raise BadPartition(f"sum of kappa = {sum(kappa)}, expected {4 * g - 4}")
    if epsilon not in (1, -1):
        raise BadPartition(f"epsilon must be +-1, got {epsilon!r}")
    n_odd = sum(1 for k in kappa if k % 2)
    if epsilon == 1:
        if n_odd:
            raise BadPartition("abelian squares have even cone orders only")
        return g
    return g + n_odd // 2 - 1
