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

The cover is built from combinatorics alone.  Each 2-cell's boundary
word is read off the two face cycles glued along its curve
(`q.glued_faces`, bottom face first), so no cylinder layout is needed,
and the 2-cells are stored as sparse columns.  The dense boundary
matrices are built only when `boundary_1()` or `boundary_2()` asks.

Homology questions run on integer coordinates built once per cover
(`HomologyCoordinates`, Eppstein's tree-cotree decomposition): a
breadth-first spanning forest T of the 1-skeleton, a spanning forest C
of the dual graph on the edges outside T, and the leftover edges, whose
fundamental cycles in T are a basis of H_1 over Z.  A cycle's
coordinates are read off after face boundaries clear it on C, so the
rank of the lifted classes, the deck involution on H_1 and the
intersection pairing all become small integer matrices.  Chains stay
sparse on this path: a core lift is checked closed from its edges' end
points, and the fundamental cycles come from the forest's parent
pointers.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import BadPartition, CrossCheckFailed, NonLiftable
from .ribbon import ParityUnionFind, co_orientable


def _require(ok, what):
    """Raise CrossCheckFailed when a check on the cell structure fails."""
    if not ok:
        raise CrossCheckFailed(f"cover cell structure: {what}")


class Letter(NamedTuple):
    """One step of a 2-cell boundary word.

    key names a base 1-cell; sign is the traversal direction; sheet_bit
    says which lift the letter uses in a sheet-s cell (s xor sheet_bit).
    """

    key: tuple
    sign: int
    sheet_bit: int


class BranchedDoubleCover:
    """Explicit two-sheeted branched cover of a FlatTwistSurface.

    Edge lift 2k + s and face lift 2i + s are the sheet-s lifts of base
    1-cell k and of cylinder i.  `_ends[r]` is the (tail, head) of edge
    lift r, `_face_cols[c]` the boundary of face lift c as a dict
    {edge lift: nonzero coefficient}, and `_sides[r]` the two face
    lifts on either side of edge lift r.
    """

    def __init__(self, q):
        self.surface = q
        cfg, sa = q.cfg, q.sa

        # -- base complex ------------------------------------------------
        self.base_vertices = [
            (p, v)
            for p, graph in enumerate(sa.graphs)
            for v in range(len(graph.vertices()))
        ]
        spine_edges = []
        self._flip_of = []  # [p][h]: the flip bit of half-edge h's edge
        for p, graph in enumerate(sa.graphs):
            bits = [0] * graph.n_half_edges
            for h, ih in graph.edges():
                spine_edges.append(("e", p, h))
                bits[h] = bits[ih] = q.edge_flip(p, h)
            self._flip_of.append(bits)
        cross_edges = [("d", i) for i in range(cfg.n_curves)]  # flip bit 0
        self.base_edges = spine_edges + cross_edges
        self._edge_index = {key: k for k, key in enumerate(self.base_edges)}

        self.words = [self._word(i) for i in range(cfg.n_curves)]

        v_base = len(self.base_vertices)
        e_base = len(self.base_edges)
        f_base = cfg.n_curves
        self.base_euler = v_base - e_base + f_base
        _require(self.base_euler == 2 - 2 * cfg.genus, "base Euler number")

        # -- corner orbits = cover vertices --------------------------------
        self._orbit_of = orbit_of = {}
        self.cover_vertices = []
        for p, graph in enumerate(sa.graphs):
            sigma, bits = graph.sigma, self._flip_of[p]
            for h in range(graph.n_half_edges):
                for s in (0, 1):
                    cur = (p, h, s)
                    if cur in orbit_of:
                        continue
                    vid = len(self.cover_vertices)
                    members = []
                    while cur not in orbit_of:
                        orbit_of[cur] = vid
                        members.append(cur)
                        _, ch, cs = cur
                        cur = (p, sigma[ch], cs ^ bits[ch])
                    _require(orbit_of[cur] == vid, "open corner orbit")
                    self.cover_vertices.append(tuple(members))

        self.branch_set = []
        for p, graph in enumerate(sa.graphs):
            for v, cycle in enumerate(graph.vertices()):
                parity = sum(self._flip_of[p][h] for h in cycle) % 2
                _require(parity == len(cycle) % 2, "flip parity vs valence")
                lifts = {self._orbit_of[(p, cycle[0], s)] for s in (0, 1)}
                _require(len(lifts) == (1 if parity else 2), "vertex lift count")
                if parity:
                    self.branch_set.append((p, v))

        # -- cover 1- and 2-cells ------------------------------------------
        # edge lift 2k + s; face lift 2i + s
        self.n_cover_edges = 2 * e_base
        self.n_cover_faces = 2 * f_base
        self._ends = [
            self._lift_endpoints(key, s) for key in self.base_edges for s in (0, 1)
        ]
        self._face_cols = []
        self._sides = [[] for _ in range(self.n_cover_edges)]
        for word in self.words:
            for s in (0, 1):
                col = len(self._face_cols)
                face = {}
                starts = []
                ends = []
                for letter in word:
                    row = 2 * self._edge_index[letter.key] + (s ^ letter.sheet_bit)
                    face[row] = face.get(row, 0) + letter.sign
                    self._sides[row].append(col)
                    tail, head = self._ends[row]
                    if letter.sign < 0:
                        tail, head = head, tail
                    starts.append(tail)
                    ends.append(head)
                # each step starts where the previous one (cyclically) ended
                _require(starts == ends[-1:] + ends[:-1],
                         "face word is not a closed walk")
                self._face_cols.append({r: x for r, x in face.items() if x})
        _require(all(len(f) == 2 for f in self._sides), "edge without two sides")

        euler_cover = (
            len(self.cover_vertices) - self.n_cover_edges + self.n_cover_faces
        )
        _require(euler_cover == 2 * self.base_euler - len(self.branch_set),
                 "cover Euler number")

        # -- deck involution ------------------------------------------------
        self.involution_vertices = [
            self._orbit_of[(p, h, 1 - s)]
            for members in self.cover_vertices
            for (p, h, s) in members[:1]
        ]

        # -- connectivity: a breadth-first spanning forest T ----------------
        adjacent = [[] for _ in self.cover_vertices]
        for r, (tail, head) in enumerate(self._ends):
            adjacent[tail].append((r, head))
            adjacent[head].append((r, tail))
        self._tree = _spanning_forest(adjacent)
        self.component_of = list(range(len(self.cover_vertices)))
        for v, parent, _ in self._tree:
            self.component_of[v] = self.component_of[parent]
        self.components = sorted(set(self.component_of))
        self.connected = len(self.components) == 1

    # -- construction helpers ---------------------------------------------

    def _edge_key(self, p, h):
        graph = self.surface.sa.graphs[p]
        return ("e", p, min(h, graph.iota[h]))

    def _word(self, i):
        """Boundary word of cylinder i: its bottom face cycle, the
        crossing edge up, its top face cycle, the crossing edge down."""
        q = self.surface
        (p_bot, f_bot), (p_top, f_top) = q.glued_faces[i]
        return (
            *(self._side_letter(p_bot, h) for h in q.face_cycle(p_bot, f_bot)),
            Letter(("d", i), 1, 0),
            *(self._side_letter(p_top, h) for h in q.face_cycle(p_top, f_top)),
            Letter(("d", i), -1, 0),
        )

    def _side_letter(self, p, h):
        key = self._edge_key(p, h)
        if h == key[2]:
            return Letter(key, 1, 0)
        return Letter(key, -1, self._flip_of[p][h])

    def _lift_endpoints(self, key, s):
        """(tail, head) cover-vertex ids of lift s of a base 1-cell."""
        if key[0] == "e":
            _, p, h = key
            ih = self.surface.sa.graphs[p].iota[h]
            return (
                self._orbit_of[(p, h, s)],
                self._orbit_of[(p, ih, s ^ self._flip_of[p][h])],
            )
        # from the bottom face's marked corner to the top face's
        q = self.surface
        (p_bot, f_bot), (p_top, f_top) = q.glued_faces[key[1]]
        return (
            self._orbit_of[(p_bot, q.face_cycle(p_bot, f_bot)[0], s)],
            self._orbit_of[(p_top, q.face_cycle(p_top, f_top)[0], s)],
        )

    # -- linear-algebra views ------------------------------------------------

    @cached_property
    def _d1(self):
        d1 = [[0] * self.n_cover_edges for _ in self.cover_vertices]
        for col, (tail, head) in enumerate(self._ends):
            d1[head][col] += 1
            d1[tail][col] -= 1
        return tuple(map(tuple, d1))

    @cached_property
    def _d2(self):
        d2 = [[0] * self.n_cover_faces for _ in range(self.n_cover_edges)]
        for col, face in enumerate(self._face_cols):
            for row, x in face.items():
                d2[row][col] = x
        return tuple(map(tuple, d2))

    def boundary_1(self):
        """d1 as a tuple of vertex rows, built on first call and shared
        afterwards; callers must not change it."""
        return self._d1

    def boundary_2(self):
        """d2 as a tuple of edge rows, built on first call and shared
        afterwards; callers must not change it."""
        return self._d2

    @cached_property
    def homology(self):
        """Tree-cotree coordinates on H_1, built on first use."""
        return HomologyCoordinates(self)

    def involution_on_edges(self, vector):
        """Push a 1-chain across the deck transformation."""
        return [vector[r ^ 1] for r in range(self.n_cover_edges)]

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
            for s in (0, 1):
                row = 2 * self._edge_index[word[0].key] + (s ^ word[0].sheet_bit)
                chi[self.component_of[self._ends[row][0]]] += 1
        for c in self.components:
            _require(chi[c] % 2 == 0, "odd Euler number of a component")
        return tuple(sorted((2 - chi[c]) // 2 for c in self.components))


def _spanning_forest(adjacent):
    """Breadth-first spanning forest of a graph given as adjacency lists
    of (edge, neighbour) pairs: (node, parent, edge) in visit order."""
    seen = [False] * len(adjacent)
    forest = []
    for root in range(len(adjacent)):
        if not seen[root]:
            seen[root] = True
            queue = [root]
            for v in queue:
                for r, w in adjacent[v]:
                    if not seen[w]:
                        seen[w] = True
                        forest.append((w, v, r))
                        queue.append(w)
    return forest


class HomologyCoordinates:
    """Integer coordinates on H_1 of a cover from a tree-cotree split.

    T is a breadth-first spanning forest of the 1-skeleton, and C a
    breadth-first spanning forest of the dual graph on the edges outside
    T (Eppstein, SODA 2003; Erickson-Whittlesey, SODA 2005).  An edge
    whose two sides lie on one face is a dual self-loop and stays out of
    C.  The leftover edges L, 2 g_hat per component, are the generators;
    `cycles[j]` is the fundamental cycle in T of `generators[j]`, and
    these classes form a basis of H_1 over Z.  Each cycle is found by
    walking parent pointers from the generator's two ends up to their
    common ancestor; `_supports[j]` keeps its nonzero entries, and the
    dense `cycles` are built from them on first use.
    """

    def __init__(self, cover):
        n_edges = cover.n_cover_edges
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
        self.n_edges = n_edges
        self.generators = [
            r for r in range(n_edges) if r not in in_tree and r not in in_cotree
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

    @cached_property
    def cycles(self):
        """The fundamental cycles as dense integer tuples."""
        cycles = []
        for support in self._supports:
            gamma = [0] * self.n_edges
            for r, x in support:
                gamma[r] = x
            cycles.append(tuple(gamma))
        return cycles

    def coords(self, z):
        """Coordinates of the class of the 1-cycle z in the `cycles` basis.

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

    def cocycle(self, j):
        """The 1-cocycle dual to generator j: 1 on its edge, 0 on T and
        on the other generators, and set on C leaves first so that it
        vanishes on every face.  It takes the value delta_jk on cycles[k].
        """
        alpha = [0] * self.n_edges
        alpha[self.generators[j]] = 1
        for f, c, sign in reversed(self._clearing):
            alpha[c] = -sign * sum(x * alpha[r] for r, x in self._faces[f])
        if any(sum(x * alpha[r] for r, x in face) for face in self._faces):
            raise CrossCheckFailed(f"dual of generator {j} is not a cocycle")
        return alpha


def holonomy_double_cover(q):
    """Build the two-sheeted cover orienting the horizontal line field."""
    return BranchedDoubleCover(q)


def cover_genus(cover):
    """Genus of a connected cover; per-component genera when split."""
    genera = cover.genus_of_components()
    if cover.connected:
        g = cover.surface.cfg.genus
        expected = 2 * g + len(cover.branch_set) // 2 - 1
        if genera[0] != expected:
            raise CrossCheckFailed(
                f"cover genus {genera[0]} from cells, {expected} from branching"
            )
        return genera[0]
    return genera


@dataclass(frozen=True)
class AntiInvariantH1:
    """Basis (as 1-chain vectors) of the (-1)-eigenspace of the deck
    involution on first homology."""

    dimension: int
    basis: tuple


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
        for letter in cover.words[i]:
            if letter.key[0] == "d":
                break  # the bottom walk ends at the crossing edge
            row = 2 * cover._edge_index[letter.key] + letter.sheet_bit
            lift[row] = lift.get(row, 0) + letter.sign
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
    holds the coordinates of iota(gamma_j).  Over Q, (1 - iota)/2
    projects H_1 onto the eigenspace, so its dimension is rank(I - M),
    and the basis is (1 - iota) gamma_j for the columns of I - M that
    raise the rank.

    Two cross-checks raise CrossCheckFailed when they disagree: the
    dimension must equal 2g_hat - rank(I + M), as it does for an
    involution; and, for a connected cover, Riemann-Hurwitz
    2 g_hat - 2 g.
    """
    homology = cover.homology
    minus = linalg.Echelon()
    basis = []
    plus = []
    for j, support in enumerate(homology._supports):
        flipped = [0] * cover.n_cover_edges  # iota(gamma_j)
        for r, x in support:
            flipped[r ^ 1] = x
        m = homology.coords(flipped)
        if minus.add([(i == j) - x for i, x in enumerate(m)]):
            anti = [-x for x in flipped]  # (1 - iota) gamma_j
            for r, x in support:
                anti[r] += x
            basis.append(tuple(anti))
        plus.append([(i == j) + x for i, x in enumerate(m)])

    dim = len(basis)
    check = len(homology.generators) - linalg.rank(plus)
    if dim != check:
        raise CrossCheckFailed(
            f"anti-invariant dimension {dim}, rank identity gives {check}"
        )
    if cover.connected:
        expected = 2 * cover_genus(cover) - 2 * cover.surface.cfg.genus
        if dim != expected:
            raise CrossCheckFailed(
                f"anti-invariant dimension {dim}, Riemann-Hurwitz gives {expected}"
            )
    return AntiInvariantH1(dimension=dim, basis=tuple(basis))


def relations_formula(q):
    """Closed form for the lifted-class span of the surface q:
    #curves - N_co + delta_jo.

    N_co counts the pieces whose arc system is co-orientable; delta_jo
    is 1 exactly when the whole surface is jointly orientable.
    """
    n_co = sum(1 for graph in q.sa.graphs if co_orientable(graph))
    jo, _ = q.orientability
    return q.n_curves - n_co + (1 if jo else 0)


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


def piece_preimage_connected(cover, p):
    """Whether the cover preimage of piece p's spine is connected."""
    graph = cover.surface.sa.graphs[p]
    vertices = {
        cover._orbit_of[(p, h, s)]
        for h in range(graph.n_half_edges)
        for s in (0, 1)
    }
    uf = ParityUnionFind(len(cover.cover_vertices))
    for h, _ in graph.edges():
        for s in (0, 1):
            uf.union(*cover._lift_endpoints(("e", p, h), s), 0)
    return len({uf.find(v)[0] for v in vertices}) == 1


# -- intersection pairing -------------------------------------------------


def _cup(cover, alpha, beta):
    """Cup product of two 1-cocycles on the fundamental class: the sum
    over the polygonal 2-cells of the cover."""
    total = 0
    for i, word in enumerate(cover.words):
        for s in (0, 1):
            rows = [2 * cover._edge_index[x.key] + (s ^ x.sheet_bit) for x in word]
            for a, (ra, la) in enumerate(zip(rows, word)):
                for rb, lb in zip(rows[a + 1:], word[a + 1:]):
                    total += la.sign * lb.sign * alpha[ra] * beta[rb]
                if la.sign < 0:
                    total += alpha[ra] * beta[ra]
    return total


def homology_cycle_basis(cover):
    """Cycles whose classes form a basis of H_1 of the cover: the
    tree-cotree fundamental cycles."""
    return [list(gamma) for gamma in cover.homology.cycles]


def intersection_matrix(cover, cycles):
    """Pairwise algebraic intersection numbers of the given 1-cycles.

    Computed through the cup product on the cocycles dual to the
    tree-cotree generators; the global sign depends on orientation
    conventions and is consistent across entries.
    """
    homology = cover.homology
    dim = len(homology.cycles)
    c_basis = [homology.cocycle(j) for j in range(dim)]

    cup_matrix = [[_cup(cover, a, b) for b in c_basis] for a in c_basis]
    # the cocycles evaluate to the identity on the generators, so
    # PD(gamma_j) = sum_k lambda_kj alpha_k with C^T Lambda = I, and the
    # pairing Lambda^T C Lambda on the generators is Lambda itself
    lam = linalg.solve_square(
        [[cup_matrix[k][l] for k in range(dim)] for l in range(dim)],
        [[int(i == j) for i in range(dim)] for j in range(dim)],
    )
    coords = [homology.coords(z) for z in cycles]
    return [
        [
            sum(
                coords[a][i] * lam[j][i] * coords[b][j]
                for i in range(dim)
                for j in range(dim)
            )
            for b in range(len(cycles))
        ]
        for a in range(len(cycles))
    ]
