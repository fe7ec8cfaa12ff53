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

Homology questions run on integer coordinates built once per cover
(`HomologyCoordinates`, Eppstein's tree-cotree decomposition): a
breadth-first spanning forest T of the 1-skeleton, a spanning forest C
of the dual graph on the edges outside T, and the leftover edges, whose
fundamental cycles in T are a basis of H_1 over Z.  A cycle's
coordinates are read off after face boundaries clear it on C, so the
rank of the lifted classes, the deck involution on H_1 and the
intersection pairing all become small integer matrices.
"""

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import BadPartition, CrossCheckFailed, NonLiftable
from .ribbon import ParityUnionFind, co_orientable, jointly_orientable


def _require(ok, what):
    """Raise CrossCheckFailed when a check on the cell structure fails."""
    if not ok:
        raise CrossCheckFailed(f"cover cell structure: {what}")


@dataclass(frozen=True)
class Letter:
    """One step of a 2-cell boundary word.

    key names a base 1-cell; sign is the traversal direction; sheet_bit
    says which lift the letter uses in a sheet-s cell (s xor sheet_bit).
    """

    key: tuple
    sign: int
    sheet_bit: int


class BranchedDoubleCover:
    """Explicit two-sheeted branched cover of a FlatTwistSurface."""

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
        self.flip = {}
        for p, graph in enumerate(sa.graphs):
            for h, ih in graph.edges():
                key = ("e", p, h)
                spine_edges.append(key)
                self.flip[key] = q.edge_flip(p, h)
        cross_edges = [("d", i) for i in range(cfg.n_curves)]
        for key in cross_edges:
            self.flip[key] = 0
        self.base_edges = spine_edges + cross_edges
        self._edge_index = {key: k for k, key in enumerate(self.base_edges)}

        layout = q.layout()
        self.words = [self._word(layout[i]) for i in range(cfg.n_curves)]

        v_base = len(self.base_vertices)
        e_base = len(self.base_edges)
        f_base = cfg.n_curves
        self.base_euler = v_base - e_base + f_base
        _require(self.base_euler == 2 - 2 * cfg.genus, "base Euler number")

        # -- corner orbits = cover vertices --------------------------------
        self._orbit_of = {}
        self.cover_vertices = []
        for p, graph in enumerate(sa.graphs):
            for h in range(graph.n_half_edges):
                for s in (0, 1):
                    if (p, h, s) in self._orbit_of:
                        continue
                    vid = len(self.cover_vertices)
                    members = []
                    cur = (p, h, s)
                    while cur not in self._orbit_of:
                        self._orbit_of[cur] = vid
                        members.append(cur)
                        cp, ch, cs = cur
                        bit = self.flip[self._edge_key(cp, ch)]
                        cur = (cp, sa.graphs[cp].sigma[ch], cs ^ bit)
                    _require(self._orbit_of[cur] == vid, "open corner orbit")
                    self.cover_vertices.append(tuple(members))

        self.branch_set = []
        for p, graph in enumerate(sa.graphs):
            for v, cycle in enumerate(graph.vertices()):
                parity = sum(
                    self.flip[self._edge_key(p, h)] for h in cycle
                ) % 2
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
        d1 = [[0] * self.n_cover_edges for _ in self.cover_vertices]
        for col, (tail, head) in enumerate(self._ends):
            d1[head][col] += 1
            d1[tail][col] -= 1

        d2 = [[0] * self.n_cover_faces for _ in range(self.n_cover_edges)]
        self._sides = [[] for _ in range(self.n_cover_edges)]  # faces of an edge
        for i in range(f_base):
            for s in (0, 1):
                col = 2 * i + s
                walk = []
                for letter in self.words[i]:
                    row = 2 * self._edge_index[letter.key] + (s ^ letter.sheet_bit)
                    d2[row][col] += letter.sign
                    self._sides[row].append(col)
                    tail, head = self._ends[row]
                    walk.append((tail, head) if letter.sign > 0 else (head, tail))
                # each step starts where the previous one (cyclically) ended
                closed = all(walk[k - 1][1] == walk[k][0] for k in range(len(walk)))
                _require(closed, "face word is not a closed walk")
        _require(all(len(f) == 2 for f in self._sides), "edge without two sides")
        # read-only views: boundary_1 and boundary_2 hand these out as is
        self._d1 = tuple(map(tuple, d1))
        self._d2 = tuple(map(tuple, d2))

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

    def _word(self, cyl):
        letters = []
        for side in cyl.bottom:
            letters.append(self._side_letter(side))
        letters.append(Letter(("d", cyl.curve), 1, 0))
        for side in cyl.top:
            letters.append(self._side_letter(side))
        letters.append(Letter(("d", cyl.curve), -1, 0))
        return tuple(letters)

    def _side_letter(self, side):
        p, h = side.piece, side.half_edge
        key = self._edge_key(p, h)
        if h == key[2]:
            return Letter(key, 1, 0)
        return Letter(key, -1, self.flip[key])

    def _lift_endpoints(self, key, s):
        """(tail, head) cover-vertex ids of lift s of a base 1-cell."""
        if key[0] == "e":
            _, p, h = key
            ih = self.surface.sa.graphs[p].iota[h]
            return (
                self._orbit_of[(p, h, s)],
                self._orbit_of[(p, ih, s ^ self.flip[key])],
            )
        i = key[1]
        cyl = self.surface.layout()[i]
        b0 = cyl.bottom[0]
        u0 = cyl.top[0]
        return (
            self._orbit_of[(b0.piece, b0.half_edge, s)],
            self._orbit_of[(u0.piece, u0.half_edge, s)],
        )

    # -- linear-algebra views ------------------------------------------------

    def boundary_1(self):
        """d1 as a tuple of vertex rows; callers must not change it."""
        return self._d1

    def boundary_2(self):
        """d2 as a tuple of edge rows; callers must not change it."""
        return self._d2

    @cached_property
    def homology(self):
        """Tree-cotree coordinates on H_1, built on first use."""
        return HomologyCoordinates(self)

    def involution_on_edges(self, vector):
        """Push a 1-chain across the deck transformation."""
        return [vector[r ^ 1] for r in range(self.n_cover_edges)]

    def genus_of_components(self):
        """Genus of each cover component, sorted."""
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
        return sorted((2 - chi[c]) // 2 for c in self.components)


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
    these classes form a basis of H_1 over Z.
    """

    def __init__(self, cover):
        n_edges = cover.n_cover_edges
        # up[v]: the chain of the tree path from v to its root
        up = [[0] * n_edges for _ in cover.cover_vertices]
        for v, parent, r in cover._tree:
            up[v] = list(up[parent])
            up[v][r] = 1 if cover._ends[r][0] == v else -1
        in_tree = {r for _, _, r in cover._tree}
        dual = [[] for _ in range(cover.n_cover_faces)]
        for r, (f, g) in enumerate(cover._sides):
            if f != g and r not in in_tree:
                dual[f].append((r, g))
                dual[g].append((r, f))
        # (face, its cotree edge to its parent, its coefficient there),
        # parents before children
        self._clearing = [
            (f, r, cover._d2[r][f]) for f, _, r in _spanning_forest(dual)
        ]
        self._faces = [
            [(r, x) for r, x in enumerate(col) if x] for col in zip(*cover._d2)
        ]
        in_cotree = {r for _, r, _ in self._clearing}
        self.n_edges = n_edges
        self.generators = [
            r for r in range(n_edges) if r not in in_tree and r not in in_cotree
        ]
        self.cycles = []
        for e in self.generators:
            tail, head = cover._ends[e]
            gamma = [h - t for h, t in zip(up[head], up[tail])]
            gamma[e] += 1
            self.cycles.append(tuple(gamma))

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
        for x, gamma in zip(out, self.cycles):
            if x:
                z = [a - x * b for a, b in zip(z, gamma)]
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
    involution on first homology, with the lifted curve classes."""

    dimension: int
    basis: tuple
    lifted: tuple


def lifted_curve_classes(cover, cfg):
    """Anti-invariant classes of the lifted cylinder core circles.

    The core circle of cylinder i is homotopic to its bottom boundary
    walk; its sheet-0 lift is a closed 1-cycle, and the class returned
    is that lift minus its deck image.
    """
    classes = []
    for i in range(cfg.n_curves):
        bar = [0] * cover.n_cover_edges
        for letter in cover.words[i]:
            if letter.key[0] == "d":
                break  # the bottom walk ends at the crossing edge
            row = 2 * cover._edge_index[letter.key] + letter.sheet_bit
            bar[row] += letter.sign
        if any(sum(a * b for a, b in zip(row, bar)) for row in cover._d1):
            raise NonLiftable(f"core circle of curve {i} does not lift closed")
        classes.append(tuple(
            b - c for b, c in zip(bar, cover.involution_on_edges(bar))
        ))
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
    for j, gamma in enumerate(homology.cycles):
        flipped = cover.involution_on_edges(gamma)
        m = homology.coords(flipped)
        if minus.add([(i == j) - x for i, x in enumerate(m)]):
            basis.append(tuple(a - b for a, b in zip(gamma, flipped)))
        plus.append([(i == j) + x for i, x in enumerate(m)])

    lifted = tuple(lifted_curve_classes(cover, cover.surface.cfg))
    dim = len(basis)
    check = len(homology.cycles) - linalg.rank(plus)
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
    return AntiInvariantH1(dimension=dim, basis=tuple(basis), lifted=lifted)


def relations_formula(q):
    """Closed form for the lifted-class span of the surface q:
    #curves - N_co + delta_jo.

    N_co counts the pieces whose arc system is co-orientable; delta_jo
    is 1 exactly when the whole surface is jointly orientable.
    """
    n_co = sum(1 for graph in q.sa.graphs if co_orientable(graph))
    jo, _ = jointly_orientable(q)
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
