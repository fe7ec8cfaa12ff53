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

All homology is over the rationals with exact integer boundary maps.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import BadPartition, CrossCheckFailed, NonLiftable
from .ribbon import ParityUnionFind, co_orientable, jointly_orientable


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
        assert self.base_euler == 2 - 2 * cfg.genus

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
                    assert self._orbit_of[cur] == vid
                    self.cover_vertices.append(tuple(members))

        self.branch_set = []
        for p, graph in enumerate(sa.graphs):
            for v, cycle in enumerate(graph.vertices()):
                parity = sum(
                    self.flip[self._edge_key(p, h)] for h in cycle
                ) % 2
                assert parity == len(cycle) % 2
                lifts = {self._orbit_of[(p, cycle[0], s)] for s in (0, 1)}
                assert len(lifts) == (1 if parity else 2)
                if parity:
                    self.branch_set.append((p, v))

        # -- cover 1- and 2-cells ------------------------------------------
        # edge lift 2k + s; face lift 2i + s
        self.n_cover_edges = 2 * e_base
        self.n_cover_faces = 2 * f_base
        self._d1 = [
            [0] * self.n_cover_edges for _ in range(len(self.cover_vertices))
        ]
        for k, key in enumerate(self.base_edges):
            for s in (0, 1):
                tail, head = self._lift_endpoints(key, s)
                col = 2 * k + s
                self._d1[head][col] += 1
                self._d1[tail][col] -= 1

        self._d2 = [[0] * self.n_cover_faces for _ in range(self.n_cover_edges)]
        for i in range(f_base):
            for s in (0, 1):
                col = 2 * i + s
                prev_end = None
                first_start = None
                for letter in self.words[i]:
                    row = 2 * self._edge_index[letter.key] + (s ^ letter.sheet_bit)
                    self._d2[row][col] += letter.sign
                    tail, head = self._lift_row_endpoints(row)
                    start, end = (tail, head) if letter.sign > 0 else (head, tail)
                    if first_start is None:
                        first_start = start
                    else:
                        assert prev_end == start
                    prev_end = end
                assert prev_end == first_start

        euler_cover = (
            len(self.cover_vertices) - self.n_cover_edges + self.n_cover_faces
        )
        assert euler_cover == 2 * self.base_euler - len(self.branch_set)

        # -- deck involution ------------------------------------------------
        self.involution_vertices = [
            self._orbit_of[(p, h, 1 - s)]
            for members in self.cover_vertices
            for (p, h, s) in members[:1]
        ]

        # -- connectivity ----------------------------------------------------
        uf = ParityUnionFind(len(self.cover_vertices))
        for key in self.base_edges:
            for s in (0, 1):
                uf.union(*self._lift_endpoints(key, s), 0)
        self.component_of = [
            uf.find(v)[0] for v in range(len(self.cover_vertices))
        ]
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

    def _lift_row_endpoints(self, row):
        key = self.base_edges[row // 2]
        return self._lift_endpoints(key, row % 2)

    # -- linear-algebra views ------------------------------------------------

    def boundary_1(self):
        return [list(row) for row in self._d1]

    def boundary_2(self):
        return [list(row) for row in self._d2]

    def involution_on_edges(self, vector):
        """Push a 1-chain across the deck transformation."""
        out = [0] * self.n_cover_edges
        for k in range(len(self.base_edges)):
            out[2 * k] = vector[2 * k + 1]
            out[2 * k + 1] = vector[2 * k]
        return out

    def genus_of_components(self):
        """Genus of each cover component, sorted."""
        counts = {c: [0, 0, 0] for c in self.components}
        for v in range(len(self.cover_vertices)):
            counts[self.component_of[v]][0] += 1
        for k, key in enumerate(self.base_edges):
            for s in (0, 1):
                tail, _ = self._lift_endpoints(key, s)
                counts[self.component_of[tail]][1] += 1
        for i in range(self.n_cover_faces // 2):
            for s in (0, 1):
                row = 2 * self._edge_index[self.words[i][0].key] + (
                    s ^ self.words[i][0].sheet_bit
                )
                tail, _ = self._lift_row_endpoints(row)
                counts[self.component_of[tail]][2] += 1
        genera = []
        for c in self.components:
            v, e, f = counts[c]
            chi = v - e + f
            assert chi % 2 == 0
            genera.append((2 - chi) // 2)
        return sorted(genera)


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
        boundary = [0] * len(cover.cover_vertices)
        for row, coeff in enumerate(bar):
            if coeff:
                tail, head = cover._lift_row_endpoints(row)
                boundary[head] += coeff
                boundary[tail] -= coeff
        if any(boundary):
            raise NonLiftable(f"core circle of curve {i} does not lift closed")
        classes.append(tuple(
            b - c for b, c in zip(bar, cover.involution_on_edges(bar))
        ))
    return classes


def _boundary_columns(cover):
    return [list(col) for col in zip(*cover._d2)]


def rank_lower_bound(cover, cfg):
    """dim of the span of the lifted classes in cover homology, exactly."""
    return linalg.span_dimension_mod(
        lifted_curve_classes(cover, cfg), _boundary_columns(cover)
    )


def h1_anti_invariant(cover):
    """The (-1)-eigenspace of the deck involution on H_1 of the cover.

    Over Q, (1 - iota)/2 projects H_1 onto this eigenspace, so the basis
    is read off from one reduction: the classes (1 - iota) z, for z in a
    basis of the cycles ker d1, are added one by one to an echelon basis
    of the boundaries im d2, and those that raise its rank are kept.

    Two cross-checks raise CrossCheckFailed when they disagree: the
    dimension must equal nz - rank([(1 + iota) Z | B]), the solutions of
    (1 + iota) z in im d2 counted modulo boundaries; and, for a connected
    cover, Riemann-Hurwitz 2 g_hat - 2 g.
    """
    kernel = linalg.nullspace(cover.boundary_1())
    boundaries = _boundary_columns(cover)
    reduced = linalg.Echelon(boundaries)
    basis = []
    plus = []
    for z in kernel:
        flipped = cover.involution_on_edges(z)
        minus = tuple(a - b for a, b in zip(z, flipped))
        if reduced.add(minus):
            basis.append(minus)
        plus.append([a + b for a, b in zip(z, flipped)])

    lifted = tuple(lifted_curve_classes(cover, cover.surface.cfg))
    dim = len(basis)
    check = len(kernel) - linalg.rank_of_stack(plus, boundaries)
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


def relations_formula(cfg, sa):
    """Closed form for the lifted-class span: #curves - N_co + delta_jo.

    N_co counts the pieces whose arc system is co-orientable; delta_jo
    is 1 exactly when the whole surface is jointly orientable.
    """
    n_co = sum(1 for graph in sa.graphs if co_orientable(graph))
    jo, _ = jointly_orientable(cfg, sa)
    return cfg.n_curves - n_co + (1 if jo else 0)


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


def _cup_value(word_letters, row_of, alpha, beta):
    """Cup product of two 1-cochains on one polygonal 2-cell."""
    rows = [row_of(letter) for letter in word_letters]
    signs = [letter.sign for letter in word_letters]
    total = Fraction(0)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            total += signs[i] * signs[j] * alpha[rows[i]] * beta[rows[j]]
        if signs[i] < 0:
            total += alpha[rows[i]] * beta[rows[i]]
    return total


def homology_cycle_basis(cover):
    """Cycles whose classes form a basis of H_1 of the cover."""
    reduced = linalg.Echelon(_boundary_columns(cover))
    return [z for z in linalg.nullspace(cover.boundary_1()) if reduced.add(z)]


def intersection_matrix(cover, cycles):
    """Pairwise algebraic intersection numbers of the given 1-cycles.

    Computed through the cup product on the dual basis; the global sign
    depends on orientation conventions and is consistent across entries.
    """
    n_edges = cover.n_cover_edges
    boundaries = _boundary_columns(cover)
    h_basis = homology_cycle_basis(cover)
    dim = len(h_basis)

    # cocycle basis: kernel of transposed d2, independent mod im(d1^T)
    coboundaries = linalg.Echelon(cover._d1)
    c_basis = [a for a in linalg.nullspace(boundaries) if coboundaries.add(a)]
    if len(c_basis) != dim:
        raise CrossCheckFailed(
            f"{len(c_basis)} cohomology classes against {dim} homology classes"
        )

    def row_of(letter, s):
        return 2 * cover._edge_index[letter.key] + (s ^ letter.sheet_bit)

    def cup(alpha, beta):
        total = Fraction(0)
        for i in range(cover.n_cover_faces // 2):
            for s in (0, 1):
                total += _cup_value(
                    cover.words[i], lambda letter: row_of(letter, s), alpha, beta
                )
        return total

    cup_matrix = [[cup(a, b) for b in c_basis] for a in c_basis]
    eval_matrix = [
        [sum(a[r] * z[r] for r in range(n_edges)) for z in h_basis]
        for a in c_basis
    ]
    # PD(c_j) = sum_k lambda_kj alpha_k with C^T Lambda = E
    lam = linalg.solve_square(
        [[cup_matrix[k][l] for k in range(dim)] for l in range(dim)],
        [[eval_matrix[l][j] for l in range(dim)] for j in range(dim)],
    )
    # pairing on the h_basis classes: Lambda^T C Lambda
    form = [
        [
            sum(
                lam[i][k] * cup_matrix[k][l] * lam[j][l]
                for k in range(dim)
                for l in range(dim)
            )
            for j in range(dim)
        ]
        for i in range(dim)
    ]

    # coordinates of the requested cycles in the homology basis
    coords = []
    for z in cycles:
        cols = [list(b) for b in h_basis] + [list(b) for b in boundaries]
        stacked = [
            [cols[c][row] for c in range(len(cols))] + [z[row]]
            for row in range(n_edges)
        ]
        sol = linalg.nullspace(stacked)
        pick = None
        for vec in sol:
            if vec[-1] != 0:
                pick = [-v / vec[-1] for v in vec[:dim]]
                break
        if pick is None:
            raise CrossCheckFailed("cycle not in the homology lattice")
        coords.append(pick)

    return [
        [
            sum(
                coords[a][i] * form[i][j] * coords[b][j]
                for i in range(dim)
                for j in range(dim)
            )
            for b in range(len(cycles))
        ]
        for a in range(len(cycles))
    ]
