"""Second routes that only the tests take.

Each function here recomputes something `ttlab` computes another way,
or exposes a dense view the package never needs: the boundary matrices
of the double cover, the intersection form, an isomorphism test for
surfaces, rank over GF(2) by plain elimination, a phase-one simplex.
None of it is reached from the commands or the library API.
"""

import collections
import functools
from fractions import Fraction

from ttlab.errors import BadIndex, CrossCheckFailed
from ttlab.linalg import Echelon
from ttlab.ribbon import ribbon_isomorphisms
from ttlab.surface import EXACT, _convert

TOL = 1e-9

# -- linear algebra ------------------------------------------------------------


def solve_square(matrix, rhs_columns):
    """Solve M X = B for an invertible square M; returns X's columns.

    `rhs_columns` is a list of right-hand-side column vectors.
    Raises ValueError if M is singular.
    """
    n = len(matrix)
    k = len(rhs_columns)
    echelon = Echelon(
        list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)
    )
    if echelon.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # [M | B] (x, -e_c) = 0 is M x = b_c
    return [echelon.back_substitute([Fraction(0)] * n + [-int(j == c) for j in range(k)])[:n]
            for c in range(k)]


def rank_gf2(matrix):
    """Rank over GF(2) of an integer matrix given as a list of rows."""
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rows = []
    for row in matrix:
        packed = 0
        for x in row:
            packed = (packed << 1) | (x & 1)
        rows.append(packed)
    rank_ = 0
    for bit in range(ncols):
        mask = 1 << (ncols - 1 - bit)
        pivot = None
        for i in range(rank_, len(rows)):
            if rows[i] & mask:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(len(rows)):
            if i != rank_ and rows[i] & mask:
                rows[i] ^= rows[rank_]
        rank_ += 1
    return rank_


def ref_feasible_nonneg(matrix, rhs, ncols=None):
    """A nonnegative solution x of A x = b, or None when none exists.

    Phase-one simplex with Bland's rule throughout, on a tableau of
    Fractions, so it terminates on every input and never misjudges
    feasibility by rounding.  `ncols` is only needed when the system
    has no rows.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return [Fraction(0)] * ncols
    n = len(matrix[0])
    m = len(matrix)
    # tableau columns: the n unknowns, m artificials, right-hand side
    tab = []
    basis = []
    for i in range(m):
        row = [Fraction(x) for x in matrix[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(b)
        tab.append(row)
        basis.append(n + i)
    # reduced costs for minimizing the artificial sum; the last entry
    # tracks the negated objective value
    obj = [Fraction(0)] * (n + m + 1)
    for row in tab:
        for j, v in enumerate(row):
            obj[j] -= v
    for i in range(m):
        obj[n + i] = Fraction(0)
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        pivot_row = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], pivot_row)]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, pivot_row)]
        basis[leave] = enter
    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    return x


# -- ribbon graphs and surfaces --------------------------------------------------


def total_length(graph):
    """Sum of the edge lengths of a metric ribbon graph."""
    return sum(graph.lengths.values())


def unit_area(q):
    """Whether the surface has area 1 (to 1e-12 in numeric mode)."""
    if q.mode == EXACT:
        return q.area() == 1
    return abs(q.area() - 1.0) <= 1e-12


def horizontal_period_data(q):
    """Holonomy vectors of the horizontal presentation.

    Each spine edge maps to (its effective length, 0); each cylinder
    contributes one crossing saddle from bottom marked corner to top
    marked corner, with holonomy (effective twist, effective height).
    """
    zero = Fraction(0) if q.mode == EXACT else 0.0
    data = {}
    for p, graph in enumerate(q.sa.graphs):
        for h, _ in graph.edges():
            length = q.scale[0] * _convert(graph.length_of(h), q.mode, "length")
            data[("edge", p, h)] = (length, zero)
    for i in range(q.n_curves):
        data[("cross", i)] = (q.twist_of_curve(i), q.height_of_curve(i))
    return data


def _eq(a, b, mode):
    if mode == EXACT:
        return a == b
    return abs(a - b) <= TOL


def _eq_mod(a, b, modulus, mode):
    d = (a - b) % modulus
    if mode == EXACT:
        return d == 0
    return min(d, modulus - d) <= TOL


def _walk_offset(graph, face_index, half_edge, scale, mode):
    """Cumulative side length from the face's marked corner to the
    corner at v(half_edge), along the face cycle."""
    total = Fraction(0) if mode == EXACT else 0.0
    for h in graph.faces()[face_index]:
        if h == half_edge:
            return total
        total = total + scale * _convert(graph.length_of(h), mode, "length")
    raise BadIndex(f"half-edge {half_edge} not on face {face_index}")


def _sized_isos(g1, g2, scale1, scale2, mode):
    """The ribbon isomorphisms g1 -> g2 that match effective edge lengths."""
    sized1, sized2 = (
        [scale * _convert(g.length_of(h), mode, "length") for h in range(g.n_half_edges)]
        for g, scale in ((g1, scale1), (g2, scale2))
    )
    for iso in ribbon_isomorphisms(g1, g2):
        if all(_eq(sized1[h], sized2[iso[h]], mode) for h, _ in g1.edges()):
            yield iso


def _curve_match(q1, q2, piece_map, isos):
    """Extend piece-level ribbon isos to a full surface isomorphism."""
    curve_of_face = {}
    for j, (bottom, top) in enumerate(q2.glued_faces):
        curve_of_face[bottom] = (j, "bottom")
        curve_of_face[top] = (j, "top")

    used = set()
    for i, glued in enumerate(q1.glued_faces):
        ends = []
        for p, f in glued:
            h_min = q1.sa.graphs[p].faces()[f][0]
            h_img = isos[p][h_min]
            p_img = piece_map[p]
            f_img = q2.sa.graphs[p_img].face_of(h_img)
            hit = curve_of_face.get((p_img, f_img))
            if hit is None:
                return False
            ends.append((hit, p_img, f_img, h_img))
        (ja, kind_a), (jb, kind_b) = ends[0][0], ends[1][0]
        if ja != jb or kind_a == kind_b or ja in used:
            return False
        used.add(ja)
        j = ja
        if not _eq(q1.height_of_curve(i), q2.height_of_curve(j), q1.mode):
            return False
        # Walk offsets of the two marked-corner images, in whichever of
        # q2's faces each landed on; a bottom/top swap of the whole
        # cylinder keeps the twist value, so the congruence below covers
        # both kinds of match.
        off = q1.length_of_curve(i) * 0
        for (_, p_img, f_img, h_img) in ends:
            off = off + _walk_offset(
                q2.sa.graphs[p_img], f_img, h_img, q2.scale[0], q2.mode
            )
        if not _eq_mod(
            q2.twist_of_curve(j),
            q1.twist_of_curve(i) + off,
            q2.length_of_curve(j),
            q1.mode,
        ):
            return False
    return True


def is_isomorphic(q1, q2):
    """Whether some relabeling of pieces, half-edges and curves carries
    q1 onto q2, matching all effective lengths, heights and twists."""
    if q1.mode != q2.mode:
        return False
    if len(q1.sa.graphs) != len(q2.sa.graphs) or q1.n_curves != q2.n_curves:
        return False

    n_pieces = len(q1.sa.graphs)

    def assign(piece_map, isos):
        p = len(piece_map)
        if p == n_pieces:
            return _curve_match(q1, q2, piece_map, isos)
        for target in range(n_pieces):
            if target in piece_map.values():
                continue
            if q1.cfg.pieces[p] != q2.cfg.pieces[target]:
                continue
            for iso in _sized_isos(
                q1.sa.graphs[p],
                q2.sa.graphs[target],
                q1.scale[0],
                q2.scale[0],
                q1.mode,
            ):
                piece_map[p] = target
                isos[p] = iso
                if assign(piece_map, isos):
                    return True
                del piece_map[p]
                del isos[p]
        return False

    return assign({}, {})


# -- the double cover, densely -----------------------------------------------------

# The dense boundary maps are cached for the life of the test process,
# which keeps every cover they were asked about alive: about 14 MB for
# the acceptance sweep, whose fixture holds those covers anyway.


@functools.cache
def boundary_1(cover):
    """d1 of the cover as a tuple of vertex rows, built once per cover
    and shared afterwards; callers must not change it."""
    d1 = [[0] * cover.n_cover_edges for _ in cover.cover_vertices]
    for col, (tail, head) in enumerate(cover._ends):
        d1[head][col] += 1
        d1[tail][col] -= 1
    return tuple(map(tuple, d1))


@functools.cache
def boundary_2(cover):
    """d2 of the cover as a tuple of edge rows, built once per cover and
    shared afterwards; callers must not change it."""
    d2 = [[0] * cover.n_cover_faces for _ in range(cover.n_cover_edges)]
    for col, face in enumerate(cover._face_cols):
        for row, x in face.items():
            d2[row][col] = x
    return tuple(map(tuple, d2))


def involution_on_edges(cover, vector):
    """Push a 1-chain across the deck transformation."""
    return [vector[r ^ 1] for r in range(cover.n_cover_edges)]


def involution_vertices(cover):
    """The deck transformation on cover vertices, as a list of images:
    the image of a vertex holds the other sheet's copy of its first
    corner (corner 2x + s and corner 2x + 1 - s lie over one corner)."""
    return [cover._orbit[c ^ 1] for c in cover.cover_vertices]


def corner_orbit_faults(cover):
    """How the cover's vertex ids fail to be the corner orbits, as a
    list of messages, empty when they are.

    The corner map is recomputed here from the spines' rotations and
    the surface's flip bits: corner 2x + s, before half-edge x (piece
    offset plus h) on sheet s, goes to the corner before sigma(x) on
    sheet s ^ flip(x).  Every corner must share its id with its image,
    each id must be one orbit, and cover_vertices[v] must be the least
    corner of id v, in ascending order."""
    q, orbit = cover.surface, cover._orbit
    image = []
    for p, graph in enumerate(q.sa.graphs):
        off = len(image) // 2
        for h, t in enumerate(graph.sigma):
            bit = q.edge_flip(p, h)
            image += [2 * (off + t) + bit, 2 * (off + t) + 1 - bit]
    if len(orbit) != len(image):
        return [f"{len(orbit)} corner ids for {len(image)} corners"]
    faults = [f"corner {c} has id {orbit[c]}, its image {d} has id {orbit[d]}"
              for c, d in enumerate(image) if orbit[c] != orbit[d]]
    least, sizes = {}, collections.Counter(orbit)
    for c, v in enumerate(orbit):
        least.setdefault(v, c)
    if list(least) != list(range(len(least))):
        faults.append(f"ids not numbered by their least corners: {list(least)}")
    if list(cover.cover_vertices) != list(least.values()):
        faults.append(f"cover_vertices {list(cover.cover_vertices)} are not "
                      f"the least corners {list(least.values())}")
    for v, first in least.items():
        size, c = 1, image[first]
        while c != first:
            size, c = size + 1, image[c]
        if size != sizes[v]:
            faults.append(f"id {v} holds {sizes[v]} corners, "
                          f"the orbit of corner {first} {size}")
    return faults


def piece_preimage_connected(cover, p):
    """Whether the cover preimage of piece p's spine is connected, by a
    flood fill of its own: the package's forest is not used, so this
    route and co_orientable share no traversal."""
    graph = cover.surface.sa.graphs[p]
    off = cover._offset[p]
    corners = range(2 * off, 2 * (off + graph.n_half_edges))
    neighbours = {cover._orbit[c]: [] for c in corners}
    for h, _ in graph.edges():
        k2 = cover._letter[off + h][0]  # 2k for the base 1-cell k of h
        for s in (0, 1):
            a, b = cover._ends[k2 + s]
            neighbours[a].append(b)
            neighbours[b].append(a)
    start = cover._orbit[2 * off]
    reached = {start}
    stack = [start]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == len(neighbours)


def homology_cycle_basis(cover):
    """Dense cycles whose classes form a basis of H_1 of the cover: the
    tree-cotree fundamental cycles, in generator order."""
    cycles = []
    for support in cover.homology._supports:
        gamma = [0] * cover.n_cover_edges
        for r, x in support:
            gamma[r] = x
        cycles.append(gamma)
    return cycles


def anti_invariant_basis(cover):
    """The (-1)-eigenspace of the deck involution on H_1 of the cover by
    two eliminations, the route `h1_anti_invariant` took before it read
    the dimension off the trace.

    With M the deck involution in tree-cotree coordinates (column j the
    coordinates of iota(gamma_j)), (1 - iota)/2 projects H_1 onto the
    eigenspace over Q, so its dimension is rank(I - M).  Returns the
    dense chains (1 - iota) gamma_j for the columns of I - M that raise
    the rank; raises CrossCheckFailed unless their number is the rank
    identity's 2g_hat - rank(I + M).
    """
    homology = cover.homology
    minus = Echelon()
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
    check = len(homology.generators) - Echelon(plus).rank
    if len(basis) != check:
        raise CrossCheckFailed(
            f"anti-invariant dimension {len(basis)}, rank identity gives {check}"
        )
    return basis


def cocycle(cover, j):
    """The 1-cocycle dual to generator j: 1 on its edge, 0 on T and on
    the other generators, and set on C leaves first so that it vanishes
    on every face.  It takes the value delta_jk on the k-th fundamental
    cycle.
    """
    homology = cover.homology
    alpha = [0] * cover.n_cover_edges
    alpha[homology.generators[j]] = 1
    for f, c, sign in reversed(homology._clearing):
        alpha[c] = -sign * sum(x * alpha[r] for r, x in homology._faces[f])
    if any(sum(x * alpha[r] for r, x in face) for face in homology._faces):
        raise CrossCheckFailed(f"dual of generator {j} is not a cocycle")
    return alpha


def cup(cover, alpha, beta):
    """Cup product of two 1-cocycles on the fundamental class: the sum
    over the polygonal 2-cells of the cover."""
    total = 0
    for word in cover.words:
        for s in (0, 1):
            rows = [(k2 + (s ^ sheet_bit), sign) for k2, sign, sheet_bit in word]
            for a, (ra, sign_a) in enumerate(rows):
                for rb, sign_b in rows[a + 1:]:
                    total += sign_a * sign_b * alpha[ra] * beta[rb]
                if sign_a < 0:
                    total += alpha[ra] * beta[ra]
    return total


def intersection_matrix(cover, cycles):
    """Pairwise algebraic intersection numbers of the given 1-cycles.

    Computed through the cup product on the cocycles dual to the
    tree-cotree generators; the global sign depends on orientation
    conventions and is consistent across entries.
    """
    homology = cover.homology
    dim = len(homology.generators)
    c_basis = [cocycle(cover, j) for j in range(dim)]

    cup_matrix = [[cup(cover, a, b) for b in c_basis] for a in c_basis]
    # the cocycles evaluate to the identity on the generators, so
    # PD(gamma_j) = sum_k lambda_kj alpha_k with C^T Lambda = I, and the
    # pairing Lambda^T C Lambda on the generators is Lambda itself
    lam = solve_square(
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


# -- spin --------------------------------------------------------------------------


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


# -- the saddle search ----------------------------------------------------------------


# Exit edges of a triangle entered through edge in_e, in increasing
# edge order: edge in_e + 1 runs from the entry head b to the far
# corner w, edge in_e + 2 from w back to the entry tail a.
_EXITS = (((1, True), (2, False)),
          ((0, False), (2, True)),
          ((0, True), (1, False)))


def _state(t, in_e, sign):
    """Row index of triangle t entered through edge in_e under sign."""
    return 6 * t + 2 * in_e + (sign < 0)


def state_table(cx):
    """The saddle search's state table, built one state at a time.

    Each row applies the sign by multiplying with it, as the search
    once did in its loop, and takes the exits from _EXITS; the search
    builds the same rows in one pass.
    """
    table = []
    for t, pts in enumerate(cx.pts):
        vids = cx.vids[t]
        nbrs = cx.nbrs[t]
        for in_e in range(3):
            ia, ib, iw = in_e, (in_e + 1) % 3, (in_e + 2) % 3
            for sign in (1, -1):
                exits = []
                for e, from_b in _EXITS[in_e]:
                    t2, e2, s2, tx2, ty2 = nbrs[e]
                    exits.append((from_b, _state(t2, e2, sign * s2), t2,
                                  sign * tx2, sign * ty2))
                table.append((sign * pts[ia][0], sign * pts[ia][1],
                              sign * pts[ib][0], sign * pts[ib][1],
                              sign * pts[iw][0], sign * pts[iw][1],
                              vids[ia], vids[ib], vids[iw], tuple(exits)))
    return table
