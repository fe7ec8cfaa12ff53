"""Horizontally periodic half-translation surfaces built over a spine.

A surface is a union of flat cylinders, one per curve of a multicurve
configuration.  Cylinder i is [0, l_i] x [0, h_i] with x taken mod l_i.
Its bottom boundary circle is tiled by the sides of one ribbon-graph
face, laid left to right in face-cycle order with the face's marked
corner (the corner before its least half-edge) at x = 0; the top circle
is tiled by the other glued face, laid right to left with its marked
corner at x = twist.  Edge identifications are then z -> z + c where the
two sides have opposite kinds (one bottom, one top) and z -> -z + c
where they have equal kinds; the latter are the holonomy -1 gluings.

Everything is kept in one of two arithmetic modes.  Exact mode stores
Fractions and tracks the geodesic flow symbolically through a scale
pair (scale_x, scale_y); numeric mode stores floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    BadIndex,
    InvalidSurface,
    ModeMismatch,
    NonPositiveHeight,
    OutOfRange,
)
from .ribbon import jointly_orientable, validate_assignment

EXACT = "exact"
NUMERIC = "numeric"

TOL = 1e-9


def _exact_number(value, what):
    if isinstance(value, float) or isinstance(value, bool):
        raise ModeMismatch(f"exact mode needs a rational {what}, got {value!r}")
    return Fraction(value)


def _convert(value, mode, what):
    if mode == EXACT:
        return _exact_number(value, what)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise OutOfRange(f"numeric mode needs a {what} that fits a float")
    return number


@dataclass(frozen=True)
class Side:
    """One occurrence of a half-edge on a cylinder boundary circle.

    x_tail is the x coordinate of the corner at v(half_edge): the left
    end of the side if kind == "bottom", the right end if kind == "top".
    Coordinates are effective (scale applied), normalized into [0, l).
    """

    piece: int
    half_edge: int
    curve: int
    kind: str
    x_tail: object
    length: object


@dataclass(frozen=True)
class CylinderLayout:
    curve: int
    length: object
    height: object
    twist: object
    bottom: tuple
    top: tuple


class FlatTwistSurface:
    """Immutable surface datum: (cfg, sa, heights, twists, mode, scale).

    Built by build_surface, which checks that sa fits cfg; lengths are
    the curve lengths that check returned.  glued_faces[i] holds the
    two faces (piece, face index) glued along curve i, bottom first.
    """

    def __init__(self, cfg, sa, heights, twists, mode, scale, lengths):
        self.cfg = cfg
        self.sa = sa
        self.mode = mode
        self.heights = tuple(heights)
        self.scale = tuple(scale)
        base = [_convert(l, mode, "length") for l in lengths]
        self.base_lengths = tuple(base)
        self.twists = tuple(t % l for t, l in zip(twists, base))
        face_of_slot = [{s: f for f, s in enumerate(fts)} for fts in sa.face_to_slot]
        self.glued_faces = tuple(
            tuple((p, face_of_slot[p][s]) for p, s in ends) for ends in cfg.gluing
        )
        self._layout = None
        self._side_index_cache = None

    # -- effective (scale-applied) data --------------------------------

    def length_of_curve(self, i):
        return self.scale[0] * self.base_lengths[i]

    def height_of_curve(self, i):
        return self.scale[1] * self.heights[i]

    def twist_of_curve(self, i):
        return self.scale[0] * self.twists[i]

    @property
    def n_curves(self):
        return self.cfg.n_curves

    def area(self):
        total = sum(l * h for l, h in zip(self.base_lengths, self.heights))
        return self.scale[0] * self.scale[1] * total

    @property
    def unit_area(self):
        if self.mode == EXACT:
            return self.area() == 1
        return abs(self.area() - 1.0) <= 1e-12

    @cached_property
    def orientability(self):
        """jointly_orientable(self), (flag, epsilon), computed once."""
        return jointly_orientable(self)

    def _replace(self, twists=None, scale=None):
        return FlatTwistSurface(
            self.cfg,
            self.sa,
            self.heights,
            self.twists if twists is None else twists,
            self.mode,
            self.scale if scale is None else scale,
            self.base_lengths,
        )

    # -- cylinder layout ------------------------------------------------

    def face_cycle(self, piece, face_index):
        return self.sa.graphs[piece].faces()[face_index]

    def layout(self):
        """Per-cylinder side tables, computed once."""
        if self._layout is None:
            self._layout = tuple(
                self._lay_out_cylinder(i) for i in range(self.n_curves)
            )
        return self._layout

    def _lay_out_cylinder(self, i):
        (p_bot, f_bot), (p_top, f_top) = self.glued_faces[i]
        ell = self.length_of_curve(i)
        twist = self.twist_of_curve(i)

        bottom = []
        x = ell * 0
        for h in self.face_cycle(p_bot, f_bot):
            length = self.scale[0] * _convert(
                self.sa.graphs[p_bot].length_of(h), self.mode, "length"
            )
            bottom.append(Side(p_bot, h, i, "bottom", x % ell, length))
            x = x + length

        top = []
        x = twist
        for h in self.face_cycle(p_top, f_top):
            length = self.scale[0] * _convert(
                self.sa.graphs[p_top].length_of(h), self.mode, "length"
            )
            top.append(Side(p_top, h, i, "top", x % ell, length))
            x = x - length

        return CylinderLayout(
            curve=i,
            length=ell,
            height=self.height_of_curve(i),
            twist=twist,
            bottom=tuple(bottom),
            top=tuple(top),
        )

    def side_of(self, piece, half_edge):
        """The Side record where (piece, half_edge) appears on a boundary."""
        if self._side_index_cache is None:
            index = {}
            for cyl in self.layout():
                for side in cyl.bottom + cyl.top:
                    index[(side.piece, side.half_edge)] = side
            self._side_index_cache = index
        return self._side_index_cache[(piece, half_edge)]

    @cached_property
    def _on_top(self):
        """Per piece, per half-edge: 1 if its side lies on a cylinder
        top, 0 on a bottom.  Read off glued_faces, without a layout."""
        table = [[0] * graph.n_half_edges for graph in self.sa.graphs]
        for _, (p, f) in self.glued_faces:
            for h in self.face_cycle(p, f):
                table[p][h] = 1
        return table

    def edge_flip(self, piece, half_edge):
        """1 if crossing this edge reverses orientation, else 0.

        The bit depends only on which glued faces ended up bottom versus
        top, so it is shared by both half-edges of the edge.
        """
        kinds = self._on_top[piece]
        iota = self.sa.graphs[piece].iota
        return 1 if kinds[half_edge] == kinds[iota[half_edge]] else 0


def build_surface(cfg, sa, heights, twists=None, normalize=False, mode=EXACT):
    """Assemble a FlatTwistSurface from spine data, heights and twists.

    This is where a (cfg, sa) pair is checked (validate_assignment) and
    resolved; everything downstream takes the surface it returns.
    """
    if mode not in (EXACT, NUMERIC):
        raise OutOfRange(f"mode must be {EXACT!r} or {NUMERIC!r}, got {mode!r}")
    lengths = validate_assignment(cfg, sa)
    n = cfg.n_curves
    heights = list(heights)
    if len(heights) != n:
        raise NonPositiveHeight(f"expected {n} heights, got {len(heights)}")
    heights = [_convert(h, mode, "height") for h in heights]
    for i, h in enumerate(heights):
        if h <= 0:
            raise NonPositiveHeight(f"height of curve {i} is {h}")
    if twists is None:
        twists = [0] * n
    twists = list(twists)
    if len(twists) != n:
        raise InvalidSurface(f"expected {n} twists, got {len(twists)}")
    twists = [_convert(t, mode, "twist") for t in twists]
    if normalize:
        total = sum(
            _convert(l, mode, "length") * h for l, h in zip(lengths, heights)
        )
        heights = [h / total for h in heights]
    one = Fraction(1) if mode == EXACT else 1.0
    return FlatTwistSurface(cfg, sa, heights, twists, mode, (one, one), lengths)


def area(q):
    """Flat area: scale_x * scale_y * sum of l_i * h_i."""
    return q.area()


def geodesic_flow(q, t):
    """Stretch horizontally, shrink vertically, preserving area.

    Numeric mode: t is a real time and the factor is e^t; a time that
    takes e^t or the scale out of the positive floats raises OutOfRange.
    Exact mode: t must itself be the positive rational factor standing
    in for e^t.
    """
    sx, sy = q.scale
    if q.mode == NUMERIC:
        try:
            factor = math.exp(float(t))
            scale = (sx * factor, sy / factor)
        except (OverflowError, ZeroDivisionError):
            scale = (math.inf, 0.0)
        if not all(0 < s < math.inf for s in scale):
            raise OutOfRange(f"geodesic time {t} moves the scale out of "
                             "the positive floats")
        return q._replace(scale=scale)
    factor = _exact_number(t, "geodesic scale factor")
    if factor <= 0:
        raise OutOfRange(f"geodesic scale factor must be positive: {factor}")
    return q._replace(scale=(sx * factor, sy / factor))


def horocycle_flow(q, s):
    """Shear: every twist advances by s * h_i, mod the circumference."""
    if q.mode == EXACT:
        s = _exact_number(s, "shear time")
    else:
        s = float(s)
    sx, sy = q.scale
    twists = [
        (tau + s * h * sy / sx) % l
        for tau, h, l in zip(q.twists, q.heights, q.base_lengths)
    ]
    return q._replace(twists=tuple(twists))


def cylinder_twist(q, i, s):
    """Shear a single cylinder; composing over all i gives horocycle_flow."""
    if not 0 <= i < q.n_curves:
        raise BadIndex(f"curve index {i} out of range 0..{q.n_curves - 1}")
    if q.mode == EXACT:
        s = _exact_number(s, "shear time")
    else:
        s = float(s)
    sx, sy = q.scale
    twists = list(q.twists)
    twists[i] = (twists[i] + s * q.heights[i] * sy / sx) % q.base_lengths[i]
    return q._replace(twists=tuple(twists))


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


# -- isomorphism ---------------------------------------------------------


def _eq(a, b, mode):
    if mode == EXACT:
        return a == b
    return abs(a - b) <= TOL


def _eq_mod(a, b, modulus, mode):
    d = (a - b) % modulus
    if mode == EXACT:
        return d == 0
    return min(d, modulus - d) <= TOL


def _ribbon_isos(g1, g2, scale1, scale2, mode):
    """All half-edge bijections g1 -> g2 commuting with sigma and iota
    and matching effective edge lengths.  Connectedness makes each one
    determined by the image of half-edge 0."""
    n = g1.n_half_edges
    if n != g2.n_half_edges:
        return
    sized1 = [scale1 * _convert(g1.length_of(h), mode, "length") for h in range(n)]
    sized2 = [scale2 * _convert(g2.length_of(h), mode, "length") for h in range(n)]
    for start in range(n):
        image = {0: start}
        queue = [0]
        ok = True
        while queue and ok:
            h = queue.pop()
            for nxt, nxt_img in (
                (g1.sigma[h], g2.sigma[image[h]]),
                (g1.iota[h], g2.iota[image[h]]),
            ):
                if nxt in image:
                    if image[nxt] != nxt_img:
                        ok = False
                        break
                else:
                    image[nxt] = nxt_img
                    queue.append(nxt)
        if not ok or len(image) != n or len(set(image.values())) != n:
            continue
        if all(_eq(sized1[h], sized2[image[h]], mode) for h, _ in g1.edges()):
            yield image


def _walk_offset(graph, face_index, half_edge, scale, mode):
    """Cumulative side length from the face's marked corner to the
    corner at v(half_edge), along the face cycle."""
    total = Fraction(0) if mode == EXACT else 0.0
    for h in graph.faces()[face_index]:
        if h == half_edge:
            return total
        total = total + scale * _convert(graph.length_of(h), mode, "length")
    raise BadIndex(f"half-edge {half_edge} not on face {face_index}")


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
            for iso in _ribbon_isos(
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
