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
pair (scale_x, scale_y); numeric mode stores floats.  A surface
converts and checks its own numbers: every surface, whether built, a
flowed or sheared copy, or a copy in the other mode, passes through
FlatTwistSurface's constructor, which holds the one rule.
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
    _spell,
)
from .ribbon import jointly_orientable, validate_assignment

EXACT = "exact"
NUMERIC = "numeric"


def _exact_number(value, what):
    if type(value) is Fraction:
        return value  # immutable, so it needs no copy
    if isinstance(value, float) or isinstance(value, bool):
        raise ModeMismatch(f"exact mode needs a rational {what}, got {value!r}")
    return Fraction(value)


def _convert(value, mode, what, positive=False):
    """value in mode.  In numeric mode it must be a finite float, and,
    if positive, one above 0.0: an exact length or scale is positive,
    but as a float it may round to 0.0.  Exact mode takes any rational."""
    if mode == EXACT:
        return _exact_number(value, what)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise OutOfRange(f"numeric mode needs a {what} that fits a float")
    if positive and number <= 0:
        raise OutOfRange(
            f"numeric mode needs a {what} that stays positive as a float")
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
    length: object
    height: object
    bottom: tuple
    top: tuple


class FlatTwistSurface:
    """Immutable surface datum: (cfg, sa, heights, twists, mode, scale).

    Built by build_surface, which checks that sa fits cfg; lengths are
    the curve lengths that check returned.  glued_faces[i] holds the
    two faces (piece, face index) glued along curve i, bottom first.

    The constructor converts the heights, twists, scale and lengths to
    mode and checks them, for a build and for every copy alike: each
    height is positive in mode (NonPositiveHeight); in numeric mode each
    number is a finite float and the scale and the lengths stay above
    0.0 (OutOfRange).  Exact lengths are positive by the spine checks,
    and an exact scale by geodesic_flow's factor check.  Twists are
    stored mod the curve length.
    """

    def __init__(self, cfg, sa, heights, twists, mode, scale, lengths):
        self.cfg = cfg
        self.sa = sa
        self.mode = mode
        heights = [_convert(h, mode, "height") for h in heights]
        for i, h in enumerate(heights):
            if h <= 0:
                raise NonPositiveHeight(f"height of curve {i} is {_spell(h)}")
        self.heights = tuple(heights)
        self.scale = tuple([_convert(s, mode, "scale", positive=True) for s in scale])
        base = [_convert(l, mode, "length", positive=True) for l in lengths]
        self.base_lengths = tuple(base)
        twists = [_convert(t, mode, "twist") for t in twists]
        # an exact twist in [0, l) is kept as it is; a float always takes
        # %, which also turns -0.0 into +0.0
        exact = mode == EXACT
        self.twists = tuple(t if exact and 0 <= t < l else t % l
                            for t, l in zip(twists, base))
        face_of_slot = [{s: f for f, s in enumerate(fts)} for fts in sa.face_to_slot]
        self.glued_faces = tuple(
            tuple((p, face_of_slot[p][s]) for p, s in ends) for ends in cfg.gluing
        )

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
        """Flat area: scale_x * scale_y * sum of l_i * h_i."""
        total = sum(l * h for l, h in zip(self.base_lengths, self.heights))
        return self.scale[0] * self.scale[1] * total

    @cached_property
    def orientability(self):
        """jointly_orientable(self), (flag, epsilon), computed once."""
        return jointly_orientable(self)

    def _replace(self, twists=None, scale=None, mode=None, heights=None):
        """A copy with new heights, twists or scale, or in another mode;
        the constructor converts and checks its numbers, but the spines
        are not validated again."""
        return FlatTwistSurface(
            self.cfg,
            self.sa,
            self.heights if heights is None else heights,
            self.twists if twists is None else twists,
            mode or self.mode,
            self.scale if scale is None else scale,
            self.base_lengths,
        )

    # -- cylinder layout ------------------------------------------------

    def face_cycle(self, piece, face_index):
        return self.sa.graphs[piece].faces()[face_index]

    @cached_property
    def layout(self):
        """Per-cylinder side tables, computed once."""
        return tuple(self._lay_out_cylinder(i) for i in range(self.n_curves))

    def _lay_out_cylinder(self, i):
        ell = self.length_of_curve(i)
        circles = []
        # the bottom runs left to right from 0, the top right to left
        # from the twist
        for (p, f), kind, x, step in zip(
                self.glued_faces[i], ("bottom", "top"),
                (ell * 0, self.twist_of_curve(i)), (1, -1)):
            sides = []
            for h in self.face_cycle(p, f):
                length = self.scale[0] * _convert(
                    self.sa.graphs[p].length_of(h), self.mode,
                    "spine edge length", positive=True)
                sides.append(Side(p, h, i, kind, x % ell, length))
                x = x + step * length
            circles.append(tuple(sides))
        return CylinderLayout(ell, self.height_of_curve(i), *circles)

    def side_of(self, piece, half_edge):
        """The Side record where (piece, half_edge) appears on a boundary."""
        return self._side_index[(piece, half_edge)]

    @cached_property
    def _side_index(self):
        return {
            (side.piece, side.half_edge): side
            for cyl in self.layout
            for side in cyl.bottom + cyl.top
        }

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
    resolved; everything downstream takes the surface it returns.  The
    counts of heights and twists are checked here; the numbers
    themselves are converted and checked by the surface it builds.
    normalize divides the heights by the area, in a copy.
    """
    if mode not in (EXACT, NUMERIC):
        raise OutOfRange(f"mode must be {EXACT!r} or {NUMERIC!r}, got {mode!r}")
    lengths = validate_assignment(cfg, sa)
    n = cfg.n_curves
    heights = list(heights)
    if len(heights) != n:
        raise NonPositiveHeight(f"expected {n} heights, got {len(heights)}")
    twists = [0] * n if twists is None else list(twists)
    if len(twists) != n:
        raise InvalidSurface(f"expected {n} twists, got {len(twists)}")
    one = Fraction(1) if mode == EXACT else 1.0
    q = FlatTwistSurface(cfg, sa, heights, twists, mode, (one, one), lengths)
    if normalize:
        total = q.area()
        q = q._replace(heights=[h / total for h in q.heights])
    return q


def geodesic_flow(q, t):
    """Stretch horizontally, shrink vertically, preserving area.

    Numeric mode: t is a real time and the factor is e^t; the copy
    refuses a scale that leaves the positive floats (OutOfRange).
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
        return q._replace(scale=scale)
    factor = _exact_number(t, "geodesic scale factor")
    if factor <= 0:
        raise OutOfRange(f"geodesic scale factor must be positive: {_spell(factor)}")
    return q._replace(scale=(sx * factor, sy / factor))


def horocycle_flow(q, s):
    """Shear: every twist advances by s * h_i, mod the circumference."""
    return _shear(q, range(q.n_curves), s)


def cylinder_twist(q, i, s):
    """Shear a single cylinder; composing over all i gives horocycle_flow."""
    if not 0 <= i < q.n_curves:
        raise BadIndex(f"curve index {i} out of range 0..{q.n_curves - 1}")
    return _shear(q, (i,), s)


def _shear(q, curves, s):
    """Advance the twist of each listed curve by s * h_i, mod l_i."""
    # converted before the product: a huge exact time on a float
    # surface would raise OverflowError inside it
    s = _convert(s, q.mode, "shear time")
    sx, sy = q.scale
    twists = list(q.twists)
    for i in curves:
        twists[i] = (twists[i] + s * q.heights[i] * sy / sx) % q.base_lengths[i]
    return q._replace(twists=tuple(twists))
