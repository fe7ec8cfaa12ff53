from fractions import Fraction

import pytest

from ttlab.errors import (
    BadIndex,
    InvalidSurface,
    ModeMismatch,
    NonPositiveHeight,
    OutOfRange,
)
from ttlab.probe import run_probe
from ttlab.ribbon import pants_assignment
from ttlab.rng import CounterRandom
from ttlab.surface import (
    NUMERIC,
    build_surface,
    cylinder_twist,
    geodesic_flow,
    horocycle_flow,
)
from ttlab.topology import enumerate_pants_configs

from oracles import horizontal_period_data, is_isomorphic, unit_area
from test_ribbon import nabla_assignment, theta_assignment
from test_topology import SEPARATING, TWO_PANTS

F = Fraction


def theta_surface(heights=(1, F(1, 2), 2), twists=None, mode="exact"):
    return build_surface(
        TWO_PANTS, theta_assignment(), heights, twists, mode=mode
    )


def separating_surface(heights=(1, 1, 1), twists=None):
    sa = nabla_assignment(SEPARATING, (2, 2))
    return build_surface(SEPARATING, sa, heights, twists)


def test_area_is_length_dot_height():
    q = theta_surface()
    # curve lengths are (3, 4, 5)
    assert q.area() == 3 * 1 + 4 * F(1, 2) + 5 * 2


def test_normalize_gives_unit_area():
    q = build_surface(
        TWO_PANTS, theta_assignment(), (1, 1, 1), normalize=True
    )
    assert q.area() == 1
    assert unit_area(q)
    assert q.heights == (F(1, 12), F(1, 12), F(1, 12))


def test_bad_heights_rejected():
    with pytest.raises(NonPositiveHeight):
        theta_surface(heights=(1, 0, 1))
    with pytest.raises(NonPositiveHeight):
        theta_surface(heights=(1, -2, 1))
    with pytest.raises(NonPositiveHeight):
        theta_surface(heights=(1, 1))


def test_the_counts_and_the_mode_name_are_checked_first():
    with pytest.raises(OutOfRange):
        theta_surface(mode="float")
    with pytest.raises(InvalidSurface):
        theta_surface(twists=(0, 0))
    # the counts come before the numbers they hold
    with pytest.raises(InvalidSurface):
        theta_surface(heights=(1, -2, 1), twists=(0, 0))


def test_exact_mode_rejects_floats():
    with pytest.raises(ModeMismatch):
        theta_surface(heights=(1.0, 1, 1))
    with pytest.raises(ModeMismatch):
        theta_surface(twists=(0.5, 0, 0))


def test_twists_stored_mod_length():
    q = theta_surface(twists=(3 + F(1, 3), 4, 10))
    assert q.twists == (F(1, 3), 0, 0)
    q = theta_surface(twists=(-F(1, 3), F(5, 2), -4))
    assert q.twists == (F(8, 3), F(5, 2), 1)
    assert all(type(t) is Fraction for t in q.twists)


def test_numeric_negative_zero_twist_is_stored_as_zero():
    # -0.0 lies in [0, l), but the stored twist is -0.0 % l, which is +0.0
    q = theta_surface(twists=(-0.0, 0.5, -0.0), mode="numeric")
    assert [t.hex() for t in q.twists] == [
        (0.0).hex(), (0.5).hex(), (0.0).hex()]


def test_full_twist_is_isomorphic_to_untwisted():
    q0 = theta_surface(twists=(0, 0, 0))
    q1 = theta_surface(twists=(3, 4, 5))
    assert is_isomorphic(q0, q1)


def test_geodesic_flow_scales_exactly():
    q = theta_surface(twists=(1, 2, 3))
    g = geodesic_flow(q, F(2))
    for i in range(3):
        assert g.length_of_curve(i) == 2 * q.length_of_curve(i)
        assert g.height_of_curve(i) == q.height_of_curve(i) / 2
        assert g.twist_of_curve(i) == 2 * q.twist_of_curve(i)
    assert g.area() == q.area()
    back = geodesic_flow(g, F(1, 2))
    assert back.scale == (1, 1)
    assert back.twists == q.twists


def test_geodesic_flow_numeric_mode():
    import math

    q = theta_surface(heights=(1, 0.5, 2), mode="numeric")
    g = geodesic_flow(q, math.log(2))
    assert abs(g.length_of_curve(0) - 6.0) < 1e-12
    assert abs(g.height_of_curve(2) - 1.0) < 1e-12
    assert abs(g.area() - q.area()) <= 1e-12 * q.area()


def test_geodesic_flow_exact_mode_guards():
    q = theta_surface()
    with pytest.raises(ModeMismatch):
        geodesic_flow(q, 0.5)
    with pytest.raises(OutOfRange):
        geodesic_flow(q, 0)


def test_geodesic_flow_numeric_time_must_keep_a_float_scale():
    # e^t overflows, underflows to 0, or is not a number; each used to
    # escape as OverflowError or ZeroDivisionError
    q = theta_surface(heights=(1, 0.5, 2), mode="numeric")
    for t in (1000, F(10 ** 400), -1000, float("nan")):
        with pytest.raises(OutOfRange):
            geodesic_flow(q, t)
    # a scale that is finite on its own but not after the stretch
    far = geodesic_flow(q, 700)
    with pytest.raises(OutOfRange):
        geodesic_flow(far, 700)
    assert geodesic_flow(far, -700).scale[0] > 0


def test_horocycle_advances_twists_only():
    q = theta_surface(twists=(1, 1, 1))
    u = horocycle_flow(q, F(3, 2))
    assert u.heights == q.heights
    assert u.base_lengths == q.base_lengths
    # t_i + s*h_i mod l_i with h = (1, 1/2, 2), l = (3, 4, 5)
    assert u.twists == (
        (1 + F(3, 2)) % 3,
        (1 + F(3, 4)) % 4,
        (1 + 3) % 5,
    )
    assert horocycle_flow(u, -F(3, 2)).twists == q.twists


def test_cylinder_twists_compose_to_horocycle():
    q = theta_surface(twists=(2, 3, F(1, 7)))
    s = F(5, 3)
    step = q
    for i in range(3):
        step = cylinder_twist(step, i, s)
    assert step.twists == horocycle_flow(q, s).twists
    with pytest.raises(BadIndex):
        cylinder_twist(q, 3, 1)


def test_numeric_shear_time_must_be_a_finite_float():
    # these used to give NaN twists or escape as OverflowError
    q = theta_surface(heights=(1, 0.5, 2), mode="numeric")
    for s in (float("inf"), float("nan"), 10 ** 400):
        with pytest.raises(OutOfRange):
            horocycle_flow(q, s)
        with pytest.raises(OutOfRange):
            cylinder_twist(q, 0, s)
    assert horocycle_flow(q, 0.5).twists == cylinder_twist(
        cylinder_twist(cylinder_twist(q, 0, 0.5), 1, 0.5), 2, 0.5).twists
    with pytest.raises(ModeMismatch):
        horocycle_flow(theta_surface(), 0.5)


# exact numbers that numeric mode cannot hold: positive but 0.0 as a
# float, and past the largest float
TINY = F(1, 10 ** 400)
HUGE = F(10 ** 400)


def tiny_length_surface(mode="exact"):
    """Two pants glued along three curves of length 10^-400."""
    cfg = enumerate_pants_configs(2)[1]
    return build_surface(cfg, pants_assignment(cfg, (TINY,) * 3), (1, 1, 1),
                         mode=mode)


def numeric_theta():
    return theta_surface(heights=(1, 0.5, 2), mode="numeric")


def probe_copy(q):
    return run_probe(q, (0.0,), 1, 0, 1.0)


# every way a surface is made, with each number that numeric mode cannot
# hold that it can carry in; each used to escape as NaN, a surface with
# a zero or a Fraction in it, or ZeroDivisionError
REFUSALS = [
    # a curve length of 10^-400
    ("build numeric, tiny length", lambda: tiny_length_surface(NUMERIC),
     OutOfRange),
    ("mode copy, tiny length",
     lambda: tiny_length_surface()._replace(mode=NUMERIC), OutOfRange),
    ("probe, tiny length", lambda: probe_copy(tiny_length_surface()),
     OutOfRange),
    # a height of 10^-400
    ("build numeric, tiny height",
     lambda: theta_surface(heights=(TINY, 1, 1), mode=NUMERIC),
     NonPositiveHeight),
    ("mode copy, tiny height",
     lambda: theta_surface(heights=(TINY, 1, 1))._replace(mode=NUMERIC),
     NonPositiveHeight),
    ("probe, tiny height",
     lambda: probe_copy(theta_surface(heights=(TINY, 1, 1))),
     NonPositiveHeight),
    # a scale past the floats, or one that becomes 0.0
    ("scale copy, huge scale", lambda: numeric_theta()._replace(scale=(HUGE, 1)),
     OutOfRange),
    ("scale copy, tiny scale", lambda: numeric_theta()._replace(scale=(TINY, 1)),
     OutOfRange),
    ("geodesic flow, huge scale", lambda: geodesic_flow(numeric_theta(), 1000),
     OutOfRange),
    ("mode copy, huge scale",
     lambda: geodesic_flow(theta_surface(), HUGE)._replace(mode=NUMERIC),
     OutOfRange),
    ("probe, huge scale",
     lambda: probe_copy(geodesic_flow(theta_surface(), HUGE)), OutOfRange),
    # a shear advance past the floats
    ("horocycle flow, huge shear", lambda: horocycle_flow(numeric_theta(), 1e308),
     OutOfRange),
    ("cylinder twist, huge shear",
     lambda: cylinder_twist(numeric_theta(), 2, 1e308), OutOfRange),
    ("twists copy, huge twist",
     lambda: numeric_theta()._replace(twists=(HUGE, 0, 0)), OutOfRange),
    ("build numeric, huge twist",
     lambda: theta_surface(twists=(HUGE, 0, 0), mode=NUMERIC), OutOfRange),
]


@pytest.mark.parametrize("make, error", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_every_surface_refuses_a_number_numeric_mode_cannot_hold(make, error):
    with pytest.raises(error):
        make()


def test_exact_mode_holds_what_the_floats_cannot():
    assert tiny_length_surface().base_lengths == (TINY,) * 3
    assert theta_surface(heights=(TINY, 1, 1)).heights[0] == TINY
    assert geodesic_flow(theta_surface(), HUGE).scale == (HUGE, 1 / HUGE)
    sheared = horocycle_flow(theta_surface(), HUGE)
    assert all(type(t) is Fraction and 0 <= t < l
               for t, l in zip(sheared.twists, sheared.base_lengths))


def test_a_spine_edge_that_rounds_to_zero_is_refused():
    # the pants of curves 1, 2, 2 have boundary lengths (2, 1 + e, 1 + e),
    # so their theta spine has an edge of length e; the float layout used
    # to lay it out as 0.0, and the probe found a connection of length 0
    cfg = enumerate_pants_configs(2)[0]
    sa = pants_assignment(cfg, (1, 2, 1 + TINY))
    exact = build_surface(cfg, sa, (1, 1, 1))
    assert min(side.length for cyl in exact.layout for side in cyl.top) == TINY
    with pytest.raises(OutOfRange, match="spine edge length"):
        build_surface(cfg, sa, (1, 1, 1), mode=NUMERIC).layout
    with pytest.raises(OutOfRange, match="spine edge length"):
        probe_copy(exact)


def test_commutation_relation_on_twists():
    rng = CounterRandom(411, "commute")
    for case in range(20):
        heights = [rng.fraction() + 1 for _ in range(3)]
        twists = [rng.fraction() for _ in range(3)]
        q = theta_surface(heights=heights, twists=twists)
        lam = rng.fraction() + F(1, 2)
        s = rng.fraction() - rng.fraction()
        left = geodesic_flow(horocycle_flow(geodesic_flow(q, 1 / lam), s), lam)
        right = horocycle_flow(q, lam * lam * s)
        assert left.twists == right.twists, case
        assert left.scale == right.scale


def test_period_data_of_theta_surface():
    q = theta_surface(twists=(1, 2, 3))
    data = horizontal_period_data(q)
    # each piece is a theta graph with edge lengths {1, 2, 3}
    for p in range(2):
        lengths = sorted(
            data[("edge", p, h)][0]
            for h in (0, 1, 2)
        )
        assert lengths == [1, 2, 3]
        assert all(data[("edge", p, h)][1] == 0 for h in (0, 1, 2))
    assert data[("cross", 0)] == (1, 1)
    assert data[("cross", 1)] == (2, F(1, 2))
    assert data[("cross", 2)] == (3, 2)


def test_period_data_equivariance():
    q = theta_surface(twists=(1, 2, 3))
    u = horocycle_flow(q, F(1, 5))
    du = horizontal_period_data(u)
    dq = horizontal_period_data(q)
    for i in range(3):
        shift = F(1, 5) * q.heights[i]
        assert du[("cross", i)][0] == (dq[("cross", i)][0] + shift) % q.base_lengths[i]
        assert du[("cross", i)][1] == dq[("cross", i)][1]
    g = geodesic_flow(q, F(3))
    dg = horizontal_period_data(g)
    for key, (x, y) in dq.items():
        assert dg[key] == (3 * x, y / 3)


def _left_end(side, circumference):
    if side.kind == "top":
        return (side.x_tail - side.length) % circumference
    return side.x_tail


def test_layout_tiles_each_circle():
    for q in (theta_surface(twists=(1, 2, 3)), separating_surface()):
        seen = set()
        for cyl in q.layout:
            for sides in (cyl.bottom, cyl.top):
                assert sum(s.length for s in sides) == cyl.length
                intervals = sorted(
                    (_left_end(s, cyl.length), s.length) for s in sides
                )
                cursor = intervals[0][0]
                for start, length in intervals:
                    assert start == cursor
                    cursor = start + length
                assert cursor % cyl.length == intervals[0][0]
                for s in sides:
                    key = (s.piece, s.half_edge)
                    assert key not in seen
                    seen.add(key)
        assert len(seen) == sum(g.n_half_edges for g in q.sa.graphs)


def test_flip_bits():
    # both faces of every edge land on bottoms of cylinders here: piece 0
    # carries only bottom faces and piece 1 only top faces.
    q = theta_surface()
    for p in range(2):
        for h, _ in q.sa.graphs[p].edges():
            assert q.edge_flip(p, h) == 1
    # the separating surface self-glues each piece, mixing side kinds:
    # on piece 0 the big face is a bottom, on piece 1 it is a top
    q = separating_surface()
    assert q.edge_flip(0, 0) == 1  # loop (1) bottom, big face bottom
    assert q.edge_flip(0, 2) == 0  # big face bottom, loop (3) top
    assert q.edge_flip(1, 0) == 0  # big face top, loop (1) bottom
    assert q.edge_flip(1, 2) == 1  # big face top, loop (3) top


def test_isomorphic_to_itself_and_not_to_perturbation():
    q = theta_surface(twists=(1, 2, 3))
    assert is_isomorphic(q, q)
    shifted = theta_surface(twists=(1, 2, 3 + F(1, 7)))
    assert not is_isomorphic(q, shifted)
    taller = theta_surface(heights=(1, F(1, 2), F(5, 2)), twists=(1, 2, 3))
    assert not is_isomorphic(q, taller)


def test_not_isomorphic_across_spine_shapes():
    # theta spines have six half-edges, four-valent ones four
    theta = theta_surface()
    nabla = build_surface(TWO_PANTS, nabla_assignment(TWO_PANTS, (0, 0)), (1,) * 3)
    assert not is_isomorphic(theta, nabla)
    assert not is_isomorphic(nabla, theta)


def test_isomorphic_under_piece_swap():
    q1 = theta_surface(twists=(1, 2, 3))
    swapped_cfg = type(TWO_PANTS)(
        genus=2,
        pieces=TWO_PANTS.pieces,
        gluing=tuple(((1, s1), (0, s2)) for ((_, s1), (_, s2)) in TWO_PANTS.gluing),
    )
    q2 = build_surface(
        swapped_cfg, theta_assignment(), (1, F(1, 2), 2), (1, 2, 3)
    )
    assert is_isomorphic(q1, q2)


def test_isomorphic_under_cylinder_flip():
    # reversing a gluing pair presents the same cylinder upside down
    flipped = type(TWO_PANTS)(
        genus=2,
        pieces=TWO_PANTS.pieces,
        gluing=(
            (TWO_PANTS.gluing[0][1], TWO_PANTS.gluing[0][0]),
        ) + tuple(TWO_PANTS.gluing[1:]),
    )
    q1 = theta_surface(twists=(1, 2, 3))
    q2 = build_surface(
        flipped, theta_assignment(), (1, F(1, 2), 2), (1, 2, 3)
    )
    assert is_isomorphic(q1, q2)
    assert is_isomorphic(q2, q1)


def test_isomorphism_ignores_scale_bookkeeping():
    # a flowed surface equals one built directly from the scaled data
    q = theta_surface(heights=(1, F(1, 2), 2), twists=(1, 2, 3))
    flowed = geodesic_flow(q, F(2))
    rebuilt = build_surface(
        TWO_PANTS,
        theta_assignment(((6, 8, 10), (6, 8, 10))),
        (F(1, 2), F(1, 4), 1),
        (2, 4, 6),
    )
    assert is_isomorphic(flowed, rebuilt)
    assert is_isomorphic(rebuilt, flowed)
    assert not is_isomorphic(q, rebuilt)


def test_numeric_mode_tolerance():
    q1 = theta_surface(mode="numeric", twists=(1, 2, 3))
    q2 = build_surface(
        TWO_PANTS,
        theta_assignment(),
        (1 + 1e-12, 0.5, 2),
        (1, 2, 3),
        mode="numeric",
    )
    assert is_isomorphic(q1, q2)
    q3 = build_surface(
        TWO_PANTS,
        theta_assignment(),
        (1 + 1e-3, 0.5, 2),
        (1, 2, 3),
        mode="numeric",
    )
    assert not is_isomorphic(q1, q3)


def test_area_invariance_random_sweep():
    rng = CounterRandom(77, "area")
    for _ in range(25):
        heights = [rng.fraction() + F(1, 3) for _ in range(3)]
        twists = [rng.fraction() for _ in range(3)]
        q = theta_surface(heights=heights, twists=twists)
        a = q.area()
        assert geodesic_flow(q, rng.fraction() + 1).area() == a
        assert horocycle_flow(q, rng.fraction()).area() == a
