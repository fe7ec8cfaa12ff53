import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ttlab import probe, ribbon
from ttlab.errors import NonPositiveHeight, OutOfRange, RadiusTooSmall
from ttlab.probe import (
    _CENSORED,
    _DROPPED,
    HIST_BINS,
    NARROW_RADIUS,
    PROBE_LABEL,
    ProbeReport,
    TimeStats,
    _measure_sample,
    ks_distance,
    run_probe,
)
from ttlab.ribbon import SpineAssignment, pants_assignment, single_vertex_graph
from ttlab.saddle import DEFAULT_CAP, saddle_connections_up_to
from ttlab.surface import NUMERIC, build_surface, geodesic_flow
from ttlab.topology import enumerate_pants_configs

from test_classify import GENERIC6, plumbing_pair, plumbing_ring
from test_cli import count_calls
from test_saddle import GENERIC12, GENUS5, ORIGAMI, REFERENCE_FAMILIES


def origami_inputs():
    graph = single_vertex_graph([3, 4, 5, 0, 1, 2], {0: 1, 1: 1, 2: 1})
    return ORIGAMI, SpineAssignment((graph,), ((0, 1),)), [1]


def small_probe(**kw):
    cfg, sa, heights = origami_inputs()
    args = dict(times=(0.0, 1.0), samples=25, seed=7, radius=1.2)
    args.update(kw)
    return run_probe(build_surface(cfg, sa, heights), **args)


def stats(values, censored=0, dropped=0, time=0.0):
    values = tuple(sorted(values))
    return TimeStats(
        time=time,
        kept=len(values),
        dropped=dropped,
        censored=censored,
        shortest=values,
        histogram=(0,) * HIST_BINS,
        mean_shortest=sum(values) / len(values) if values else 0.0,
        mean_count_le_1=0.0,
    )


# --- observable sanity ----------------------------------------------------------


def test_time_zero_is_a_point_mass():
    # without flow the shortest connection is the shortest horizontal
    # edge no matter the twists
    report = small_probe(times=(0.0,), samples=30)
    st = report.per_time[0]
    assert st.kept == 30 and st.dropped == 0 and st.censored == 0
    assert st.shortest == (1.0,) * 30
    assert st.mean_shortest == 1.0
    assert sum(1 for c in st.histogram if c) == 1


def test_probe_flows_once_per_time(monkeypatch):
    # the flow moves only the scale, so every sample of a time re-twists
    # one flowed surface
    calls = count_calls(monkeypatch, probe, "geodesic_flow")
    small_probe(times=(0.0, 0.5, 1.0), samples=4)
    assert [t for _, t in calls] == [0.0, 0.5, 1.0]


def test_probe_samples_the_surface_it_is_handed(monkeypatch):
    # an exact surface is converted to floats once, and nothing is
    # validated again: the report is the one its numeric build gives
    cfg, sa, heights = origami_inputs()
    exact = build_surface(cfg, sa, heights)
    numeric = build_surface(cfg, sa, heights, mode=NUMERIC)
    calls = count_calls(monkeypatch, ribbon, "validate_assignment")
    args = dict(times=(0.0, 1.0), samples=10, seed=7, radius=1.2)
    assert run_probe(exact, **args).text() == run_probe(numeric, **args).text()
    assert calls == []


def test_a_height_that_rounds_to_zero_as_a_float_is_refused():
    cfg, sa, _ = origami_inputs()
    q = build_surface(cfg, sa, [Fraction(1, 10 ** 400)])
    with pytest.raises(NonPositiveHeight):
        run_probe(q, times=(0.0,), samples=1, seed=0, radius=1)


def test_small_radius_censors_instead_of_dropping():
    report = small_probe(times=(0.0,), samples=10, radius=0.5)
    st = report.per_time[0]
    assert st.kept == 0
    assert st.censored == 10
    assert st.dropped == 0
    assert st.mean_shortest == 0.0


def test_exhausted_search_budget_drops_the_sample():
    # at T=0 the radius always holds the short edges, so the spent cap
    # is the only reason a sample can fail
    report = small_probe(times=(0.0,), samples=6, cap=0)
    st = report.per_time[0]
    assert st.dropped == 6
    assert st.kept == 0 and st.censored == 0


def test_spent_budget_with_nothing_found_drops_the_sample():
    # genus-5 pants at flow time 3 with a 300-placement budget: every
    # search is cut before it records a connection.  A cut search says
    # nothing about the radius, so each sample is dropped; with the full
    # budget half of them hold a connection inside the radius
    sa = pants_assignment(GENUS5, GENERIC12)
    heights = [1] * GENUS5.n_curves
    args = dict(times=(3.0,), samples=8, seed=3, radius=1.0)
    q = build_surface(GENUS5, sa, heights)
    (cut,) = run_probe(q, cap=300, **args).per_time
    assert (cut.kept, cut.dropped, cut.censored) == (0, 8, 0)
    (full,) = run_probe(q, **args).per_time
    assert (full.kept, full.dropped, full.censored) == (4, 0, 4)


def test_time_that_keeps_nothing_still_reports():
    # the same genus-5 pants and budget: every sample at times 2 and 4
    # is dropped.  Those times report kept = 0, and a KS entry with an
    # empty side prints as nan instead of the whole report being lost
    sa = pants_assignment(GENUS5, GENERIC12)
    q = build_surface(GENUS5, sa, [1] * GENUS5.n_curves)
    report = run_probe(q, times=(0.0, 2.0, 4.0), samples=6, seed=3,
                       radius=1.0, cap=300)
    assert [(st.kept, st.dropped) for st in report.per_time] == [(6, 0), (0, 6), (0, 6)]
    assert all(math.isnan(d) for d in report.ks)
    assert "\nks = nan, nan\n" in report.text()


def test_histogram_counts_every_kept_sample():
    report = small_probe(samples=40)
    for st in report.per_time:
        assert sum(st.histogram) == st.kept
        assert st.kept + st.dropped + st.censored == 40


# --- determinism ----------------------------------------------------------------


def test_identical_inputs_identical_bytes():
    a = small_probe()
    b = small_probe()
    assert a.text() == b.text()


def probe_digest(cfg, sa, **kw):
    text = run_probe(build_surface(cfg, sa, [1] * cfg.n_curves), **kw).text()
    return hashlib.sha256(text.encode()).hexdigest()


def test_pants_probe_golden_bytes():
    # the digests were taken with the path-copying search loop that
    # test_saddle keeps as _reference_search; a change to any float of
    # the search or to the probe's surface build shows up here
    cfg = enumerate_pants_configs(3)[0]
    sa = pants_assignment(cfg, GENERIC6)
    assert probe_digest(cfg, sa, times=(0.0, 1.0, 2.0, 3.0), samples=6,
                        seed=11, radius=1.0) == (
        "d3efcd5b016184fcbc6f57c0f180e2430c27f7fcc4f3cd90fc06cf0db59cdd8d")


def test_ring_probe_golden_bytes():
    cfg, sa = plumbing_ring(4)
    assert probe_digest(cfg, sa, times=(0.0, 2.0, 4.0), samples=3,
                        seed=5, radius=1.5) == (
        "6db2606c90af4213da0bf23beef243d5111202039cce04bdb7abc162ca4f6b56")


def test_fallback_probe_golden_bytes(monkeypatch):
    # genus-5 pants at radius 1.25, where the samples take every path of
    # _measure_sample: 13 of the 16 are answered by the search to
    # NARROW_RADIUS, one finds nothing <= 1 there and keeps the full
    # search's shortest, and two are censored by the full search.  The
    # digest was taken when every sample searched the full radius at once
    searches = []

    def recording(q, radius, cap):
        try:
            result = saddle_connections_up_to(q, radius, cap=cap)
        except RadiusTooSmall:
            searches.append((radius, None))
            raise
        searches.append((radius, result))
        return result

    monkeypatch.setattr(probe, "saddle_connections_up_to", recording)
    sa = pants_assignment(GENUS5, GENERIC12)
    assert probe_digest(GENUS5, sa, times=(0.0, 1.0, 2.0, 3.0), samples=4,
                        seed=3, radius=1.25) == (
        "0d90edfbea587acd1f31f4c3c2943a954b94f987f92d878e1d582a888f14a438")
    paths = Counter()
    for i, (radius, result) in enumerate(searches):
        if radius == NARROW_RADIUS:
            if result is not None and result[0].length <= 1.0:
                paths["narrow"] += 1
        else:
            # a full search only ever follows a narrow one that found
            # nothing <= 1
            assert radius == 1.25
            before = searches[i - 1]
            assert before[0] == NARROW_RADIUS
            assert before[1] is None or before[1][0].length > 1.0
            paths["censored" if result is None else "full"] += 1
    assert paths == {"narrow": 13, "full": 1, "censored": 2}


def full_search_outcome(q, radius, cap=DEFAULT_CAP):
    """A sample's outcome from one search to the whole radius."""
    try:
        search = saddle_connections_up_to(q, radius, cap=cap)
    except RadiusTooSmall:
        return _CENSORED
    if search.cap_exceeded:
        return _DROPPED
    return search[0].length, sum(1 for c in search if c.length <= 1.0)


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_narrow_request_matches_the_full_search(family):
    # kept, censored or dropped alike, and for a kept sample the same
    # shortest length (== on positive floats is equality of bits) and the
    # same count <= 1
    rng = random.Random(f"probe-narrow/{family}")
    make = REFERENCE_FAMILIES[family]
    for draw in range(3):
        for time in range(5):
            q = geodesic_flow(make(rng), time)
            for radius in (1.25, 1.5, 2.0):
                assert (_measure_sample(q, radius)
                        == full_search_outcome(q, radius)), (
                    family, draw, time, radius)


def test_capped_sample_answered_narrow_is_kept():
    # the one place where the narrow request changes an outcome: a budget
    # that the search to radius 2 spends but the search to NARROW_RADIUS
    # does not.  The sample is kept with the values of an unlimited budget
    q = geodesic_flow(REFERENCE_FAMILIES["genus5"](random.Random("cap")), 2)
    narrow = saddle_connections_up_to(q, NARROW_RADIUS)
    full = saddle_connections_up_to(q, 2.0)
    assert narrow[0].length <= 1.0
    cap = (narrow.placements + full.placements) // 2
    assert narrow.placements < cap < full.placements
    assert full_search_outcome(q, 2.0, cap) == _DROPPED
    assert _measure_sample(q, 2.0, cap) == full_search_outcome(q, 2.0)


def test_seed_changes_the_bytes():
    a = small_probe(seed=7)
    b = small_probe(seed=8)
    assert a.text() != b.text()


def test_later_times_leave_earlier_stats_alone():
    short = small_probe(times=(0.5,), samples=15)
    longer = small_probe(times=(0.5, 1.0), samples=15)
    assert short.per_time[0] == longer.per_time[0]


def test_report_text_shape():
    report = small_probe(samples=10)
    text = report.text()
    assert text.startswith("probe report\n")
    assert f"label = {PROBE_LABEL}" in text
    assert "not a proof" in PROBE_LABEL
    assert "[time 0]" in text and "[time 1]" in text
    assert "ks = " in text
    assert "cesaro_shortest = " in text
    assert text.endswith("\n")


# --- KS distance ----------------------------------------------------------------


def test_ks_distance_by_hand():
    a = stats([1.0, 2.0])
    b = stats([2.0, 3.0])
    # at 1.0: 1/2 vs 0; at 2.0: 1 vs 1/2; at 3.0: 1 vs 1
    assert ks_distance(a, b) == 0.5
    assert ks_distance(a, a) == 0.0


def test_ks_distance_weighs_censored_mass():
    a = stats([1.0], censored=1)   # half the law sits above the radius
    b = stats([1.0])
    assert ks_distance(a, b) == 0.5


def test_ks_distance_is_symmetric():
    a = stats([0.2, 0.4, 0.9])
    b = stats([0.3, 0.8])
    assert ks_distance(a, b) == ks_distance(b, a)


def test_ks_needs_samples():
    with pytest.raises(OutOfRange):
        ks_distance(stats([]), stats([1.0]))


def test_successive_ks_settles_on_the_origami():
    report = small_probe(times=(0.0, 0.5, 1.0), samples=40)
    assert len(report.ks) == 2
    # leaving the T=0 point mass is a bigger step than moving on
    assert report.ks[-1] < report.ks[0]


# --- cesaro averages ------------------------------------------------------------


def test_cesaro_is_the_running_mean():
    report = small_probe(times=(0.0, 0.5, 1.0), samples=20)
    means = [st.mean_shortest for st in report.per_time]
    assert report.cesaro_shortest[0] == means[0]
    assert report.cesaro_shortest[2] == pytest.approx(sum(means) / 3)


# --- preconditions --------------------------------------------------------------


def test_parameter_validation():
    q = build_surface(*origami_inputs())
    with pytest.raises(OutOfRange):
        run_probe(q, times=(), samples=5, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(q, times=(6.0,), samples=5, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(q, times=(-1.0,), samples=5, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(q, times=(1.0,), samples=0, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(q, times=(1.0,), samples=200_000, seed=1,
                  radius=1)
    for radius in (0, math.inf, 1e300, math.nan):
        with pytest.raises(OutOfRange):
            run_probe(q, times=(1.0,), samples=5, seed=1,
                      radius=radius)


def test_probe_is_desk_scale_only():
    cfg, sa = plumbing_pair(10)   # genus 9
    with pytest.raises(OutOfRange):
        run_probe(build_surface(cfg, sa, [1] * cfg.n_curves), times=(1.0,),
                  samples=5, seed=1, radius=1)


def test_pants_surface_probe_runs():
    cfg = enumerate_pants_configs(3)[0]
    sa = pants_assignment(cfg, GENERIC6)
    report = run_probe(build_surface(cfg, sa, [1] * 6), times=(0.0, 2.0),
                       samples=8, seed=3, radius=1.0)
    assert report.per_time[0].dropped == 0
    assert report.per_time[1].kept + report.per_time[1].censored > 0
