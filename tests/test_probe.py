import hashlib
import math

import pytest

from ttlab.errors import OutOfRange
from ttlab.probe import (
    HIST_BINS,
    PROBE_LABEL,
    ProbeReport,
    TimeStats,
    ks_distance,
    run_probe,
)
from ttlab.ribbon import SpineAssignment, pants_assignment, single_vertex_graph
from ttlab.topology import enumerate_pants_configs

from test_classify import GENERIC6, plumbing_pair, plumbing_ring
from test_saddle import GENERIC12, GENUS5, ORIGAMI


def origami_inputs():
    graph = single_vertex_graph([3, 4, 5, 0, 1, 2], {0: 1, 1: 1, 2: 1})
    return ORIGAMI, SpineAssignment((graph,), ((0, 1),)), [1]


def small_probe(**kw):
    cfg, sa, heights = origami_inputs()
    args = dict(times=(0.0, 1.0), samples=25, seed=7, radius=1.2)
    args.update(kw)
    return run_probe(cfg, sa, heights, **args)


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
    (cut,) = run_probe(GENUS5, sa, heights, cap=300, **args).per_time
    assert (cut.kept, cut.dropped, cut.censored) == (0, 8, 0)
    (full,) = run_probe(GENUS5, sa, heights, **args).per_time
    assert (full.kept, full.dropped, full.censored) == (4, 0, 4)


def test_time_that_keeps_nothing_still_reports():
    # the same genus-5 pants and budget: every sample at times 2 and 4
    # is dropped.  Those times report kept = 0, and a KS entry with an
    # empty side prints as nan instead of the whole report being lost
    sa = pants_assignment(GENUS5, GENERIC12)
    report = run_probe(GENUS5, sa, [1] * GENUS5.n_curves, times=(0.0, 2.0, 4.0),
                       samples=6, seed=3, radius=1.0, cap=300)
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
    text = run_probe(cfg, sa, [1] * cfg.n_curves, **kw).text()
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
    cfg, sa, heights = origami_inputs()
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, heights, times=(), samples=5, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, heights, times=(6.0,), samples=5, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, heights, times=(-1.0,), samples=5, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, heights, times=(1.0,), samples=0, seed=1, radius=1)
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, heights, times=(1.0,), samples=200_000, seed=1,
                  radius=1)
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, heights, times=(1.0,), samples=5, seed=1, radius=0)


def test_probe_is_desk_scale_only():
    cfg, sa = plumbing_pair(10)   # genus 9
    with pytest.raises(OutOfRange):
        run_probe(cfg, sa, [1] * cfg.n_curves, times=(1.0,), samples=5,
                  seed=1, radius=1)


def test_pants_surface_probe_runs():
    cfg = enumerate_pants_configs(3)[0]
    sa = pants_assignment(cfg, GENERIC6)
    report = run_probe(cfg, sa, [1] * 6, times=(0.0, 2.0), samples=8,
                       seed=3, radius=1.0)
    assert report.per_time[0].dropped == 0
    assert report.per_time[1].kept + report.per_time[1].censored > 0
