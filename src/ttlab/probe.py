"""Monte Carlo probe of twist-flow equidistribution, at desk scale.

For each time T the probe draws random twist vectors, pushes the
surfaces through the diagonal flow, and collects saddle-connection
statistics inside a fixed radius.  Distributions at successive times
are compared by Kolmogorov-Smirnov distance; if the flow is spreading
twists toward the limit measure, those distances should settle down.
They are reported as observations, never as a verdict: convergence is
only guaranteed off a zero-density set of times, so the report carries
a fixed disclaimer instead of a pass mark.

The probe samples the surface it is handed, built in either mode: the
twists are drawn as floats, so an exact surface is converted to floats
once, and each sample replaces its twists.  The float copy checks its
own numbers, so a height or a length that rounds to 0.0 is refused
there.

Sampling is driven by a counter-based generator with one substream per
(time, sample) pair, so reports are byte-identical for identical
inputs and every sample is independent of every other; running them in
any order, or in parallel, aggregates to the same report.

A sample whose search exhausts its placement budget is dropped and
counted.  A sample whose shortest connection exceeds the radius is not
a failure: it is kept as a censored observation with known mass above
the cutoff, and the distribution comparisons account for it.

A report reads two numbers per sample: the shortest length and the
count of lengths <= 1.  So when the radius exceeds NARROW_RADIUS, a
sample first searches only to NARROW_RADIUS, just above 1, and runs
the search to the full radius only when that finds nothing <= 1.  The
narrow search is the full one with whole subtrees pruned, visited in
the same order, and every placement on the way to a connection of
length <= 1 is within 1 plus rounding of the origin.  So the two
numbers come out bit for bit as the full search gives them, and a
narrow search cut by its budget means the full one would be cut too.
The one difference: when the full search would spend its budget but
the narrow one does not, the sample is kept, with the values an
unlimited budget gives, where searching the full radius first would
drop it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRange, RadiusTooSmall, _fmt, _report
from .rng import CounterRandom
from .saddle import DEFAULT_CAP, saddle_connections_up_to
from .surface import NUMERIC, geodesic_flow

PROBE_LABEL = ("probe — not a proof; convergence guaranteed only "
               "outside a zero-density set")
# Just above 1, so that a connection of length <= 1 survives the
# rounding of its squared length and of every clip on its way.
NARROW_RADIUS = 1.0 + 1e-6
MAX_SAMPLES = 100_000
MAX_TIME = 5.0
MAX_GENUS = 5
HIST_BINS = 16


@dataclass(frozen=True)
class TimeStats:
    """Per-time empirical statistics over the kept samples."""

    time: float
    kept: int
    dropped: int
    censored: int
    shortest: tuple        # uncensored shortest-connection lengths, sorted
    histogram: tuple       # HIST_BINS counts over [0, radius]
    mean_shortest: float   # over uncensored samples; 0.0 when none
    mean_count_le_1: float


@dataclass(frozen=True)
class ProbeReport:
    seed: int
    radius: float
    samples: int
    times: tuple
    per_time: tuple         # TimeStats, aligned with times
    ks: tuple               # successive-time KS distances, nan if a side is empty
    cesaro_shortest: tuple  # running means of mean_shortest over the grid
    cesaro_count: tuple
    label: str = PROBE_LABEL

    def text(self):
        text = "probe report\n" + _report([
            ("label", self.label), ("seed", self.seed), ("radius", self.radius),
            ("samples", self.samples), ("times", self.times)])
        for stats in self.per_time:
            text += f"[time {_fmt(stats.time, 'time')}]\n" + _report([
                ("kept", stats.kept), ("dropped", stats.dropped),
                ("censored", stats.censored),
                ("mean_shortest", stats.mean_shortest),
                ("mean_count_le_1", stats.mean_count_le_1),
                ("hist", " ".join(str(c) for c in stats.histogram))])
        return text + _report([
            ("ks", self.ks), ("cesaro_shortest", self.cesaro_shortest),
            ("cesaro_count_le_1", self.cesaro_count)])


def ks_distance(stats_a, stats_b):
    """Two-sample Kolmogorov-Smirnov distance between shortest-length laws.

    Censored samples hold probability mass above every finite value, so
    they enter each sample size but never a cumulative count.  Dropped
    samples are outside both laws.
    """
    na = stats_a.kept + stats_a.censored
    nb = stats_b.kept + stats_b.censored
    if na == 0 or nb == 0:
        raise OutOfRange("KS distance needs at least one retained sample")
    xs, ys = stats_a.shortest, stats_b.shortest
    best = 0.0
    i = j = 0
    while i < len(xs) or j < len(ys):
        if j >= len(ys) or (i < len(xs) and xs[i] <= ys[j]):
            v = xs[i]
        else:
            v = ys[j]
        while i < len(xs) and xs[i] <= v:
            i += 1
        while j < len(ys) and ys[j] <= v:
            j += 1
        best = max(best, abs(i / na - j / nb))
    return best


def _draw_twists(rng, lengths):
    return [rng.uniform() * l for l in lengths]


_CENSORED = "censored"
_DROPPED = "dropped"


def _measure_sample(q, radius, cap=DEFAULT_CAP):
    """What one sample contributes to a report.

    Returns (shortest length, count of lengths <= 1), or _CENSORED when
    nothing lies within the radius, or _DROPPED when the placement budget
    cut the search.  A radius above NARROW_RADIUS is searched to
    NARROW_RADIUS first; see the module docstring.
    """
    if radius > NARROW_RADIUS:
        narrow = _measure_sample(q, NARROW_RADIUS, cap)
        if narrow is _DROPPED or (narrow is not _CENSORED
                                  and narrow[0] <= 1.0):
            return narrow
    try:
        search = saddle_connections_up_to(q, radius, cap=cap)
    except RadiusTooSmall:
        return _CENSORED
    if search.cap_exceeded:
        return _DROPPED
    return search[0].length, sum(1 for c in search if c.length <= 1.0)


def run_probe(q, times, samples, seed, radius, cap=DEFAULT_CAP):
    """Sample twists, flow, and measure; see the module docstring.

    q is a built surface in either mode.  It is converted to floats
    once, because the twists are drawn as floats, and the float copy
    checks its own numbers (NonPositiveHeight for a height, OutOfRange
    for a length that rounds to 0.0); each sample replaces the twists
    of q.  Each sample is measured by _measure_sample: a radius above
    NARROW_RADIUS is first searched only to NARROW_RADIUS, and cap
    bounds each search on its own.  The radius must be positive with a
    finite square.
    """
    if q.cfg.genus > MAX_GENUS:
        raise OutOfRange(
            f"probe is desk scale: genus {q.cfg.genus} > {MAX_GENUS}")
    samples = int(samples)
    if not 1 <= samples <= MAX_SAMPLES:
        raise OutOfRange(f"samples must be in 1..{MAX_SAMPLES}")
    times = tuple(float(t) for t in times)
    if not times:
        raise OutOfRange("need at least one time")
    for t in times:
        if not 0.0 <= t <= MAX_TIME:
            raise OutOfRange(
                f"probe times live in [0, {MAX_TIME}]: got {t}")
    radius = float(radius)
    if not radius > 0.0:
        raise OutOfRange(f"radius must be positive, got {radius}")
    if not math.isfinite(radius * radius):
        raise OutOfRange(f"radius must have a finite square, got {radius}")

    base = q._replace(mode=NUMERIC)
    lengths = base.base_lengths
    root = CounterRandom(int(seed), "probe")

    per_time = []
    for ti, t in enumerate(times):
        # the flow moves only the scale, so a sample may take its
        # twists after the flow: one flow per time serves them all
        flowed = geodesic_flow(base, t)
        shortest = []
        counts_le_1 = []
        dropped = 0
        censored = 0
        for k in range(samples):
            rng = root.substream(f"time{ti}/sample{k}")
            twists = _draw_twists(rng, lengths)
            outcome = _measure_sample(flowed._replace(twists=twists),
                                      radius, cap)
            if outcome is _CENSORED:
                censored += 1
            elif outcome is _DROPPED:
                dropped += 1
            else:
                shortest.append(outcome[0])
                counts_le_1.append(outcome[1])
        shortest.sort()
        hist = [0] * HIST_BINS
        for v in shortest:
            b = min(int(v / radius * HIST_BINS), HIST_BINS - 1)
            hist[b] += 1
        kept = len(shortest)
        per_time.append(TimeStats(
            time=t,
            kept=kept,
            dropped=dropped,
            censored=censored,
            shortest=tuple(shortest),
            histogram=tuple(hist),
            mean_shortest=sum(shortest) / kept if kept else 0.0,
            mean_count_le_1=sum(counts_le_1) / kept if kept else 0.0,
        ))

    # a time whose every sample was dropped has no law to compare
    ks = tuple(ks_distance(a, b) if a.kept + a.censored and b.kept + b.censored
               else math.nan for a, b in zip(per_time, per_time[1:]))
    cesaro_shortest = []
    cesaro_count = []
    acc_s = acc_c = 0.0
    for i, stats in enumerate(per_time):
        acc_s += stats.mean_shortest
        acc_c += stats.mean_count_le_1
        cesaro_shortest.append(acc_s / (i + 1))
        cesaro_count.append(acc_c / (i + 1))

    return ProbeReport(
        seed=int(seed),
        radius=radius,
        samples=samples,
        times=times,
        per_time=tuple(per_time),
        ks=ks,
        cesaro_shortest=tuple(cesaro_shortest),
        cesaro_count=tuple(cesaro_count),
    )
