"""Monte Carlo probe of twist-flow equidistribution, at desk scale.

For each time T the probe draws random twist vectors, pushes the
surfaces through the diagonal flow, and collects saddle-connection
statistics inside a fixed radius.  Distributions at successive times
are compared by Kolmogorov-Smirnov distance; if the flow is spreading
twists toward the limit measure, those distances should settle down.
They are reported as observations, never as a verdict: convergence is
only guaranteed off a zero-density set of times, so the report carries
a fixed disclaimer instead of a pass mark.

Sampling is driven by a counter-based generator with one substream per
(time, sample) pair, so reports are byte-identical for identical
inputs and every sample is independent of every other; running them in
any order, or in parallel, aggregates to the same report.

A sample whose search exhausts its placement budget is dropped and
counted.  A sample whose shortest connection exceeds the radius is not
a failure: it is kept as a censored observation with known mass above
the cutoff, and the distribution comparisons account for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRange, RadiusTooSmall
from .rng import CounterRandom
from .saddle import DEFAULT_CAP, saddle_connections_up_to
from .surface import NUMERIC, build_surface, geodesic_flow

PROBE_LABEL = ("probe — not a proof; convergence guaranteed only "
               "outside a zero-density set")
MAX_SAMPLES = 100_000
MAX_TIME = 5.0
MAX_GENUS = 5
HIST_BINS = 16


def _fmt(value):
    """One canonical spelling per value type for report lines."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


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
        lines = ["probe report", f"label = {self.label}"]
        lines.append(f"seed = {self.seed}")
        lines.append(f"radius = {_fmt(self.radius)}")
        lines.append(f"samples = {self.samples}")
        lines.append("times = " + ", ".join(_fmt(t) for t in self.times))
        for stats in self.per_time:
            lines.append(f"[time {_fmt(stats.time)}]")
            lines.append(f"kept = {stats.kept}")
            lines.append(f"dropped = {stats.dropped}")
            lines.append(f"censored = {stats.censored}")
            lines.append(f"mean_shortest = {_fmt(stats.mean_shortest)}")
            lines.append(f"mean_count_le_1 = {_fmt(stats.mean_count_le_1)}")
            lines.append("hist = " + " ".join(str(c) for c in stats.histogram))
        lines.append("ks = " + ", ".join(_fmt(d) for d in self.ks))
        lines.append("cesaro_shortest = "
                     + ", ".join(_fmt(v) for v in self.cesaro_shortest))
        lines.append("cesaro_count_le_1 = "
                     + ", ".join(_fmt(v) for v in self.cesaro_count))
        return "\n".join(lines) + "\n"


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


def run_probe(cfg, sa, heights, times, samples, seed, radius,
              cap=DEFAULT_CAP):
    """Sample twists, flow, and measure; see the module docstring.

    heights may be exact or floats; the sampled surfaces are always
    numeric because the twists are drawn as floats.
    """
    if cfg.genus > MAX_GENUS:
        raise OutOfRange(
            f"probe is desk scale: genus {cfg.genus} > {MAX_GENUS}")
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

    # validate and build once; every sample re-twists this surface
    base = build_surface(cfg, sa, heights, mode=NUMERIC)
    lengths = [float(l) for l in base.base_lengths]
    root = CounterRandom(int(seed), "probe")

    per_time = []
    for ti, t in enumerate(times):
        shortest = []
        counts_le_1 = []
        dropped = 0
        censored = 0
        for k in range(samples):
            rng = root.substream(f"time{ti}/sample{k}")
            twists = _draw_twists(rng, lengths)
            flowed = geodesic_flow(base._replace(twists=twists), t)
            try:
                search = saddle_connections_up_to(flowed, radius, cap=cap)
            except RadiusTooSmall:
                censored += 1
                continue
            if search.cap_exceeded:
                dropped += 1
                continue
            shortest.append(search[0].length)
            counts_le_1.append(sum(1 for c in search if c.length <= 1.0))
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
