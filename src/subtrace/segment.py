"""Stop-slot segmentation of a metro span.

Trains brake to a halt at every station, so dwells show up as long
low-HRA stretches. A sliding window votes on "mostly below threshold",
the quietest placement inside each detection is chosen, and the window
center becomes the segmentation point. A second, escalating pass then
re-searches any implausibly long gap with a raised threshold and a
relaxed quorum until every gap could be a single station interval.

A scan tests every window start in one vectorised pass and then jumps
from hit to hit, so its Python work grows with the number of stops, not
with the number of samples. Its prefix sums always cover the whole series,
whatever part of it the scan searches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import MetroNetwork, is_finite_real, is_integer

DEFAULT_QUORUM = 0.95
RESEARCH_QUORUM = 0.80
T1_PERCENTILE = 30.0
DELTA_FRACTION = 0.10
MAX_ESCALATIONS = 8


@dataclass(frozen=True)
class SegmenterParams:
    """Knobs for one segmentation run; lengths are in samples.

    T1 and delta may be left unset, in which case they are derived from the
    span itself (30th HRA percentile and 10% of it).
    """

    l_w: int
    l_min: int
    l_max: int
    t1: float | None = None
    delta: float | None = None
    quorum: float = DEFAULT_QUORUM
    max_escalations: int = MAX_ESCALATIONS

    def __post_init__(self):
        for name in ("l_w", "l_min", "l_max", "max_escalations"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 0):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if not 0 < self.l_w <= self.l_min <= self.l_max:
            raise ValueError(
                f"need 0 < l_w <= l_min <= l_max, got {self.l_w}, {self.l_min}, {self.l_max}"
            )
        for name in ("t1", "delta"):
            value = getattr(self, name)
            if value is not None and not (is_finite_real(value) and value >= 0):
                raise ValueError(f"{name} must be unset or finite and non-negative, got {value!r}")
        if not (is_finite_real(self.quorum) and 0.0 < self.quorum <= 1.0):
            raise ValueError(f"quorum {self.quorum!r} outside (0, 1]")


def params_for_network(network: MetroNetwork) -> SegmenterParams:
    rate = network.sample_rate
    return SegmenterParams(
        l_w=int(round(rate * network.dwell_min)),
        l_min=int(round(rate * network.min_interval_duration)),
        l_max=int(round(rate * (network.max_interval_duration + network.dwell_max))),
    )


def resolve_params(params: SegmenterParams, hra: np.ndarray) -> SegmenterParams:
    """Fill data-derived defaults for t1 and delta."""
    t1 = params.t1
    if t1 is None:
        t1 = float(np.percentile(np.asarray(hra, dtype=float), T1_PERCENTILE))
    delta = params.delta
    if delta is None:
        delta = DELTA_FRACTION * t1
    return replace(params, t1=t1, delta=delta)


def find_seg_points(
    hra: np.ndarray,
    start: int,
    end: int,
    t1: float,
    quorum: float,
    l_w: int,
    l_min: int,
) -> list[int]:
    """One left-to-right scan for stop windows in hra[start:end].

    The window [i, i+l_w) hits when it holds more than quorum * l_w samples
    below t1. On a hit, the placement s in [i, i+l_w/2) with the lowest
    window mean wins, the point is recorded at the window center s + l_w/2,
    and the scan resumes at s + l_min so two points can never land closer
    than a station interval.

    The hit test is evaluated for every window start at once, and the scan
    jumps from one hit to the next with a binary search. The prefix sums run
    over the whole of hra, not over hra[start:end]: sums taken from the
    slice would round the window means differently, and that can move the
    argmin of the placement search.
    """
    hra = np.asarray(hra, dtype=float)
    n = len(hra)
    start = max(start, 0)
    end = min(end, n)
    if start + l_w > end:
        return []
    below = np.concatenate([[0], np.cumsum(hra < t1)])
    csum = np.concatenate([[0.0], np.cumsum(hra)])
    half = max(1, l_w // 2)
    last = end - l_w  # the last window start
    votes = below[start + l_w : end + 1] - below[start : last + 1]
    hits = start + np.flatnonzero(votes > quorum * l_w)

    points: list[int] = []
    k = 0
    while k < len(hits):
        i = int(hits[k])
        ss = np.arange(i, min(i + half, last + 1))
        means = (csum[ss + l_w] - csum[ss]) / l_w
        s = int(ss[np.argmin(means)])
        points.append(s + l_w // 2)
        k = int(np.searchsorted(hits, s + l_min))
    return points


def _overlong_gaps(points: list[int], n: int, l_max: int) -> list[tuple[int, int]]:
    bounds = [0] + sorted(points) + [n]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b - a > l_max]


def find_final_segment_points(
    hra: np.ndarray, params: SegmenterParams
) -> tuple[list[int], bool]:
    """Scan, then escalate the threshold over any gap too long to be one ride.

    Re-searches run at a relaxed quorum and stay l_min clear of the gap's
    endpoints. Returns the sorted points and a warning flag that is set when
    overlong gaps survive all escalations.
    """
    hra = np.asarray(hra, dtype=float)
    p = resolve_params(params, hra)
    n = len(hra)
    points = find_seg_points(hra, 0, n, p.t1, p.quorum, p.l_w, p.l_min)

    t1 = p.t1
    for _ in range(p.max_escalations):
        gaps = _overlong_gaps(points, n, p.l_max)
        if not gaps:
            return sorted(points), False
        t1 += p.delta
        for a, b in gaps:
            points.extend(
                find_seg_points(
                    hra, a + p.l_min, b - p.l_min, t1, RESEARCH_QUORUM, p.l_w, p.l_min
                )
            )
        points = sorted(set(points))
    return sorted(points), bool(_overlong_gaps(points, n, p.l_max))
