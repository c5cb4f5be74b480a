"""Stop-slot segmentation of a metro span.

Trains brake to a halt at every station, so dwells show up as long
low-HRA stretches. A sliding window votes on "mostly below threshold",
the quietest placement inside each detection is chosen, and the window
center becomes the segmentation point. A second, escalating pass then
re-searches any implausibly long gap with a raised threshold and a
relaxed quorum until every gap could be a single station interval.

The lengths come from the network's timetable, in samples: the window
``l_w`` is the shortest dwell, two points lie at least ``l_min``, the
shortest interval, apart, and a gap is re-searched when longer than
``l_max``, the longest interval plus the longest dwell. The threshold
``t1`` is the span's 30th HRA percentile; each escalation adds a tenth of it.

A scan tests every window start in one vectorised pass and then jumps
from hit to hit, so its Python work grows with the number of stops, not
with the number of samples. Its prefix sums always cover the whole series,
whatever part of it the scan searches.
"""

from __future__ import annotations

import numpy as np

from .model import MetroNetwork, percentiles

QUORUM = 0.95
RESEARCH_QUORUM = 0.80
T1_PERCENTILE = 30.0
DELTA_FRACTION = 0.10
MAX_ESCALATIONS = 8


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


def find_final_segment_points(hra: np.ndarray, network: MetroNetwork) -> tuple[list[int], bool]:
    """Cut one span of ``network``'s rides at its stops.

    Returns the sorted points and a warning flag that is set when a gap too
    long to be one ride survives every escalation.
    """
    (t1,) = percentiles(hra, (T1_PERCENTILE,))
    l_w, l_min = network.samples(network.dwell_min), network.samples(network.min_interval_duration)
    l_max = network.samples(network.max_interval_duration + network.dwell_max)
    return _final_points(hra, t1, DELTA_FRACTION * t1, l_w, l_min, l_max)


def _final_points(
    hra: np.ndarray, t1: float, delta: float, l_w: int, l_min: int, l_max: int
) -> tuple[list[int], bool]:
    """Scan, then escalate the threshold by ``delta`` over any gap longer than ``l_max``.

    Re-searches run at a relaxed quorum and stay l_min clear of the gap's
    endpoints.
    """
    n = len(hra)
    points = find_seg_points(hra, 0, n, t1, QUORUM, l_w, l_min)
    for _ in range(MAX_ESCALATIONS):
        gaps = _overlong_gaps(points, n, l_max)
        if not gaps:
            return sorted(points), False
        t1 += delta
        for a, b in gaps:
            points.extend(
                find_seg_points(hra, a + l_min, b - l_min, t1, RESEARCH_QUORUM, l_w, l_min)
            )
        points = sorted(set(points))
    return sorted(points), bool(_overlong_gaps(points, n, l_max))
