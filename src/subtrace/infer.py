"""Trace inference: from a probability matrix to a ride hypothesis.

A trip of n segments on a line with m station intervals can only be one of
2(m - n + 1) things: a forward run or a reverse run starting somewhere on the
line. Each candidate is scored by summing log probabilities of its intervals
across the per-segment distributions, a deterministic tie-break picks the
winner, and an optional tolerance pass re-cuts the span under the n-1 and n+1
hypotheses in case the segmenter missed or invented one stop.

A recording is decoded in three phases, so that each of its segments is
featurised and classified once, in one batch:

1. *Plan.* ``plan_span`` fixes every cut layout of one span, a ``[lo, hi)``
   range of the whole recording's samples: the detected cuts and, in "full"
   mode, the re-cut layouts of the n-1 and n+1 families. "reduced" mode
   plans the detected layout alone.
2. *Batch.* ``classify_segments`` featurises the distinct segments of every
   plan of the recording in one ``features.extract_batch`` call and
   classifies them in one ``predict_matrix`` call.
3. *Score.* ``infer_with_segment_tolerance``, the one scorer, decodes each
   plan from those probability rows and returns a ``ToleranceResult``; a
   span that no hypothesis fits is a result whose ``best`` is ``None``, not
   an error.

The attack and the evaluation harness both decode this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features
from .classify import IntervalEnsemble
from .coord import EnuSeries
from .model import FORWARD, REVERSE, MetroNetwork

LOG_EPS = 1e-12
SNAP_WINDOW_S = 10.0
DECODE_MODES = ("full", "reduced")
TOP_K = 3  # hypotheses kept in ``ToleranceResult.ranked``


@dataclass(frozen=True)
class TraceHypothesis:
    """One candidate ride: where it started, which way, how far, how likely."""

    start_interval: int  # undirected id of the first ridden interval
    direction: str
    length: int
    score: float

    def __post_init__(self):
        if self.direction not in (FORWARD, REVERSE):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.length < 1:
            raise ValueError("hypothesis must cover at least one interval")

    def interval_ids(self) -> tuple[int, ...]:
        """Undirected interval ids in ride order."""
        return tuple(_ride(self.start_interval, self.direction, self.length))

    @property
    def mean_score(self) -> float:
        return self.score / self.length


def _ride(start: int, direction: str, length: int) -> range:
    """Undirected ids of a ``length``-interval ride from ``start``, in ride order."""
    if direction == FORWARD:
        return range(start, start + length)
    return range(start, start - length, -1)


def candidate_runs(n: int, m: int) -> list[tuple[int, str]]:
    """All (start_interval, direction) pairs an n-segment ride could be."""
    if n < 1:
        raise ValueError("need at least one segment")
    if n > m:
        return []
    fwd = [(s, FORWARD) for s in range(0, m - n + 1)]
    rev = [(s, REVERSE) for s in range(n - 1, m)]
    return fwd + rev


def score_run(P: np.ndarray, start: int, direction: str) -> float:
    """Log-likelihood of one run under the per-segment distributions."""
    n = len(P)
    return float(np.sum(np.log(P[np.arange(n), _ride(start, direction, n)] + LOG_EPS)))


def rank_hypotheses(P: np.ndarray) -> list[TraceHypothesis]:
    """Score every feasible run against a row-stochastic (n, m) matrix, best first.

    Ties break toward the lower start interval, forward before reverse.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n, m = P.shape
    candidates = candidate_runs(n, m)
    if not candidates:
        raise ValueError(f"no feasible run of {n} segments on {m} intervals")
    hyps = [
        TraceHypothesis(s, d, n, score_run(P, s, d)) for s, d in candidates
    ]
    hyps.sort(key=lambda h: (-h.score, h.start_interval, h.direction != FORWARD))
    return hyps


# --- segment-count tolerance -------------------------------------------------


@dataclass(frozen=True)
class ToleranceResult:
    best: TraceHypothesis | None  # None when no hypothesis fits the span
    points: tuple[int, ...]  # interior cuts the winning hypothesis used
    detected: int  # segment count the segmenter reported
    ranked: tuple[tuple[TraceHypothesis, tuple[int, ...]], ...]


def _planned_cuts(
    durations: list[float], dwell: float, n_samples: int, rate: float
) -> list[int]:
    """Interior cut samples for hypothesized legs, scaled to the span.

    Legs are separated by nominal dwells; each cut lands on a dwell center.
    """
    total = sum(durations) + dwell * (len(durations) - 1)
    scale = (n_samples / rate) / total
    cuts = []
    elapsed = 0.0
    for d in durations[:-1]:
        elapsed += d + 0.5 * dwell
        cuts.append(int(round(elapsed * scale * rate)))
        elapsed += 0.5 * dwell
    return cuts


def _snap_cuts(cuts: list[int], hra: np.ndarray, w: int) -> tuple[int, ...] | None:
    """Move each cut to the quietest sample within ``w`` of it; reject crossed layouts."""
    n = len(hra)
    snapped = []
    prev = 0
    for c in cuts:
        lo = max(prev + 1, c - w)
        hi = min(n - 1, c + w + 1)
        if lo >= hi:
            return None
        s = lo + int(np.argmin(hra[lo:hi]))
        snapped.append(s)
        prev = s
    return tuple(snapped)


@dataclass(frozen=True)
class SpanPlan:
    """Every cut layout one span is decoded with, fixed before any segment is featurised.

    The span is samples ``[lo, hi)`` of its recording, and every cut counts
    from ``lo``. ``detected_cuts`` is ``None`` when the detected layout fits
    no ride; ``recuts`` holds one ``(start, direction, cuts)`` per re-cut run.
    """

    lo: int
    hi: int
    detected: int  # segment count the segmenter reported
    detected_cuts: tuple[int, ...] | None
    recuts: tuple[tuple[int, str, tuple[int, ...]], ...]

    def segments(self) -> set[tuple[int, int]]:
        """The ``[a, b)`` recording samples of every segment some layout cuts."""
        layouts = {cuts for _, _, cuts in self.recuts}
        if self.detected_cuts is not None:
            layouts.add(self.detected_cuts)
        return {
            (self.lo + a, self.lo + b)
            for cuts in layouts
            for a, b in zip([0, *cuts], [*cuts, self.hi - self.lo])
        }


def plan_span(
    series: EnuSeries,
    lo: int,
    hi: int,
    network: MetroNetwork,
    points: list[int],
    mode: str,
) -> SpanPlan:
    """The cut layouts that decode samples ``[lo, hi)`` of ``series``, allowing one missed or spurious stop.

    ``points`` are the detected interior cuts, counted from ``lo``. They give
    the n-segment layout. In ``"full"`` mode, for n-1 and n+1 segments the
    span is re-cut per candidate run from nominal interval durations plus
    dwells, snapped to local HRA minima; ``"reduced"`` mode keeps the
    detected layout alone. An unknown ``mode`` raises ``ValueError``.
    """
    check_mode(mode)
    points = sorted(points)

    n_samples = hi - lo
    hra = series.hra[lo:hi]
    rate = network.sample_rate
    m = network.num_intervals
    n_detected = len(points) + 1

    detected_cuts = tuple(points)
    use_detected = n_detected <= m and all(0 < c < n_samples for c in detected_cuts)
    recuts: list[tuple[int, str, tuple[int, ...]]] = []
    families = (n_detected - 1, n_detected + 1) if mode == "full" else ()
    for fam in families:
        if not 1 <= fam <= m:
            continue
        for start, direction in candidate_runs(fam, m):
            durations = [network.nominal_duration(u) for u in _ride(start, direction, fam)]
            cuts = _planned_cuts(durations, network.dwell_nominal, n_samples, rate)
            snapped = _snap_cuts(cuts, hra, network.samples(SNAP_WINDOW_S))
            if snapped is not None:
                recuts.append((start, direction, snapped))
    return SpanPlan(lo, hi, n_detected, detected_cuts if use_detected else None, tuple(recuts))


def classify_segments(
    series: EnuSeries, plans: list[SpanPlan], ensemble: IntervalEnsemble
) -> dict[tuple[int, int], np.ndarray]:
    """The probability row of every distinct segment the plans cut, keyed by its ``[a, b)``.

    All of them are featurised in one ``features.extract_batch`` call under
    ``ensemble.config`` and classified in one ``predict_matrix`` call, so a
    segment that several layouts or spans share is computed once. Plans
    that cut nothing classify nothing.
    """
    spans = sorted(set().union(*(plan.segments() for plan in plans)))
    if not spans:
        return {}
    X = features.extract_batch([series.enu[a:b] for a, b in spans], ensemble.config)
    return dict(zip(spans, ensemble.predict_matrix(X)))


def infer_with_segment_tolerance(
    plan: SpanPlan, rows: dict[tuple[int, int], np.ndarray]
) -> ToleranceResult:
    """Decode one planned span from the probability rows of its segments.

    ``rows`` maps each segment's ``[a, b)`` recording samples to its
    probability row, as ``classify_segments`` returns them. The detected
    layout's ``TOP_K`` best hypotheses and every re-cut run compete on mean
    per-segment score, with ties going to the layout that matches the
    detected count. ``ranked`` holds the ``TOP_K`` best hypotheses with their
    cuts. When no layout fits, ``best`` is ``None`` and ``ranked`` is empty.
    """
    n_detected = plan.detected
    if plan.detected_cuts is None and not plan.recuts:
        return ToleranceResult(best=None, points=(), detected=n_detected, ranked=())

    def matrix_for(cuts: tuple[int, ...]) -> np.ndarray:
        bounds = [plan.lo, *(plan.lo + c for c in cuts), plan.hi]
        return np.array([rows[sp] for sp in zip(bounds[:-1], bounds[1:])])

    scored: list[tuple[TraceHypothesis, tuple[int, ...]]] = []
    if plan.detected_cuts is not None:
        P = matrix_for(plan.detected_cuts)
        for h in rank_hypotheses(P)[:TOP_K]:
            scored.append((h, plan.detected_cuts))
    for start, direction, cuts in plan.recuts:
        P = matrix_for(cuts)
        h = TraceHypothesis(start, direction, len(cuts) + 1, score_run(P, start, direction))
        scored.append((h, cuts))

    scored.sort(
        key=lambda hc: (
            -hc[0].mean_score,
            abs(hc[0].length - n_detected),
            hc[0].start_interval,
            hc[0].direction != FORWARD,
        )
    )
    best, best_cuts = scored[0]
    return ToleranceResult(
        best=best,
        points=best_cuts,
        detected=n_detected,
        ranked=tuple(scored[:TOP_K]),
    )


def check_mode(mode: str) -> None:
    """Reject a decoding mode other than ``DECODE_MODES``."""
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
