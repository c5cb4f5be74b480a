"""Trace inference: from a probability matrix to a ride hypothesis.

A trip of n segments on a line with m station intervals can only be one of
2(m - n + 1) things: a forward run or a reverse run starting somewhere on the
line. Each candidate is scored by summing log probabilities of its intervals
across the per-segment distributions, a deterministic tie-break picks the
winner, and an optional tolerance pass re-cuts the span under the n-1 and n+1
hypotheses in case the segmenter missed or invented one stop.

``infer_with_segment_tolerance`` is the one scorer, and it serves two modes:
"full" runs the tolerance pass with its re-cut families, "reduced" runs the
same pass on the detected-cut family alone. Both return a
``ToleranceResult``; a span that no hypothesis fits is a result whose
``best`` is ``None``, not an error. The attack and the evaluation harness
both decode through it, each span as a ``[lo, hi)`` range of its whole
recording's samples. A featurizer takes a list of ``(lo, hi)`` sample spans
of the recording and returns their ``(k, 82)`` feature matrix, so every
segment a span decodes with is featurised in one batch; segments enter the
ensemble as plain feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classify import IntervalEnsemble
from .coord import EnuSeries
from .model import MetroNetwork

FORWARD = "forward"
REVERSE = "reverse"

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
        step = 1 if self.direction == FORWARD else -1
        return tuple(self.start_interval + step * j for j in range(self.length))

    @property
    def mean_score(self) -> float:
        return self.score / self.length


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
    step = 1 if direction == FORWARD else -1
    cols = [start + step * j for j in range(n)]
    return float(np.sum(np.log(P[np.arange(n), cols] + LOG_EPS)))


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


def _snap_cuts(cuts: list[int], hra: np.ndarray, rate: float) -> tuple[int, ...] | None:
    """Move each cut to the quietest sample nearby; reject crossed layouts."""
    n = len(hra)
    w = int(round(SNAP_WINDOW_S * rate))
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


def infer_with_segment_tolerance(
    series: EnuSeries,
    lo: int,
    hi: int,
    ensemble: IntervalEnsemble,
    network: MetroNetwork,
    points: list[int],
    featurize: Callable[[list[tuple[int, int]]], np.ndarray],
    mode: str,
) -> ToleranceResult:
    """Decode samples ``[lo, hi)`` of ``series``, allowing one missed or spurious stop.

    ``points`` are the detected interior cuts, counted from ``lo``, as are
    the cuts the result reports. The detected cuts give the n-segment
    family. In ``"full"`` mode, for n-1 and n+1 the span is re-cut per
    candidate run from nominal interval durations plus dwells, snapped to
    local HRA minima, and re-featurized (each distinct segment once);
    ``"reduced"`` mode keeps the detected family alone. Families compete on
    mean per-segment score, with ties going to the family that matches the
    detected count. When no family fits, ``best`` is ``None`` and ``ranked``
    is empty.

    ``featurize(spans)`` returns the ``(k, 82)`` feature vectors of the
    ``series`` samples ``[a, b)`` of each of k spans under
    ``ensemble.config``, counted from the start of ``series``; a caller that
    scores overlapping spans of one recording passes one that remembers
    earlier segments. An unknown ``mode`` raises ``ValueError``.
    ``ranked`` holds the ``TOP_K`` best hypotheses with their cuts, drawn from
    the ``TOP_K`` best detected-cut ones and every re-cut one.
    """
    check_mode(mode)
    points = sorted(points)

    n_samples = hi - lo
    hra = series.hra[lo:hi]
    rate = network.sample_rate
    m = network.num_intervals
    n_detected = len(points) + 1

    # collect every cut layout first so all segments classify in one batch
    detected_cuts = tuple(points)
    use_detected = n_detected <= m and all(0 < c < n_samples for c in detected_cuts)
    tolerance_cands: list[tuple[int, str, tuple[int, ...]]] = []
    families = (n_detected - 1, n_detected + 1) if mode == "full" else ()
    for fam in families:
        if not 1 <= fam <= m:
            continue
        for start, direction in candidate_runs(fam, m):
            step = 1 if direction == FORWARD else -1
            durations = [
                network.nominal_duration(start + step * j) for j in range(fam)
            ]
            cuts = _planned_cuts(durations, network.dwell_nominal, n_samples, rate)
            snapped = _snap_cuts(cuts, hra, rate)
            if snapped is not None:
                tolerance_cands.append((start, direction, snapped))

    if not use_detected and not tolerance_cands:
        return ToleranceResult(best=None, points=(), detected=n_detected, ranked=())

    layouts = {c for _, _, c in tolerance_cands}
    if use_detected:
        layouts.add(detected_cuts)
    spans = sorted(
        {
            sp
            for cuts in layouts
            for sp in zip([0, *cuts], [*cuts, n_samples])
        }
    )
    rows = ensemble.predict_matrix(featurize([(lo + a, lo + b) for a, b in spans]))
    row_of = {sp: i for i, sp in enumerate(spans)}

    def matrix_for(cuts: tuple[int, ...]) -> np.ndarray:
        bounds = [0, *cuts, n_samples]
        return rows[[row_of[sp] for sp in zip(bounds[:-1], bounds[1:])]]

    scored: list[tuple[TraceHypothesis, tuple[int, ...]]] = []
    if use_detected:
        P = matrix_for(detected_cuts)
        for h in rank_hypotheses(P)[:TOP_K]:
            scored.append((h, detected_cuts))
    for start, direction, cuts in tolerance_cands:
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
