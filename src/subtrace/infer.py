"""Trace inference: from a probability matrix to a ride hypothesis.

A trip of n segments on a line with m station intervals can only be one of
2(m - n + 1) things: a forward run or a reverse run starting somewhere on the
line. Each candidate is scored by summing log probabilities of its intervals
across the per-segment distributions, a deterministic tie-break picks the
winner, and an optional tolerance pass re-cuts the span under the n-1 and n+1
hypotheses in case the segmenter missed or invented one stop.

A recording is decoded in five phases, so that each segment it needs is
featurised and classified once, in at most two batches, and each plan is
screened once:

1. *Plan.* ``plan_span`` fixes every cut layout of one span, a ``[lo, hi)``
   range of the whole recording's samples: the detected cuts and, in "full"
   mode, one re-cut layout per candidate run of the n-1 and n+1 families.
   "reduced" mode plans the detected layout alone.
2. *Round 1.* ``classify_segments`` featurises the detected layouts'
   segments and each re-cut run's first segment, its *probe*, in one
   ``features.extract_batch`` call and classifies them in one
   ``predict_matrix`` call.
3. *Screen.* A re-cut run is ruled out when its probe alone proves that its
   mean per-segment score falls below the detected layout's best
   (``_screen``, which proves the bound). ``classify_segments`` screens
   each plan once and returns the results with the rows.
4. *Round 2.* The other segments of the runs that survive are featurised
   and classified in one more batch. Reduced mode plans no re-cuts, so it
   needs no second round.
5. *Score.* ``infer_with_segment_tolerance``, the one scorer, decodes each
   plan from the probability rows and its screen result; a span that no
   hypothesis fits is a result whose ``best`` is ``None``, not an error.

The attack and the evaluation harness both decode this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import features
from .classify import IntervalEnsemble
from .coord import EnuSeries
from .model import FORWARD, REVERSE, MetroNetwork

LOG_EPS = 1e-12
SNAP_WINDOW_S = 10.0
DECODE_MODES = ("full", "reduced")
# the largest term a probability row can add to a run's score: p <= 1 + 1e-9
T_MAX = math.log1p(1e-9 + LOG_EPS)
# how far below the detected best a screened-out run's bound lies; _screen shows it is wide enough
BAND = 1e-9


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

    All runs are scored at once: one gather from the matrix's log
    probabilities gives a row of terms per run, in ``candidate_runs`` order,
    and one row-wise sum adds them. Each score has ``score_run``'s bits,
    since ``log`` is elementwise and numpy sums each contiguous row in the
    same pairwise order as a 1-D array. Ties break toward the lower start
    interval, forward before reverse.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n, m = P.shape
    candidates = candidate_runs(n, m)
    if not candidates:
        raise ValueError(f"no feasible run of {n} segments on {m} intervals")
    steps = np.arange(n)
    forward = np.arange(m - n + 1)[:, None] + steps
    # the reverse run from start s + n - 1 reads forward run s's columns backwards
    cols = np.concatenate([forward, forward[:, ::-1]])
    scores = np.log(P + LOG_EPS)[steps, cols].sum(axis=1)
    hyps = [
        TraceHypothesis(s, d, n, score) for (s, d), score in zip(candidates, scores.tolist())
    ]
    hyps.sort(key=lambda h: (-h.score, h.start_interval, h.direction != FORWARD))
    return hyps


# --- segment-count tolerance -------------------------------------------------


@dataclass(frozen=True)
class ToleranceResult:
    best: TraceHypothesis | None  # None when no hypothesis fits the span
    points: tuple[int, ...]  # interior cuts the winning hypothesis used
    detected: int  # segment count the segmenter reported


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

    def layout(self, cuts: tuple[int, ...]) -> list[tuple[int, int]]:
        """The ``[a, b)`` recording samples of each segment ``cuts`` makes, in ride order."""
        bounds = [self.lo, *(self.lo + c for c in cuts), self.hi]
        return list(zip(bounds[:-1], bounds[1:]))

    def probe(self, cuts: tuple[int, ...]) -> tuple[int, int]:
        """The first segment ``cuts`` makes, ``layout(cuts)[0]``, without cutting the rest."""
        return (self.lo, self.lo + cuts[0] if cuts else self.hi)


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


# a plan's screen result: the detected layout's best hypothesis and the re-cut runs kept
Screened = tuple[TraceHypothesis | None, tuple[tuple[int, str, tuple[int, ...]], ...]]


def _screen(plan: SpanPlan, rows: dict[tuple[int, int], np.ndarray]) -> Screened:
    """The detected layout's best hypothesis and the re-cut runs that could still beat it.

    Reads the rows of the detected layout's segments and of each re-cut
    run's first segment (its probe) alone. Runs are kept in plan order. A
    run of L segments whose probe term is t is ruled out when

        (t + (L - 1) * T_MAX) / L < tau - BAND,

    tau being the detected best's ``mean_score``. Without detected cuts tau
    is -inf, so every run is kept.

    Why a ruled-out run can neither win nor tie. ``predict_matrix`` divides
    each non-negative row by its sum, so p <= 1 + 1e-9, and every real term
    log(p + LOG_EPS) lies in [log LOG_EPS, T_MAX], below 28 in magnitude.
    Let e = 2 ** -44, sixteen units in the last place of a float below 32
    in magnitude. ``np.log`` is within 4 such units and one rounding within
    half a unit, so each float term, the probe's included, is within e / 2
    of its real term. A run's sum is one row of ``rank_hypotheses``'
    row-wise sum or ``score_run``'s sum, both in numpy's pairwise order: L - 1
    roundings, each of a partial sum of j <= L terms, below 32 j, so within
    j e / 16. Left-to-right adding, with j = 2, ..., L, has the largest such
    total of any order. Summing a run's L float terms therefore rounds by
    less than (L - 1) L e / 16, and the division by L by e / 32, so its float mean
    exceeds the real (t + (L - 1) T_MAX) / L by less than e / 2 + L e / 16,
    t being the probe's real term. The screen's float bound is within e of
    that real bound. A ruled-out run's float mean is therefore below
    tau - BAND + (L / 16 + 2) e, which is below tau for any run of fewer
    than 250,000 segments. The winner's mean is at least tau, since the
    detected best competes, so the run loses on the first sort key.
    """
    if plan.detected_cuts is None:
        return None, plan.recuts
    best = rank_hypotheses(_matrix(plan, plan.detected_cuts, rows))[0]
    if not plan.recuts:
        return best, ()
    probe = np.array([rows[plan.probe(cuts)][start] for start, _, cuts in plan.recuts])
    length = np.array([len(cuts) + 1 for _, _, cuts in plan.recuts])
    bound = (np.log(probe + LOG_EPS) + (length - 1) * T_MAX) / length
    keep = bound >= best.mean_score - BAND
    return best, tuple(run for run, kept in zip(plan.recuts, keep) if kept)


def _matrix(
    plan: SpanPlan, cuts: tuple[int, ...], rows: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """The (segments, intervals) probability matrix of one cut layout of ``plan``."""
    return np.array([rows[seg] for seg in plan.layout(cuts)])


def classify_segments(
    series: EnuSeries, plans: list[SpanPlan], ensemble: IntervalEnsemble
) -> tuple[dict[tuple[int, int], np.ndarray], list[Screened]]:
    """The probability row of every segment the plans' decoding reads, and each plan's screen.

    Rows are keyed by their segment's ``[a, b)``. Two rounds, each one
    ``features.extract_batch`` call under ``ensemble.config`` and one
    ``predict_matrix`` call over the distinct segments not yet classified:
    round 1 takes every detected layout's segments and every re-cut run's
    probe, round 2 the other segments of the runs that ``_screen`` keeps.
    A segment that several layouts or spans share is computed once; a round
    with nothing left to classify is skipped, so plans that cut nothing
    classify nothing. The second value holds ``_screen``'s result for each
    plan, in order, for ``infer_with_segment_tolerance``.
    """
    rows: dict[tuple[int, int], np.ndarray] = {}

    def classify(segments) -> None:
        spans = sorted(set(segments) - rows.keys())
        if spans:
            X = features.extract_batch([series.enu[a:b] for a, b in spans], ensemble.config)
            rows.update(zip(spans, ensemble.predict_matrix(X)))

    first: list[tuple[int, int]] = []
    for plan in plans:
        if plan.detected_cuts is not None:
            first += plan.layout(plan.detected_cuts)
        first += [plan.probe(cuts) for _, _, cuts in plan.recuts]
    classify(first)
    screens = [_screen(plan, rows) for plan in plans]
    classify(
        seg
        for plan, (_, runs) in zip(plans, screens)
        for _, _, cuts in runs
        for seg in plan.layout(cuts)
    )
    return rows, screens


def infer_with_segment_tolerance(
    plan: SpanPlan,
    rows: dict[tuple[int, int], np.ndarray],
    screened: Screened,
) -> ToleranceResult:
    """Decode one planned span from the probability rows of its segments.

    ``rows`` maps each segment's ``[a, b)`` recording samples to its
    probability row and ``screened`` is the plan's ``_screen`` result, both
    as ``classify_segments`` returns them; a row of a run that the screen
    rules out is never read, and given every row the result is the same.
    The detected layout's best hypothesis (the first of
    ``rank_hypotheses``) and every re-cut run the screen keeps compete on
    mean per-segment score, with ties going to the layout that matches the
    detected count, then the lower start interval, then forward. When no
    layout fits, ``best`` is ``None``.
    """
    detected_best, runs = screened
    scored: list[tuple[TraceHypothesis, tuple[int, ...]]] = []
    if detected_best is not None:
        scored.append((detected_best, plan.detected_cuts))
    for start, direction, cuts in runs:
        P = _matrix(plan, cuts, rows)
        h = TraceHypothesis(start, direction, len(cuts) + 1, score_run(P, start, direction))
        scored.append((h, cuts))
    if not scored:
        return ToleranceResult(best=None, points=(), detected=plan.detected)

    best, best_cuts = min(
        scored,
        key=lambda hc: (
            -hc[0].mean_score,
            abs(hc[0].length - plan.detected),
            hc[0].start_interval,
            hc[0].direction != FORWARD,
        ),
    )
    return ToleranceResult(best=best, points=best_cuts, detected=plan.detected)


def check_mode(mode: str) -> None:
    """Reject a decoding mode other than ``DECODE_MODES``."""
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
