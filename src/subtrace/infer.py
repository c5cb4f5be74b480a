"""Trace inference: from a probability matrix to a ride hypothesis.

A trip of n segments on a line with m station intervals can only be one of
2(m - n + 1) things: a forward run or a reverse run starting somewhere on the
line. Each candidate is scored by summing log probabilities of its intervals
across the per-segment distributions, a deterministic tie-break picks the
winner, and an optional tolerance pass re-cuts the span under the n-1 and n+1
hypotheses in case the segmenter missed or invented one stop.

``decode_spans`` decodes every span of one recording, each a ``[lo, hi)``
range of its samples, in six phases, so that each segment it needs is
featurised and classified once, one batch per screening round:

1. *Segment.* ``segment.find_final_segment_points`` cuts each span at its
   dwells.
2. *Plan.* ``plan_span`` fixes every cut layout of one span: the detected
   cuts and, in "full" mode, one re-cut layout per candidate run of the n-1
   and n+1 families. "reduced" mode plans the detected layout alone.
3. *Round 1.* ``_classify`` featurises the detected layouts' segments, every
   segment of a plan without detected cuts, and a greedy cover of the
   other re-cut runs (``_cover``: segments that give each run at least one
   classified segment), in one ``features.extract_batch`` call, and
   classifies them in one ``predict_matrix`` call.
4. *Screen.* A re-cut run is ruled out when its classified segments alone
   prove that its mean per-segment score falls below the detected layout's
   best (``_screen``, which proves the bound).
5. *Later rounds.* While a run that survives has unclassified segments, a
   cover of those runs' unclassified segments is featurised and classified
   in one more batch, and the survivors are screened again. Each round
   classifies at least one more segment of every open run, so there are at
   most as many rounds as the longest re-cut run has segments. Reduced mode
   plans no re-cuts, so it needs one round.
6. *Score.* ``infer_with_segment_tolerance``, the one scorer, decodes each
   plan from the probability rows and its screen result; a span that no
   hypothesis fits is a result whose ``best`` is ``None``, not an error.

The attack decodes a recording's extracted rides, and the evaluation
harness a trip's subtrips, through ``decode_spans`` alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import features, segment
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


def _screen(terms: np.ndarray, run: np.ndarray, length: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Which re-cut runs the classified segments cannot rule out, as a mask over the runs.

    ``terms`` holds one float per segment of every run: log(p + LOG_EPS)
    of its row where the segment is classified, T_MAX where it is not.
    ``run`` names each term's run, ``length`` holds each run's segment count
    L and ``tau`` the ``mean_score`` of its plan's detected best, or -inf
    without detected cuts, so that nothing is ruled out. A run whose K
    classified segments give the terms t_1, ..., t_K is ruled out when

        (t_1 + ... + t_K + (L - K) * T_MAX) / L < tau - BAND.

    Why a ruled-out run can neither win nor tie. ``predict_matrix`` divides
    each non-negative row by its sum, so p <= 1 + 1e-9, and every real term
    log(p + LOG_EPS) lies in [log LOG_EPS, T*], T* = log(1 + 1e-9 +
    LOG_EPS), below 28 in magnitude. Let e = 2 ** -44, sixteen units in the
    last place of a float below 32 in magnitude. ``np.log`` is within 4 such
    units and one rounding within half a unit, so each float term is within
    e / 2 of its real term, and T_MAX within e / 2 of T*. A run's sum is one
    row of ``rank_hypotheses``' row-wise sum or ``score_run``'s sum: L - 1
    roundings, each of a partial sum of j <= L terms, below 32 j, so within
    j e / 16. Left-to-right adding, with j = 2, ..., L, has the largest such
    total of any order. Summing L float terms therefore rounds by less than
    (L - 1) L e / 16 in any order, and the division by L by e / 32, so a
    run's float mean is within e / 2 + L e / 16 of the real mean of its
    terms. The bound sums L floats too, its K terms and L - K copies of
    T_MAX, so it is within the same distance of the real bound, with T* in
    place of T_MAX. Every real term is at most T*, so the run's real mean is
    at most that real bound. A ruled-out run's float mean is therefore below
    tau - BAND + (L / 8 + 1) e, which is below tau for any run of fewer than
    100,000 segments. The winner's mean is at least tau, since the detected
    best competes, so the run loses on the first sort key.
    """
    bound = np.bincount(run, weights=terms, minlength=len(length)) / length
    return bound >= tau - BAND


def _cover(seg: np.ndarray, run: np.ndarray, samples: np.ndarray) -> list[int]:
    """Segment ids that between them hold a segment of every run in ``run``: a greedy set cover.

    ``seg`` and ``run`` pair each candidate segment id with a run it is in,
    grouped by run; ids count in ``(a, b)`` order, and ``samples`` gives
    each id's length. Each pick is the segment in the most runs not yet
    covered per sample, ties going to the lower id. Counts only fall, so a
    popped weight that is out of date is pushed back with its count now.
    """
    counts = np.bincount(seg, minlength=len(samples))
    ids = np.flatnonzero(counts)
    k_of = (np.cumsum(counts > 0) - 1)[seg]
    counts = counts[ids]
    run_ends = np.flatnonzero(np.diff(run, append=-1)) + 1
    run_of = np.repeat(np.arange(len(run_ends)), np.diff(run_ends, prepend=0))
    by_seg = run_of[np.argsort(k_of, kind="stable")].tolist()
    seg_ends = np.cumsum(counts).tolist()
    runs_of = [by_seg[i:j] for i, j in zip([0, *seg_ends], seg_ends)]
    ks, run_ends = k_of.tolist(), run_ends.tolist()
    ks_of = [ks[i:j] for i, j in zip([0, *run_ends], run_ends)]
    count = counts.tolist()
    size = samples[ids].tolist()
    heap = list(zip((-counts / samples[ids]).tolist(), ids.tolist(), range(len(ids))))
    heapq.heapify(heap)
    covered = [False] * len(ks_of)
    left = len(ks_of)
    picked = []
    while left:
        weight, s, k = heapq.heappop(heap)
        if not count[k]:
            continue
        if weight != -count[k] / size[k]:
            heapq.heappush(heap, (-count[k] / size[k], s, k))
            continue
        picked.append(s)
        for r in runs_of[k]:
            if not covered[r]:
                covered[r] = True
                left -= 1
                for k2 in ks_of[r]:
                    count[k2] -= 1
    return picked


def _matrix(
    plan: SpanPlan, cuts: tuple[int, ...], rows: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """The (segments, intervals) probability matrix of one cut layout of ``plan``."""
    return np.array([rows[seg] for seg in plan.layout(cuts)])


def _slots(plans: list[SpanPlan]) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray]:
    """Every re-cut run's segments, run after run in plan order, as ``(segs, seg, col, run)``.

    ``segs`` lists the distinct segments' ``[a, b)`` in ascending order.
    Slot i of the flat arrays is segment ``segs[seg[i]]`` of run ``run[i]``,
    the runs counted across ``plans``, and its term is read from column
    ``col[i]`` of that segment's row.
    """
    runs = [r for plan in plans for r in plan.recuts]
    per_plan = [len(plan.recuts) for plan in plans]
    length = np.array([len(cuts) + 1 for _, _, cuts in runs], dtype=np.intp)
    run = np.repeat(np.arange(len(runs)), length)
    pos = np.arange(len(run)) - (np.cumsum(length) - length)[run]  # place in the ride
    last = pos == length[run] - 1
    cuts = np.fromiter(
        chain.from_iterable(cuts for _, _, cuts in runs), dtype=np.int64, count=len(run) - len(runs)
    )
    a = np.repeat(np.array([plan.lo for plan in plans], dtype=np.int64), per_plan)[run]
    b = a.copy()
    a[pos > 0] += cuts
    b[~last] += cuts
    b[last] = np.repeat(np.array([plan.hi for plan in plans], dtype=np.int64), per_plan)
    sign = np.array([1 if d == FORWARD else -1 for _, d, _ in runs], dtype=np.intp)
    col = np.array([s for s, _, _ in runs], dtype=np.intp)[run] + sign[run] * pos
    width = max((plan.hi for plan in plans), default=0) + 1
    keys, seg = np.unique(a * width + b, return_inverse=True)
    return list(zip((keys // width).tolist(), (keys % width).tolist())), seg, col, run


def _classify(
    series: EnuSeries, plans: list[SpanPlan], ensemble: IntervalEnsemble
) -> tuple[dict[tuple[int, int], np.ndarray], list[Screened]]:
    """The probability row of every segment the plans' decoding reads, and each plan's screen.

    Rows are keyed by their segment's ``[a, b)``. Classification runs in
    rounds, each one ``features.extract_batch`` call under
    ``ensemble.config`` and one ``predict_matrix`` call over the distinct
    segments not yet classified. Round 1 takes every detected layout's
    segments, every segment of a plan without detected cuts (nothing there
    can be screened) and a ``_cover`` of the other re-cut runs. After each
    round ``_screen`` rules out what it can; while a run it keeps has
    unclassified segments, the next round takes a ``_cover`` of those runs'
    unclassified segments. A segment that several layouts or spans share is
    computed once; a round with nothing left to classify is skipped, so
    plans that cut nothing classify nothing. The second value holds each
    plan's detected best and kept runs, in order, for
    ``infer_with_segment_tolerance``.
    """
    rows: dict[tuple[int, int], np.ndarray] = {}
    fresh: set[tuple[int, int]] = set()
    for plan in plans:
        if plan.detected_cuts is not None:
            fresh.update(plan.layout(plan.detected_cuts))
        else:
            fresh.update(seg for _, _, cuts in plan.recuts for seg in plan.layout(cuts))
    segs, seg, col, run = _slots(plans)
    index = {ab: i for i, ab in enumerate(segs)}
    samples = np.array([b - a for a, b in segs], dtype=np.intp)
    per_plan = [len(plan.recuts) for plan in plans]
    length = np.bincount(run, minlength=sum(per_plan)).astype(float)
    terms = np.full(len(seg), T_MAX)
    known = np.zeros(len(segs), dtype=bool)
    kept = np.ones(len(length), dtype=bool)
    bests = None
    while True:
        # each kept run with unclassified segments that this round misses gets one of its own
        hit = np.zeros(len(segs), dtype=bool)
        hit[[index[ab] for ab in fresh if ab in index]] = True
        missed = kept & (np.bincount(run[hit[seg]], minlength=len(length)) == 0)
        open_ = missed[run] & ~known[seg]
        fresh.update(segs[s] for s in _cover(seg[open_], run[open_], samples))
        batch = sorted(fresh - rows.keys())
        if batch:
            X = features.extract_batch([series.enu[a:b] for a, b in batch], ensemble.config)
            P = ensemble.predict_matrix(X)
            rows.update(zip(batch, P))
            # the batch row of each segment id, -1 if not in the batch
            ids = np.array([index.get(ab, -1) for ab in batch], dtype=np.intp)
            in_runs = ids >= 0
            row_of = np.full(len(segs), -1, dtype=np.intp)
            row_of[ids[in_runs]] = np.flatnonzero(in_runs)
            new = row_of[seg] >= 0
            terms[new] = np.log(P[row_of[seg[new]], col[new]] + LOG_EPS)
            known |= row_of >= 0
        if bests is None:
            bests = [
                None if p.detected_cuts is None
                else rank_hypotheses(_matrix(p, p.detected_cuts, rows))[0]
                for p in plans
            ]
            tau = np.repeat([-math.inf if b is None else b.mean_score for b in bests], per_plan)
        kept &= _screen(terms, run, length, tau)
        if known[seg[kept[run]]].all():
            break
        fresh = set()
    screens: list[Screened] = []
    first = 0
    for plan, best in zip(plans, bests):
        flags = kept[first : first + len(plan.recuts)].tolist()
        screens.append((best, tuple(r for r, k in zip(plan.recuts, flags) if k)))
        first += len(plan.recuts)
    return rows, screens


def infer_with_segment_tolerance(
    plan: SpanPlan,
    rows: dict[tuple[int, int], np.ndarray],
    screened: Screened,
) -> ToleranceResult:
    """Decode one planned span from the probability rows of its segments.

    ``rows`` maps each segment's ``[a, b)`` recording samples to its
    probability row and ``screened`` is the plan's detected best and kept
    runs, both as ``_classify`` returns them; a row of a run that the screen
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


def decode_spans(
    series: EnuSeries,
    spans: list[tuple[int, int]],
    network: MetroNetwork,
    ensemble: IntervalEnsemble,
    mode: str,
) -> list[tuple[ToleranceResult, bool]]:
    """Each ``[lo, hi)`` span of ``series`` decoded, with its segmenter warning, in span order.

    Every span is segmented and planned first, so that the spans' segments
    are featurised and classified together, one batch per screening round.
    An unknown ``mode`` raises ``ValueError`` when the first span is planned.
    """
    plans, warnings = [], []
    for lo, hi in spans:
        points, warn = segment.find_final_segment_points(series.hra[lo:hi], network)
        plans.append(plan_span(series, lo, hi, network, points, mode))
        warnings.append(bool(warn))
    rows, screens = _classify(series, plans, ensemble)
    return [
        (infer_with_segment_tolerance(plan, rows, screened), warn)
        for plan, screened, warn in zip(plans, screens, warnings)
    ]


def check_mode(mode: str) -> None:
    """Reject a decoding mode other than ``DECODE_MODES``."""
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
