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
   and n+1 families. Each family is planned as arrays, one row per run: its
   cuts from one running sum per row of nominal durations and dwells
   (``_family_cuts``), snapped to HRA minima from one gather of every cut's
   window (``_snap``). "reduced" mode plans the detected layout alone.
3. *Round 1.* ``_table`` gives every segment that a layout of a plan cuts,
   detected or re-cut, one id, in ``(a, b)`` order, and ``_classify`` keeps
   one probability row per id, with a mask of the rows known. Round 1
   featurises the detected layouts' segments, every segment of a plan
   without detected cuts, and a greedy cover of the other re-cut runs
   (``_cover``: segments that give each run at least one classified
   segment), in id order in one ``features.extract_batch`` call, and
   classifies them in one ``predict_matrix`` call.
4. *Screen.* Each re-cut run's segments are slots of one flat array of
   terms, log(p + LOG_EPS) where the segment is classified. A run is ruled
   out when its classified segments alone prove that its mean per-segment
   score falls below the detected layout's best (``_screen``, which proves
   the bound).
5. *Later rounds.* While a run that survives has unclassified segments, a
   cover of those runs' unclassified segments is featurised and classified
   in one more batch, and the survivors are screened again. Each round
   classifies at least one more segment of every open run, so there are at
   most as many rounds as the longest re-cut run has segments. Reduced mode
   plans no re-cuts, so it needs one round.
6. *Score.* Each detected best is the first of ``rank_hypotheses`` over its
   layout's rows, and each kept run's score the sum of its slots' terms.
   ``infer_with_segment_tolerance``, the one scorer, picks each plan's
   winner from them; a span that no hypothesis fits is a result whose
   ``best`` is ``None``, not an error.

The attack decodes a recording's extracted rides, and the evaluation
harness a trip's subtrips, through ``decode_spans`` alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _ride_ids(n: int, m: int) -> np.ndarray:
    """The undirected ids of every n-interval run on m intervals, one row per run in ``candidate_runs`` order."""
    forward = np.arange(m - n + 1)[:, None] + np.arange(n)
    # the reverse run from start s + n - 1 reads forward run s's ids backwards
    return np.concatenate([forward, forward[:, ::-1]])


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
    scores = np.log(P + LOG_EPS)[np.arange(n), _ride_ids(n, m)].sum(axis=1)
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


def _family_cuts(durations: np.ndarray, dwell: float, n_samples: int, rate: float) -> np.ndarray:
    """Interior cut samples of each run's legs, one row per run, scaled to the span.

    ``durations`` holds each run's nominal leg durations, one row per run.
    Legs are separated by nominal dwells and each cut lands on a dwell
    centre. Each row's elapsed time is one running sum of ``d + dwell / 2``,
    then ``dwell / 2``, leg by leg, and its total the running sum of its
    durations plus ``dwell * (legs - 1)``, so each cut has the bits of adding
    the terms one at a time, left to right. The cut is
    ``(elapsed * scale) * rate`` rounded half to even.
    """
    legs = durations.shape[1]
    total = np.cumsum(durations, axis=1)[:, -1] + dwell * (legs - 1)
    scale = (n_samples / rate) / total
    half = 0.5 * dwell
    steps = np.full((len(durations), 2 * legs - 2), half)
    steps[:, ::2] = durations[:, :-1] + half
    elapsed = np.cumsum(steps, axis=1)[:, ::2]
    return np.rint(elapsed * scale[:, None] * rate).astype(np.intp)


def _snap(cuts: np.ndarray, windows: np.ndarray, w: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cuts moved to the quietest sample within ``w`` of each, and which rows keep a layout.

    Cut c snaps to the first minimum of the span's HRA over samples
    ``[max(prev + 1, c - w), min(n - 1, c + w + 1))``, ``prev`` being the
    row's previous snap (0 before the first), and a row whose window comes
    out empty is crossed and not kept. ``windows[c]`` holds samples
    ``c - w, ..., c + w`` of the span's HRA, +inf outside ``[1, n - 1)``, so
    every snap is read from it at once as if no previous snap truncated its
    window. Snaps only move later when a window is truncated, so when none
    is, every snap stands; otherwise a column pass, cut by cut, snaps again
    the cuts whose window the previous snap truncates.
    """
    lo = np.maximum(cuts - w, 1)
    hi = np.minimum(cuts + w + 1, n - 1)
    kept = (lo < hi).all(axis=1)
    snapped = cuts - w + windows[cuts].argmin(axis=2)
    if (snapped[:, :-1] >= lo[:, 1:]).any():
        for j in range(1, cuts.shape[1]):
            rows = np.flatnonzero(snapped[:, j - 1] >= lo[:, j])
            first = snapped[rows, j - 1] + 1
            kept[rows[first >= hi[rows, j]]] = False
            c = cuts[rows, j]
            window = windows[c]
            window[np.arange(2 * w + 1) < (first - (c - w))[:, None]] = np.inf
            snapped[rows, j] = c - w + window.argmin(axis=1)
    return snapped, kept


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
    the n-segment layout, unless it has more segments than the line has
    intervals or its sorted cuts do not rise strictly inside ``(0, hi - lo)``;
    then ``detected_cuts`` is ``None``. In ``"full"`` mode the span is also
    re-cut per candidate run for n-1 and n+1 segments, each family as arrays
    in ``candidate_runs`` order: cuts on nominal dwell centres scaled to the
    span (``_family_cuts``), snapped to HRA minima (``_snap``); a run whose
    snaps cross is dropped. ``"reduced"`` mode keeps the detected layout
    alone. An unknown ``mode``, or a span that is not a non-empty range of
    the recording, raises ``ValueError``.
    """
    check_mode(mode)
    _check_span(series, lo, hi)
    points = sorted(points)
    n_samples = hi - lo
    m = network.num_intervals
    n_detected = len(points) + 1
    bounds = [0, *points, n_samples]
    use_detected = n_detected <= m and all(a < b for a, b in zip(bounds, bounds[1:]))
    families = [f for f in (n_detected - 1, n_detected + 1) if 1 <= f <= m] if mode == "full" else []
    recuts: list[tuple[int, str, tuple[int, ...]]] = []
    if families:
        w = network.samples(SNAP_WINDOW_S)
        # padded[i] is sample i - w of the span; no cut snaps to sample 0 or to n - 1 on
        padded = np.full(n_samples + 2 * w + 1, np.inf)
        padded[w + 1 : w + n_samples - 1] = series.hra[lo + 1 : hi - 1]
        windows = sliding_window_view(padded, 2 * w + 1)
        nominal = np.array([network.nominal_duration(u) for u in range(m)])
        for fam in families:
            durations = nominal[_ride_ids(fam, m)]
            cuts = _family_cuts(durations, network.dwell_nominal, n_samples, network.sample_rate)
            snapped, kept = _snap(cuts, windows, w, n_samples)
            runs = zip(candidate_runs(fam, m), snapped.tolist(), kept.tolist())
            recuts.extend((start, direction, tuple(row)) for (start, direction), row, k in runs if k)
    return SpanPlan(lo, hi, n_detected, tuple(points) if use_detected else None, tuple(recuts))


def _check_span(series: EnuSeries, lo: int, hi: int) -> None:
    """Reject a span that is not a non-empty ``[lo, hi)`` range of ``series``' samples."""
    if not 0 <= lo < hi <= len(series.hra):
        raise ValueError(
            f"span [{lo}, {hi}) is not a non-empty range of the recording's {len(series.hra)} samples"
        )


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
    row of ``rank_hypotheses``' row-wise sum or, for a kept re-cut run, the
    sum of its slots' terms, all real by then: L - 1 roundings, each of a
    partial sum of j <= L terms, below 32 j, so within j e / 16.
    Left-to-right adding, with j = 2, ..., L, has the largest such total of
    any order. Summing L float terms therefore rounds by less than
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


def _table(
    plans: list[SpanPlan],
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray | None], np.ndarray, np.ndarray, np.ndarray]:
    """Every segment a layout of ``plans`` cuts, as ``(a, b, detected, seg, col, run)``.

    Segment id i is recording samples ``[a[i], b[i])``, the ids counting in
    ``(a, b)`` order. ``detected`` holds each plan's detected layout as ids
    in ride order, ``None`` without detected cuts. The flat arrays hold
    every re-cut run's segments, run after run in plan order: slot i is
    segment ``seg[i]`` of run ``run[i]``, the runs counted across ``plans``,
    and its term is read from column ``col[i]`` of that segment's row.
    """
    runs = [r for plan in plans for r in plan.recuts]
    layouts = [(plan, cuts) for plan in plans for _, _, cuts in plan.recuts]
    layouts += [(plan, plan.detected_cuts) for plan in plans if plan.detected_cuts is not None]
    length = np.array([len(cuts) + 1 for _, cuts in layouts], dtype=np.intp)
    owner = np.repeat(np.arange(len(layouts)), length)
    pos = np.arange(len(owner)) - (np.cumsum(length) - length)[owner]  # place in the ride
    last = pos == length[owner] - 1
    cuts = np.fromiter(
        chain.from_iterable(cuts for _, cuts in layouts), dtype=np.int64, count=len(owner) - len(layouts)
    )
    a = np.array([plan.lo for plan, _ in layouts], dtype=np.int64)[owner]
    b = a.copy()
    a[pos > 0] += cuts
    b[~last] += cuts
    b[last] = [plan.hi for plan, _ in layouts]
    width = max((plan.hi for plan in plans), default=0) + 1
    keys, ids = np.unique(a * width + b, return_inverse=True)
    slots = int(length[: len(runs)].sum())
    layout_ids = iter(np.split(ids[slots:], np.cumsum(length[len(runs) :])[:-1]))
    detected = [None if plan.detected_cuts is None else next(layout_ids) for plan in plans]
    run = owner[:slots]
    sign = np.array([1 if d == FORWARD else -1 for _, d, _ in runs], dtype=np.intp)
    col = np.array([s for s, _, _ in runs], dtype=np.intp)[run] + sign[run] * pos[:slots]
    return keys // width, keys % width, detected, ids[:slots], col, run


def _classify(
    series: EnuSeries, plans: list[SpanPlan], ensemble: IntervalEnsemble
) -> list[tuple[TraceHypothesis | None, list[tuple[TraceHypothesis, tuple[int, ...]]]]]:
    """Each plan's detected best, and each re-cut run the screen keeps, scored, with its cuts.

    Row i of ``P`` is the probability row of ``_table``'s segment id i once
    ``known[i]``. Classification runs in rounds, each one
    ``features.extract_batch`` call under ``ensemble.config`` and one
    ``predict_matrix`` call over the segments the round wants that are not
    yet known, in id order. Round 1 wants every detected layout's segments,
    every segment of a plan without detected cuts (nothing there can be
    screened) and a ``_cover`` of the other re-cut runs. After each round
    ``_screen`` rules out what it can; while a run it keeps has
    unclassified segments, the next round wants a ``_cover`` of those runs'
    unclassified segments. A segment that several layouts or spans share is
    computed once; a round with nothing left to classify is skipped, so
    plans that cut nothing classify nothing. A plan without detected cuts
    has no detected best (``None``).
    """
    a, b, detected, seg, col, run = _table(plans)
    per_plan = [len(plan.recuts) for plan in plans]
    length = np.bincount(run, minlength=sum(per_plan))
    terms = np.full(len(seg), T_MAX)
    P = np.empty((len(a), ensemble.n_classes))
    known = np.zeros(len(a), dtype=bool)
    want = known.copy()
    want[[i for ids in detected if ids is not None for i in ids]] = True
    unscreened = np.repeat(np.array([ids is None for ids in detected], dtype=bool), per_plan)
    want[seg[unscreened[run]]] = True
    kept = np.ones(len(length), dtype=bool)
    tau = None
    while True:
        # each kept run with unclassified segments that this round misses gets one of its own
        missed = kept & (np.bincount(run[want[seg]], minlength=len(length)) == 0)
        open_ = missed[run] & ~known[seg]
        want[_cover(seg[open_], run[open_], b - a)] = True
        batch = np.flatnonzero(want)  # a round wants no classified segment
        if len(batch):
            segments = [series.enu[i:j] for i, j in zip(a[batch].tolist(), b[batch].tolist())]
            P[batch] = ensemble.predict_matrix(features.extract_batch(segments, ensemble.config))
            new = want[seg]
            terms[new] = np.log(P[seg[new], col[new]] + LOG_EPS)
            known |= want
        if tau is None:
            bests = [None if ids is None else rank_hypotheses(P[ids])[0] for ids in detected]
            tau = np.repeat([-math.inf if h is None else h.mean_score for h in bests], per_plan)
        kept &= _screen(terms, run, length, tau)
        if known[seg[kept[run]]].all():
            break
        want[:] = False
    # every slot of a kept run holds a real term now, and the run's score is their sum
    scored = iter(
        (TraceHypothesis(s, d, len(cuts) + 1, float(terms[end - len(cuts) - 1 : end].sum())), cuts)
        if k else None
        for (s, d, cuts), end, k in zip(chain(*(p.recuts for p in plans)), np.cumsum(length).tolist(), kept)
    )
    return [(best, [r for r in islice(scored, n) if r]) for best, n in zip(bests, per_plan)]


def infer_with_segment_tolerance(
    plan: SpanPlan,
    detected_best: TraceHypothesis | None,
    runs: list[tuple[TraceHypothesis, tuple[int, ...]]],
) -> ToleranceResult:
    """The winner of one planned span: its detected best or one of its scored re-cut runs.

    ``detected_best`` and ``runs`` are the plan's detected best and its kept
    runs, each with its cuts, as ``_classify`` returns them. They compete on
    mean per-segment score, with ties going to the layout that matches the
    detected count, then the lower start interval, then forward. When no
    layout fits, ``best`` is ``None``.
    """
    scored = runs if detected_best is None else [(detected_best, plan.detected_cuts), *runs]
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
    A span that is not a non-empty range of ``series``' samples raises
    ``ValueError`` naming it before any span is segmented; an unknown
    ``mode`` raises ``ValueError`` when the first span is planned.
    """
    for lo, hi in spans:
        _check_span(series, lo, hi)
    plans, warnings = [], []
    for lo, hi in spans:
        points, warn = segment.find_final_segment_points(series.hra[lo:hi], network)
        plans.append(plan_span(series, lo, hi, network, points, mode))
        warnings.append(bool(warn))
    return [
        (infer_with_segment_tolerance(plan, best, runs), warn)
        for plan, (best, runs), warn in zip(plans, _classify(series, plans, ensemble), warnings)
    ]


def check_mode(mode: str) -> None:
    """Reject a decoding mode other than ``DECODE_MODES``."""
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
