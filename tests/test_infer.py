"""Ride inference checked against naive exhaustive references.

brute_force_best re-derives the winning hypothesis with explicit id lists
and scalar log sums, sharing no code with the ranking under test.
frozen_score_run and frozen_rank are frozen copies of the scorer from before
all runs of a matrix were scored as one array: one numpy sum per hypothesis,
whose bits the array ranking must reproduce. exhaustive_decode is a frozen
copy of the span scorer from before re-cut runs were screened, built on
them: it scores every layout from every segment's row, so the screened
two-round decoder must pick the same ride, cuts and score bits.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from dataclasses import replace

from subtrace import coord, features, infer, segment
from subtrace.evalharness import (
    defended_corpus,
    enumerate_subtrips,
    paired_corpus,
    single_model_ensemble,
)
from subtrace.features import extract_batch
from subtrace.infer import (
    FORWARD,
    REVERSE,
    SpanPlan,
    TraceHypothesis,
    candidate_runs,
    rank_hypotheses,
    score_run,
)
from subtrace.pipeline import PipelineConfig, true_trip_layout
from subtrace.segment import find_final_segment_points

EPS = 1e-12


def brute_force_best(P) -> tuple[int, str, float]:
    """Best (start, direction, score) by scanning every possible run.

    Forward runs walk ids upward from the start, reverse runs walk them
    downward; any run that leaves [0, m) is impossible. Ties prefer the
    lower start, then forward.
    """
    P = np.asarray(P, dtype=float)
    n, m = P.shape
    best_key = None
    best = None
    for direction in (FORWARD, REVERSE):
        for start in range(m):
            step = 1 if direction == FORWARD else -1
            ids = [start + step * j for j in range(n)]
            if any(i < 0 or i >= m for i in ids):
                continue
            score = 0.0
            for row, col in enumerate(ids):
                score += math.log(P[row, col] + EPS)
            key = (-score, start, direction != FORWARD)
            if best_key is None or key < best_key:
                best_key = key
                best = (start, direction, score)
    if best is None:
        raise ValueError("no feasible run")
    return best


def random_matrix(rng, n, m):
    P = rng.random((n, m))
    return P / P.sum(axis=1, keepdims=True)


def frozen_score_run(P, start, direction):
    """Log-likelihood of one run: a gather, a log and a sum of its own."""
    n = len(P)
    ride = range(start, start + n) if direction == FORWARD else range(start, start - n, -1)
    return float(np.sum(np.log(P[np.arange(n), ride] + EPS)))


def frozen_rank(P):
    """Every feasible run scored one at a time, best first, ties to the lower start, then forward."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n, m = P.shape
    runs = [(s, FORWARD) for s in range(m - n + 1)] + [(s, REVERSE) for s in range(n - 1, m)]
    hyps = [TraceHypothesis(s, d, n, frozen_score_run(P, s, d)) for s, d in runs]
    hyps.sort(key=lambda h: (-h.score, h.start_interval, h.direction != FORWARD))
    return hyps


class TestArrayScoresMatchFrozenScorer:
    """One row-wise sum over the gathered log terms gives every run the per-run sum's bits."""

    @staticmethod
    def ranked(hyps):
        return [(h.start_interval, h.direction, h.length, h.score.hex()) for h in hyps]

    @pytest.mark.parametrize("kind", ["random", "spiky", "uniform"])
    def test_every_run_of_every_shape(self, kind):
        # runs of 8 or more rows cross numpy's pairwise-sum block
        rng = np.random.default_rng(407)
        for m in range(1, 13):
            for n in range(1, m + 1):
                for _ in range(1 if kind == "uniform" else 4):
                    if kind == "random":
                        P = random_matrix(rng, n, m)
                    elif kind == "spiky":
                        P = np.zeros((n, m))
                        P[np.arange(n), rng.integers(0, m, size=n)] = 1.0
                    else:
                        P = np.full((n, m), 1.0 / m)
                    assert self.ranked(rank_hypotheses(P)) == self.ranked(frozen_rank(P))


class TestCandidateRuns:
    def test_counts(self):
        for m in (1, 2, 5, 10, 30):
            for n in range(1, m + 1):
                cands = candidate_runs(n, m)
                assert len(cands) == 2 * (m - n + 1)
                assert len(set(cands)) == len(cands)

    def test_runs_stay_on_line(self):
        for s, d in candidate_runs(4, 9):
            ids = TraceHypothesis(s, d, 4, 0.0).interval_ids()
            assert all(0 <= i < 9 for i in ids)

    def test_longer_than_line_is_empty(self):
        assert candidate_runs(5, 4) == []
        with pytest.raises(ValueError):
            rank_hypotheses(np.full((5, 4), 0.25))

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError):
            candidate_runs(0, 5)


class TestAgainstBruteForce:
    def test_random_matrices(self):
        rng = np.random.default_rng(404)
        for _ in range(300):
            m = int(rng.integers(1, 31))
            n = int(rng.integers(1, min(m, 10) + 1))
            P = random_matrix(rng, n, m)
            want_s, want_d, want_score = brute_force_best(P)
            got = rank_hypotheses(P)[0]
            assert (got.start_interval, got.direction) == (want_s, want_d)
            assert got.score == pytest.approx(want_score, rel=1e-12)

    def test_spiky_matrices(self):
        # near-deterministic rows exercise the log floor
        rng = np.random.default_rng(405)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(1, m + 1))
            P = np.zeros((n, m))
            P[np.arange(n), rng.integers(0, m, size=n)] = 1.0
            want_s, want_d, _ = brute_force_best(P)
            got = rank_hypotheses(P)[0]
            assert (got.start_interval, got.direction) == (want_s, want_d)


class TestTieBreaks:
    def test_uniform_single_segment(self):
        got = rank_hypotheses(np.full((1, 6), 1 / 6))[0]
        assert (got.start_interval, got.direction) == (0, FORWARD)

    def test_uniform_prefers_low_start_forward(self):
        got = rank_hypotheses(np.full((3, 8), 0.125))[0]
        assert (got.start_interval, got.direction) == (0, FORWARD)

    def test_forward_beats_mirrored_reverse(self):
        # fwd from 0 and rev from 1 read the same cells in opposite order
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        got = rank_hypotheses(P)[0]
        assert (got.start_interval, got.direction) == (0, FORWARD)

    def test_clear_reverse_wins(self):
        P = np.array([[0.05, 0.05, 0.9], [0.05, 0.9, 0.05], [0.9, 0.05, 0.05]])
        got = rank_hypotheses(P)[0]
        assert (got.start_interval, got.direction, got.length) == (2, REVERSE, 3)


class TestHypothesisShape:
    def test_interval_ids(self):
        assert TraceHypothesis(2, FORWARD, 3, 0.0).interval_ids() == (2, 3, 4)
        assert TraceHypothesis(4, REVERSE, 3, 0.0).interval_ids() == (4, 3, 2)

    def test_mean_score(self):
        h = TraceHypothesis(0, FORWARD, 4, -8.0)
        assert h.mean_score == -2.0

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            TraceHypothesis(0, "sideways", 1, 0.0)

    def test_score_run_known_values(self):
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        want = math.log(0.7 + EPS) + math.log(0.8 + EPS)
        assert score_run(P, 0, FORWARD) == pytest.approx(want, rel=1e-15)
        want_rev = math.log(0.3 + EPS) + math.log(0.2 + EPS)
        assert score_run(P, 1, REVERSE) == pytest.approx(want_rev, rel=1e-15)

    def test_ranking_sorted(self):
        rng = np.random.default_rng(7)
        P = random_matrix(rng, 4, 9)
        hyps = rank_hypotheses(P)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len(hyps) == 2 * (9 - 4 + 1)


@pytest.fixture(scope="module")
def ensemble(small_corpus, small_config):
    return single_model_ensemble(small_corpus, small_config)


def screen_and_decode(plan, rows):
    """Screen ``plan`` from ``rows`` and decode it, as ``_classify`` and the scorer do."""
    return infer.infer_with_segment_tolerance(plan, rows, infer._screen(plan, rows))


def decode(series, lo, hi, ensemble, network, points, mode):
    """Decode samples ``[lo, hi)`` of ``series`` alone, planned at the given ``points``."""
    plan = infer.plan_span(series, lo, hi, network, points, mode)
    rows, (screened,) = infer._classify(series, [plan], ensemble)
    return infer.infer_with_segment_tolerance(plan, rows, screened)


def plan_detected(series, span, network, mode):
    """Plan ``span`` of ``series`` at the segmenter's own cuts, as ``decode_spans`` plans it."""
    lo, hi = span
    points, _ = find_final_segment_points(series.hra[lo:hi], network)
    return infer.plan_span(series, lo, hi, network, points, mode)


class TestSegmentTolerance:
    def _layout(self, corpus, ti):
        trace = corpus.trips[ti]
        lay = true_trip_layout(trace)
        pts = [c - lay.span[0] for c in lay.cuts]
        return lay, coord.transform(trace), pts

    def test_exact_cuts_recover_truth(self, small_corpus, ensemble):
        for ti in range(len(small_corpus.trips)):
            lay, series, pts = self._layout(small_corpus, ti)
            r = decode(series, *lay.span, ensemble, small_corpus.network, pts, "full")
            assert r.best.length == r.detected == lay.n_legs
            got = (r.best.start_interval, r.best.direction, r.best.length)
            assert got == (lay.uids[0], lay.direction, lay.n_legs)

    @pytest.mark.parametrize("ti", [0, 1])
    @pytest.mark.parametrize("drop", [0, 2])
    def test_missing_cut_recovered(self, small_corpus, ensemble, ti, drop):
        lay, series, pts = self._layout(small_corpus, ti)
        degraded = [p for j, p in enumerate(pts) if j != drop]
        r = decode(series, *lay.span, ensemble, small_corpus.network, degraded, "full")
        assert r.detected == lay.n_legs - 1
        assert r.best.length == lay.n_legs
        got = (r.best.start_interval, r.best.direction, r.best.length)
        assert got == (lay.uids[0], lay.direction, lay.n_legs)

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_same_result_in_recording_and_span_coordinates(self, small_corpus, ensemble, mode):
        # decoding [lo, hi) of the whole trip must match decoding a series that starts at lo
        network = small_corpus.network
        for ti in range(len(small_corpus.trips)):
            lay, series, true_pts = self._layout(small_corpus, ti)
            lo, hi = lay.span
            shifted = coord.EnuSeries(series.enu[lo:], series.hra[lo:])
            detected, _ = find_final_segment_points(series.hra[lo:hi], network)
            for pts in (true_pts, detected):
                whole = decode(series, lo, hi, ensemble, network, pts, mode)
                own = decode(shifted, 0, hi - lo, ensemble, network, pts, mode)
                assert whole.best == own.best
                assert whole.best.score.hex() == own.best.score.hex()
                assert (whole.points, whole.detected) == (own.points, own.detected)


class TestDecodeSpans:
    """``decode_spans`` decodes each span as planning, classifying and scoring it alone would."""

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_each_span_as_if_decoded_alone(self, small_corpus, ensemble, mode, monkeypatch):
        network = small_corpus.network
        series = coord.transform(small_corpus.trips[0])
        # overlapping subtrips of one trip, longest first, so span order is not sample order
        spans = [st.span for st in enumerate_subtrips(small_corpus, (2, 3)) if st.trip == 0][::-1]
        segmented = []

        def logging_segmenter(hra, net):
            segmented.append(len(hra))
            return find_final_segment_points(hra, net)

        monkeypatch.setattr(segment, "find_final_segment_points", logging_segmenter)
        decoded = infer.decode_spans(series, spans, network, ensemble, mode)
        assert segmented == [hi - lo for lo, hi in spans]
        assert len(decoded) == len(spans)
        for (lo, hi), (res, warn) in zip(spans, decoded):
            points, want_warn = find_final_segment_points(series.hra[lo:hi], network)
            want = decode(series, lo, hi, ensemble, network, points, mode)
            assert res == want
            assert res.best.score.hex() == want.best.score.hex()
            assert warn is bool(want_warn)


def layout_stub(P, seg_len=10):
    """A planned span of len(P) equal segments whose segment j has row j of ``P``.

    The rows go straight to the scoring phase, so the scorer sees exactly
    the rows of ``P``.
    """
    n, m = P.shape
    points = [seg_len * j for j in range(1, n)]
    series = SimpleNamespace(hra=np.zeros(seg_len * n))
    network = SimpleNamespace(sample_rate=10.0, num_intervals=m)
    plan = infer.plan_span(series, 0, seg_len * n, network, points, "reduced")
    rows = {(seg_len * j, seg_len * (j + 1)): P[j] for j in range(n)}
    return plan, rows, points


class TestDecodeSpan:
    """Decoding scores both modes; reduced mode is the detected-cut family alone."""

    def test_reduced_equals_ranking_on_random_matrices(self):
        rng = np.random.default_rng(406)
        for _ in range(300):
            m = int(rng.integers(1, 31))
            n = int(rng.integers(1, min(m, 10) + 1))
            P = random_matrix(rng, n, m)
            plan, rows, points = layout_stub(P)
            assert set(plan.layout(plan.detected_cuts)) == set(rows)
            res = screen_and_decode(plan, rows)
            want = rank_hypotheses(P)
            assert res.best == want[0]
            assert res.best.score.hex() == want[0].score.hex()
            assert (res.points, res.detected) == (tuple(points), n)

    def test_reduced_equals_ranking_on_corpus(self, small_corpus, ensemble):
        for trace in small_corpus.trips:
            lo, hi = true_trip_layout(trace).span
            series = coord.transform(trace)
            points, _ = find_final_segment_points(series.hra[lo:hi], small_corpus.network)
            bounds = [lo, *(lo + p for p in points), hi]
            segs = [series.enu[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
            P = ensemble.predict_matrix(extract_batch(segs, ensemble.config))
            res = decode(series, lo, hi, ensemble, small_corpus.network, points, "reduced")
            want = rank_hypotheses(P)
            assert res.best == want[0]
            assert res.best.score.hex() == want[0].score.hex()
            assert res.points == tuple(points)

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_unscorable_span_is_a_result(self, small_corpus, ensemble, mode, monkeypatch):
        # m + 2 cuts: the detected family and both re-cut families exceed the line
        m = small_corpus.network.num_intervals
        series = coord.transform(small_corpus.trips[0])
        n = len(series.hra)
        points = [int(p) for p in np.linspace(0, n, m + 4)[1:-1]]

        def never(segments, config):
            pytest.fail("a span that no hypothesis fits was featurised")

        monkeypatch.setattr(features, "extract_batch", never)
        res = decode(series, 0, n, ensemble, small_corpus.network, points, mode)
        assert res.best is None
        assert res.points == ()
        assert res.detected == m + 3


# --- the re-cut screen against a frozen exhaustive scorer ---------------------


def every_segment(plan):
    """Every segment some cut layout of ``plan`` makes: what an exhaustive decoder featurises."""
    layouts = [cuts for _, _, cuts in plan.recuts]
    if plan.detected_cuts is not None:
        layouts.append(plan.detected_cuts)
    return {seg for cuts in layouts for seg in plan.layout(cuts)}


def exhaustive_decode(plan, rows):
    """``(best, points)`` of ``plan`` with every layout scored, as the scorer did before screening.

    The detected layout's three best hypotheses and every re-cut run compete
    on mean score; ties go to the detected count, then the lower start, then
    forward. Every run is scored one at a time by the frozen scorer.
    ``rows`` must hold every segment's row.
    """
    def matrix_for(cuts):
        bounds = [plan.lo, *(plan.lo + c for c in cuts), plan.hi]
        return np.array([rows[sp] for sp in zip(bounds[:-1], bounds[1:])])

    scored = []
    if plan.detected_cuts is not None:
        for h in frozen_rank(matrix_for(plan.detected_cuts))[:3]:
            scored.append((h, plan.detected_cuts))
    for start, direction, cuts in plan.recuts:
        score = frozen_score_run(matrix_for(cuts), start, direction)
        h = TraceHypothesis(start, direction, len(cuts) + 1, score)
        scored.append((h, cuts))
    if not scored:
        return None, ()
    scored.sort(
        key=lambda hc: (
            -hc[0].mean_score,
            abs(hc[0].length - plan.detected),
            hc[0].start_interval,
            hc[0].direction != FORWARD,
        )
    )
    return scored[0]


class ReadLog(dict):
    """Probability rows that remember which of them the scorer read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, seg):
        self.read.add(seg)
        return super().__getitem__(seg)


def assert_same_as_exhaustive(plan, rows, all_rows, screened):
    """The scorer matches the frozen scorer bit for bit.

    It is given its own rows with ``screened``, the plan's screen result
    from them, and every row with the plan screened from every row.
    """
    want_best, want_points = exhaustive_decode(plan, all_rows)
    for res in (
        infer.infer_with_segment_tolerance(plan, rows, screened),
        screen_and_decode(plan, all_rows),
    ):
        assert (res.best, res.points, res.detected) == (want_best, want_points, plan.detected)
        if want_best is not None:
            assert res.best.score.hex() == want_best.score.hex()


def check_corpus(corpus, ensemble, lengths, mode):
    """Decode every subtrip of ``corpus`` both ways; the counts of segments classified screened and exhaustively."""
    screened = exhaustive = 0
    for trip, trace in enumerate(corpus.trips):
        series = coord.transform(trace)
        sts = [st for st in enumerate_subtrips(corpus, lengths) if st.trip == trip]
        plans = [plan_detected(series, st.span, corpus.network, mode) for st in sts]
        rows, screens = infer._classify(series, plans, ensemble)
        segs = sorted(set().union(*(every_segment(p) for p in plans)))
        X = extract_batch([series.enu[a:b] for a, b in segs], ensemble.config)
        all_rows = dict(zip(segs, ensemble.predict_matrix(X)))
        assert rows.keys() <= all_rows.keys()
        for plan, screen in zip(plans, screens):
            assert_same_as_exhaustive(plan, rows, all_rows, screen)
        screened += len(rows)
        exhaustive += len(all_rows)
    return screened, exhaustive


@pytest.fixture(scope="module")
def default_ensemble(acceptance_corpus):
    """The default config's model, trained on every true cut of the default corpus."""
    return single_model_ensemble(acceptance_corpus, PipelineConfig())


@pytest.fixture(scope="module")
def noisy_corpora(small_corpus, small_config):
    return {
        "clean": small_corpus,
        "defense": defended_corpus(small_corpus, small_config, 1.0)[0],
        "shake": paired_corpus(small_config, hand_shake_amp=16.0),
    }


class TestScreenAgainstExhaustive:
    """Screened two-round decoding picks what scoring every layout picks, featurising less."""

    @pytest.mark.parametrize("setting", ["clean", "defense", "shake"])
    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_six_interval_corpus(self, noisy_corpora, ensemble, setting, mode):
        screened, exhaustive = check_corpus(noisy_corpora[setting], ensemble, (2, 3, 5), mode)
        if mode == "reduced":
            assert screened == exhaustive
        elif setting == "clean":
            assert screened < exhaustive

    @pytest.mark.parametrize("setting", ["clean", "defense"])
    def test_ten_interval_corpus(self, acceptance_corpus, default_ensemble, setting):
        # the benchmark's traffic: the default line and model, lengths 3, 5 and 7, full mode
        corpus = acceptance_corpus
        if setting == "defense":
            corpus = defended_corpus(corpus, PipelineConfig(), 1.0)[0]
        few = replace(corpus, trips=corpus.trips[:3])
        screened, exhaustive = check_corpus(few, default_ensemble, (3, 5, 7), "full")
        assert screened < exhaustive

    def test_unscreened_without_detected_cuts(self, small_corpus, ensemble):
        # m + 1 segments: the detected layout fits no ride, so tau is -inf and every
        # run of the n - 1 family is featurised and scored
        m = small_corpus.network.num_intervals
        lay = true_trip_layout(small_corpus.trips[0])
        series = coord.transform(small_corpus.trips[0])
        lo, hi = lay.span
        points = [int(p) for p in np.linspace(0, hi - lo, m + 2)[1:-1]]
        plan = infer.plan_span(series, lo, hi, small_corpus.network, points, "full")
        assert plan.detected_cuts is None and len(plan.recuts) > 1
        rows, (screened,) = infer._classify(series, [plan], ensemble)
        assert rows.keys() == every_segment(plan)
        log = ReadLog(rows)
        assert_same_as_exhaustive(plan, log, rows, screened)
        assert log.read == every_segment(plan)


M = 6
SPAN = 1200


def stub_plan(detected, runs, m=M):
    """A hand-built plan and its rows: ``detected`` rows (or ``None``) and re-cut runs.

    ``runs`` holds ``(start, direction, rows)``. Layout r (0 the detected one,
    r >= 1 the runs) of k rows cuts at j * (SPAN // k) + r, so no two layouts
    share a segment unless both have one row.
    """
    all_rows = {}

    def cut(r, layout_rows):
        k = len(layout_rows)
        cuts = tuple(j * (SPAN // k) + r for j in range(1, k))
        bounds = [0, *cuts, SPAN]
        for seg, row in zip(zip(bounds[:-1], bounds[1:]), layout_rows):
            all_rows[seg] = np.asarray(row, dtype=float)
        return cuts

    detected_cuts = None if detected is None else cut(0, detected)
    recuts = tuple((s, d, cut(r, rws)) for r, (s, d, rws) in enumerate(runs, start=1))
    n = len(detected) if detected is not None else len(runs[0][2]) + 1
    return SpanPlan(0, SPAN, n, detected_cuts, recuts), all_rows


def onehot(col, p=1.0, m=M):
    """A row with ``p`` at ``col`` and the rest spread evenly."""
    row = np.full(m, (1.0 - p) / (m - 1))
    row[col] = p
    return row


def run_segments(plan, r):
    """The segments of re-cut run ``r`` (counting from 0), probe first."""
    return plan.layout(plan.recuts[r][2])


class TestScreenEdges:
    """Plans built at the bound's edges, checked against the frozen exhaustive scorer."""

    def decode_logged(self, plan, all_rows):
        log = ReadLog(all_rows)
        assert_same_as_exhaustive(plan, log, all_rows, infer._screen(plan, log))
        log.read.clear()
        res = screen_and_decode(plan, log)
        return res, log.read

    def test_probe_of_one_is_kept_and_can_win(self):
        # detected: 0.9 on the ride 0, 1, 2; run: probe p = 1.0 exactly, then certainty
        detected = [onehot(j, 0.9) for j in range(3)]
        runs = [(1, FORWARD, [onehot(1, 1.0), onehot(2, 1.0), onehot(3, 1.0), onehot(4, 1.0)])]
        plan, rows = stub_plan(detected, runs)
        res, read = self.decode_logged(plan, rows)
        assert set(run_segments(plan, 0)) <= read
        assert (res.best.start_interval, res.best.length) == (1, 4)

    def test_probe_of_one_is_kept_and_can_lose(self):
        detected = [onehot(j, 0.9) for j in range(3)]
        runs = [(1, FORWARD, [onehot(1, 1.0), onehot(0, 0.9), onehot(0, 0.9), onehot(0, 0.9)])]
        plan, rows = stub_plan(detected, runs)
        res, read = self.decode_logged(plan, rows)
        assert set(run_segments(plan, 0)) <= read
        assert res.best.length == 3 and res.points == plan.detected_cuts

    def test_probe_of_zero_is_ruled_out_unread(self):
        # the run's other rows are certain, yet its zero probe alone proves it loses
        detected = [onehot(j, 0.5) for j in range(3)]
        runs = [(0, FORWARD, [onehot(1, 1.0), onehot(1, 1.0), onehot(2, 1.0), onehot(3, 1.0)])]
        plan, rows = stub_plan(detected, runs)
        assert rows[run_segments(plan, 0)[0]][0] == 0.0
        res, read = self.decode_logged(plan, rows)
        probe, *rest = run_segments(plan, 0)
        assert probe in read and not read & set(rest)
        assert res.points == plan.detected_cuts

    def test_probe_of_zero_is_kept_when_it_can_still_win(self):
        # a long run on a wide line: a zero probe spread over nine certain segments
        # still beats a uniform detected layout of eight
        m = 30
        detected = [np.full(m, 1.0 / m)] * 8
        runs = [(0, FORWARD, [onehot(1, 1.0, m)] + [onehot(j, 1.0, m) for j in range(1, 9)])]
        plan, rows = stub_plan(detected, runs, m)
        res, read = self.decode_logged(plan, rows)
        assert set(run_segments(plan, 0)) <= read
        assert (res.best.start_interval, res.best.length) == (0, 9)

    @pytest.mark.parametrize("offset, kept", [(-0.5, True), (-2.0, False)])
    def test_band_edge(self, offset, kept, monkeypatch):
        # a one-segment run scores its probe term alone; its bound sits just inside
        # or just outside BAND below the detected best
        detected = [onehot(j, 0.7) for j in range(2)]
        tau = infer.rank_hypotheses(np.array(detected))[0].mean_score
        p = math.exp(tau + offset * infer.BAND) - infer.LOG_EPS
        plan, rows = stub_plan(detected, [(2, REVERSE, [onehot(2, p)])])
        res, read = self.decode_logged(plan, rows)
        assert (run_segments(plan, 0)[0] in read) and res.points == plan.detected_cuts
        assert res.best.length == 2
        # the run's only row is its probe: what shows the screen is whether it was scored
        scored = []
        real = infer.score_run
        monkeypatch.setattr(
            infer, "score_run", lambda P, s, d: scored.append((s, d, len(P))) or real(P, s, d)
        )
        screen_and_decode(plan, rows)
        assert ((2, REVERSE, 1) in scored) == kept

    def test_run_that_ties_the_detected_best_is_scored_and_loses_the_tie(self):
        # uniform rows: a one-segment run's mean t equals the two-segment
        # detected best's (t + t) / 2 exactly, so the detected count decides
        uniform = np.full(M, 1.0 / M)
        plan, rows = stub_plan([uniform, uniform], [(3, REVERSE, [uniform])])
        tau = infer.rank_hypotheses(np.array([uniform, uniform]))[0].mean_score
        assert tau == infer.score_run(np.array([uniform]), 3, REVERSE)
        res, read = self.decode_logged(plan, rows)
        assert set(run_segments(plan, 0)) <= read
        assert res.points == plan.detected_cuts
        assert (res.best.start_interval, res.best.direction) == (0, FORWARD)

    def test_tied_runs_break_toward_lower_start_then_forward(self):
        # three runs of equal score beat a weak detected layout; the lower start wins,
        # and at equal start forward beats reverse
        weak = [onehot(0, 0.2), onehot(5, 0.2), onehot(0, 0.2)]
        certain = [onehot(2, 1.0), onehot(3, 1.0)]
        mirrored = [onehot(2, 1.0), onehot(1, 1.0)]
        runs = [
            (3, FORWARD, [onehot(3, 1.0), onehot(4, 1.0)]),
            (2, REVERSE, mirrored),
            (2, FORWARD, certain),
        ]
        plan, rows = stub_plan(weak, runs)
        res, read = self.decode_logged(plan, rows)
        assert all(set(run_segments(plan, r)) <= read for r in range(3))
        assert (res.best.start_interval, res.best.direction) == (2, FORWARD)
        assert res.points == plan.recuts[2][2]

    def test_no_detected_cuts_screens_nothing(self):
        # every probe is zero, yet without a detected best nothing is ruled out
        runs = [(s, FORWARD, [onehot((s + 1) % M, 1.0), onehot(s + 1, 1.0)]) for s in range(3)]
        plan, rows = stub_plan(None, runs)
        res, read = self.decode_logged(plan, rows)
        assert read == every_segment(plan)
        assert res.best.start_interval == 0
