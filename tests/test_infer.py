"""Ride inference checked against a naive exhaustive reference.

brute_force_best re-derives the winning hypothesis with explicit id lists
and scalar log sums, sharing no code with the ranking under test.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from subtrace import coord, features, infer
from subtrace.evalharness import single_model_ensemble
from subtrace.features import extract_batch
from subtrace.infer import (
    FORWARD,
    REVERSE,
    TraceHypothesis,
    candidate_runs,
    rank_hypotheses,
    score_run,
)
from subtrace.pipeline import true_trip_layout
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


def decode(series, lo, hi, ensemble, network, points, mode):
    """Plan, classify and score samples ``[lo, hi)`` of ``series`` on their own."""
    plan = infer.plan_span(series, lo, hi, network, points, mode)
    return infer.infer_with_segment_tolerance(plan, infer.classify_segments(series, [plan], ensemble))


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

    def test_ranked_is_ordered_and_typed(self, small_corpus, ensemble):
        lay, series, pts = self._layout(small_corpus, 0)
        r = decode(series, *lay.span, ensemble, small_corpus.network, pts, "full")
        means = [h.mean_score for h, _ in r.ranked]
        assert means == sorted(means, reverse=True)
        for _, cuts in r.ranked:
            assert list(cuts) == sorted(cuts)

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
                assert whole.ranked == own.ranked


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
            assert plan.segments() == set(rows)
            res = infer.infer_with_segment_tolerance(plan, rows)
            want = rank_hypotheses(P)
            assert res.best == want[0]
            assert res.best.score.hex() == want[0].score.hex()
            assert res.ranked == tuple((h, tuple(points)) for h in want[: infer.TOP_K])
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
            assert res.ranked == tuple((h, tuple(points)) for h in want[: infer.TOP_K])

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
        assert res.ranked == () and res.points == ()
        assert res.detected == m + 3
