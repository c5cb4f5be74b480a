"""Harness utilities, anchored by an exhaustive edit-distance check.

The DP implementation is compared against a memoized top-down recursion
(written from the textbook definition) over every pair of increasing
sequences of up to six points drawn from a fixed grid whose gaps straddle
the matching tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from subtrace import coord, evalharness, features, infer, segment
from subtrace.evalharness import (
    _random_chunks,
    confusion_matrix,
    edit_distance,
    enumerate_subtrips,
    evaluate_subtrips,
    predict_subtrip,
    single_model_ensemble,
)

TOL = 10.0
# gaps of 4..33 s: some pairs match at 10 s tolerance, some do not
GRID = (0.0, 4.0, 9.0, 15.0, 22.0, 38.0, 71.0)


def oracle_distance(pred: tuple[float, ...], true: tuple[float, ...], tol: float) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(pred):
            return len(true) - j
        if j == len(true):
            return len(pred) - i
        sub = go(i + 1, j + 1) + (0 if abs(pred[i] - true[j]) < tol else 1)
        return min(sub, go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


def all_sequences(max_len: int) -> list[tuple[float, ...]]:
    seqs: list[tuple[float, ...]] = []
    for n in range(max_len + 1):
        seqs.extend(itertools.combinations(GRID, n))
    return seqs


class TestEditDistance:
    def test_exhaustive_up_to_six_points(self):
        seqs = all_sequences(6)
        checked = 0
        for a in seqs:
            for b in seqs:
                assert edit_distance(list(a), list(b)) == oracle_distance(a, b, TOL)
                checked += 1
        assert checked == len(seqs) ** 2

    def test_identical(self):
        assert edit_distance([10.0, 50.0, 90.0], [10.0, 50.0, 90.0]) == 0

    def test_within_tolerance_is_a_match(self):
        assert edit_distance([10.0, 50.0], [18.0, 43.0]) == 0

    def test_tolerance_boundary_is_strict(self):
        assert edit_distance([0.0], [10.0]) == 1
        assert edit_distance([0.0], [9.999]) == 0

    def test_missing_point_costs_one(self):
        assert edit_distance([10.0, 90.0], [10.0, 50.0, 90.0]) == 1

    def test_spurious_point_costs_one(self):
        assert edit_distance([10.0, 50.0, 90.0], [10.0, 90.0]) == 1

    def test_empty_sequences(self):
        assert edit_distance([], []) == 0
        assert edit_distance([1.0, 2.0], []) == 2
        assert edit_distance([], [1.0, 2.0, 3.0]) == 3


class TestConfusionMatrix:
    def test_rows_are_percent(self):
        pairs = [(0, 0), (0, 0), (0, 1), (1, 1)]
        conf = confusion_matrix(pairs, 2)
        assert conf.shape == (2, 2)
        assert conf[0].tolist() == pytest.approx([200.0 / 3.0, 100.0 / 3.0])
        assert conf[1].tolist() == [0.0, 100.0]

    def test_empty_row_stays_zero(self):
        conf = confusion_matrix([(0, 0)], 3)
        assert conf[1].tolist() == [0.0, 0.0, 0.0]
        assert conf[2].tolist() == [0.0, 0.0, 0.0]


class TestRandomChunks:
    def test_partitions_exactly_and_never_leaves_a_singleton(self):
        rng = np.random.default_rng(0)
        for n in range(2, 40):
            for _ in range(20):
                sizes = _random_chunks(n, rng)
                assert sum(sizes) == n
                assert all(s >= 2 for s in sizes)


class TestEnumerateSubtrips:
    def test_counts_and_spans(self, small_corpus):
        k = small_corpus.network.num_intervals
        subs = enumerate_subtrips(small_corpus, (3,))
        # every trip rides the full line: k - 3 + 1 windows per trip
        assert len(subs) == len(small_corpus.trips) * (k - 3 + 1)
        for st in subs:
            assert st.length == 3
            assert len(st.uids) == 3
            assert st.span[0] < st.span[1]
            assert st.direction in ("forward", "reverse")

    def test_longer_than_trip_yields_nothing(self, small_corpus):
        k = small_corpus.network.num_intervals
        assert enumerate_subtrips(small_corpus, (k + 1,)) == []


@pytest.fixture(scope="module")
def small_ensemble(small_corpus, small_config):
    return single_model_ensemble(small_corpus, small_config)


def with_other_thresholds(ensemble):
    """The ensemble with its exceedance thresholds doubled, so it featurises otherwise."""
    thr = tuple(tuple(2 * t for t in row) for row in ensemble.config.nvht_thresholds)
    return replace(ensemble, config=replace(ensemble.config, nvht_thresholds=thr))


def record_featurised(monkeypatch) -> list[list[tuple[bytes, object]]]:
    """Patch the batch extractor to log each call's segments, as bytes, with its config."""
    calls = []
    real = features.extract_batch

    def logging_extract(segments, config):
        calls.append([(seg.tobytes(), config) for seg in segments])
        return real(segments, config)

    monkeypatch.setattr(features, "extract_batch", logging_extract)
    return calls


def record_rounds(monkeypatch) -> list[list[list[tuple[bytes, object]]]]:
    """Patch the batch extractor and the harness's decoder to log each
    ``decode_spans`` call as the list of its ``extract_batch`` calls."""
    calls = record_featurised(monkeypatch)
    rounds = []
    real = evalharness.decode_spans

    def logging_decode(*args):
        first = len(calls)
        decoded = real(*args)
        rounds.append(calls[first:])
        return decoded

    monkeypatch.setattr(evalharness, "decode_spans", logging_decode)
    return rounds


def every_segment_bytes(corpus, lengths, mode) -> set[bytes]:
    """Every segment some cut layout of some subtrip cuts: what an exhaustive decoder featurises."""
    segs = set()
    for trip, trace in enumerate(corpus.trips):
        series = coord.transform(trace)
        for st in enumerate_subtrips(corpus, lengths):
            if st.trip != trip:
                continue
            lo, hi = st.span
            points, _ = segment.find_final_segment_points(series.hra[lo:hi], corpus.network)
            plan = infer.plan_span(series, lo, hi, corpus.network, points, mode)
            layouts = [cuts for _, _, cuts in plan.recuts]
            if plan.detected_cuts is not None:
                layouts.append(plan.detected_cuts)
            segs |= {series.enu[a:b].tobytes() for cuts in layouts for a, b in plan.layout(cuts)}
    return segs


def record_decoded(monkeypatch) -> list:
    """Patch the scorer to log the ``ToleranceResult`` of every subtrip the harness decodes."""
    results = []
    real = infer.infer_with_segment_tolerance

    def logging_score(plan, rows, screened):
        results.append(real(plan, rows, screened))
        return results[-1]

    monkeypatch.setattr(infer, "infer_with_segment_tolerance", logging_score)
    return results


def decode_alone(series, st, ensemble, network, mode):
    """One subtrip decoded on its own."""
    [(result, _)] = infer.decode_spans(series, [st.span], network, ensemble, mode)
    return result


def separate_results(corpus, ensemble_for, lengths, mode):
    """Every subtrip decoded alone, sharing nothing between them."""
    series = [coord.transform(t) for t in corpus.trips]
    return [
        decode_alone(series[st.trip], st, ensemble_for(st.trip), corpus.network, mode)
        for st in enumerate_subtrips(corpus, lengths)
    ]


def separate_predictions(corpus, ensemble_for, lengths, mode):
    """The ride of every subtrip decoded alone."""
    return [res.best for res in separate_results(corpus, ensemble_for, lengths, mode)]


def same_result(a, b) -> bool:
    """Two ``ToleranceResult``s equal: ``best`` with its score bit for bit, and ``points``."""
    bits = lambda res: None if res.best is None else res.best.score.hex()  # noqa: E731
    return a == b and bits(a) == bits(b)


class TestFeatureReuse:
    """evaluate_subtrips featurises each segment of a trip once, in one batch per screening
    round of each (trip, model)."""

    LENGTHS = (3, 5)

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_same_predictions_as_one_subtrip_at_a_time(
        self, small_corpus, small_ensemble, mode, monkeypatch
    ):
        corpus = replace(small_corpus, trips=small_corpus.trips[:3])
        rounds = record_rounds(monkeypatch)
        decoded = record_decoded(monkeypatch)
        report = evaluate_subtrips(corpus, lambda _: small_ensemble, self.LENGTHS, mode=mode)
        monkeypatch.undo()
        calls = record_featurised(monkeypatch)
        alone = separate_results(corpus, lambda _: small_ensemble, self.LENGTHS, mode)

        # same results with the same scores, bit for bit: best and cuts
        assert len(decoded) == len(alone) == len(report.predictions)
        assert all(same_result(a, b) for a, b in zip(decoded, alone))
        assert [hyp for _, hyp in report.predictions] == [res.best for res in alone]
        assert all(res.best is not None for res in alone)
        # one batch per round, each round classifying one more segment of every open
        # run, so at most as many as the longest re-cut run has segments (one without
        # re-cuts); each segment in one batch
        assert len(rounds) == len(corpus.trips)
        assert all(1 <= len(r) <= (max(self.LENGTHS) + 1 if mode == "full" else 1) for r in rounds)
        shared = [seg for r in rounds for call in r for seg, _ in call]
        distinct = {seg for call in calls for seg, _ in call}
        assert len(shared) == len(set(shared)) < sum(len(call) for call in calls)
        samples = lambda segs: sum(len(seg) for seg in segs)  # noqa: E731
        if mode == "full":
            # overlapping subtrips' runs share segments, so the trip's one cover may
            # probe a segment that no subtrip decoded alone probes; here it featurises
            # fewer samples than the subtrips decoded alone do between them
            assert samples(shared) < samples(distinct)
        else:
            assert set(shared) == distinct
        # the screen featurises fewer samples than every layout's segments
        exhaustive = every_segment_bytes(corpus, self.LENGTHS, mode)
        if mode == "full":
            assert samples(shared) < samples(exhaustive)
        else:
            assert set(shared) == exhaustive

    def test_trips_with_different_configs_share_nothing(
        self, small_corpus, small_ensemble, monkeypatch
    ):
        # the same recording twice: a batch keyed by sample range alone would
        # hand the second copy the first copy's features
        trip = small_corpus.trips[0]
        corpus = replace(small_corpus, trips=[trip, trip])
        other = with_other_thresholds(small_ensemble)
        ensembles = [small_ensemble, other]
        rounds = record_rounds(monkeypatch)
        report = evaluate_subtrips(corpus, lambda ti: ensembles[ti], self.LENGTHS)

        configs = [{c for call in r for _, c in call} for r in rounds]
        assert configs == [{e.config} for e in ensembles]
        # round 1 (the detected layouts and a cover of the re-cut runs) cuts the same
        # segments for both models; later rounds depend on what each model's rows rule out
        first, second = ({seg for seg, _ in r[0]} for r in rounds)
        assert first == second
        alone = separate_predictions(corpus, lambda ti: ensembles[ti], self.LENGTHS, "full")
        assert [hyp for _, hyp in report.predictions] == alone

    def test_config_change_within_a_trip_starts_afresh(
        self, small_corpus, small_ensemble, monkeypatch
    ):
        corpus = replace(small_corpus, trips=small_corpus.trips[:1])
        other = with_other_thresholds(small_ensemble)

        def alternating():
            ensembles = itertools.cycle([small_ensemble, other])
            return lambda _: next(ensembles)

        rounds = record_rounds(monkeypatch)
        report = evaluate_subtrips(corpus, alternating(), self.LENGTHS)
        # one classification per model the trip's subtrips were given
        assert [{c for call in r for _, c in call} for r in rounds] == [
            {small_ensemble.config}, {other.config}
        ]
        alone = separate_predictions(corpus, alternating(), self.LENGTHS, "full")
        assert [hyp for _, hyp in report.predictions] == alone

    def test_ensemble_for_called_once_per_subtrip_in_order(self, small_corpus, small_ensemble):
        corpus = replace(small_corpus, trips=small_corpus.trips[:2])
        asked = []

        def ensemble_for(ti):
            asked.append(ti)
            return small_ensemble

        report = evaluate_subtrips(corpus, ensemble_for, self.LENGTHS)
        assert asked == [st.trip for st, _ in report.predictions]
        assert [st for st, _ in report.predictions] == enumerate_subtrips(corpus, self.LENGTHS)


class TestPredictSubtripOutcome:
    """``None`` means only that no ride fits; any other fault propagates."""

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_unscorable_subtrip_is_none(self, small_corpus, small_ensemble, mode, monkeypatch):
        m = small_corpus.network.num_intervals

        def too_many_cuts(hra, network):
            return [int(p) for p in np.linspace(0, len(hra), m + 4)[1:-1]], False

        st = enumerate_subtrips(small_corpus, (3,))[0]
        series = coord.transform(small_corpus.trips[st.trip])
        monkeypatch.setattr(segment, "find_final_segment_points", too_many_cuts)
        [(result, _)] = infer.decode_spans(
            series, [st.span], small_corpus.network, small_ensemble, mode
        )
        assert result == infer.ToleranceResult(best=None, points=(), detected=m + 3)
        assert predict_subtrip(result) is None
        corpus = replace(small_corpus, trips=small_corpus.trips[:1])
        report = evaluate_subtrips(corpus, lambda _: small_ensemble, (3,), mode=mode)
        hyps = [hyp for _, hyp in report.predictions]
        assert hyps and all(hyp is None for hyp in hyps)

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_featurisation_error_propagates(self, small_corpus, small_ensemble, mode, monkeypatch):
        def broken(segments, config):
            raise ValueError("featurizer broke")

        monkeypatch.setattr(features, "extract_batch", broken)
        corpus = replace(small_corpus, trips=small_corpus.trips[:1])
        with pytest.raises(ValueError, match="featurizer broke"):
            evaluate_subtrips(corpus, lambda _: small_ensemble, (3,), mode=mode)


BAD_MODES = ["Full", "fast", ""]


class TestUnknownModeRejected:
    """A mode other than "full" or "reduced" used to score reduced mode silently."""

    @pytest.mark.parametrize("mode", BAD_MODES)
    def test_predict_subtrip(self, small_corpus, small_ensemble, mode):
        # a subtrip is predicted from its decoded span, and planning the span refuses the mode
        st = enumerate_subtrips(small_corpus, (3,))[0]
        series = coord.transform(small_corpus.trips[st.trip])
        with pytest.raises(ValueError, match="unknown attack mode"):
            infer.decode_spans(series, [st.span], small_corpus.network, small_ensemble, mode)

    @pytest.mark.parametrize("mode", BAD_MODES)
    def test_evaluate_subtrips_scores_nothing(
        self, small_corpus, small_ensemble, mode, monkeypatch
    ):
        # refused up front: planning a span refuses the mode too, but only after segmenting it
        def never(*args, **kwargs):
            pytest.fail("a subtrip was segmented under an unknown mode")

        monkeypatch.setattr(segment, "find_final_segment_points", never)
        with pytest.raises(ValueError, match="unknown attack mode"):
            evaluate_subtrips(small_corpus, lambda _: small_ensemble, (3,), mode=mode)


class TestBadLengthsRejected:
    """A length below 1 used to crash the segmenter, and a repeated one scored its subtrips twice."""

    @pytest.mark.parametrize("lengths", [(0,), (-1,), (3, 3), (3.0,), (True,)])
    def test_evaluate_subtrips_scores_nothing(
        self, small_corpus, small_ensemble, lengths, monkeypatch
    ):
        def never(*args, **kwargs):
            pytest.fail("a subtrip was segmented under bad lengths")

        monkeypatch.setattr(segment, "find_final_segment_points", never)
        with pytest.raises(ValueError, match="subtrip lengths must be distinct and at least 1"):
            evaluate_subtrips(small_corpus, lambda _: small_ensemble, lengths)
