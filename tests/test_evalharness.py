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

from subtrace import coord, evalharness, segment
from subtrace.evalharness import (
    _random_chunks,
    confusion_matrix,
    edit_distance,
    enumerate_subtrips,
    evaluate_subtrips,
    predict_subtrip,
    single_model_ensemble,
)
from subtrace.features import SliceFeatures

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


def record_featurised(monkeypatch) -> list[tuple[bytes, object]]:
    """Patch the batch extractor to log each segment's bytes and config."""
    from subtrace import features

    calls = []
    real = features.extract_batch

    def logging_extract(segments, config):
        calls.extend((seg.tobytes(), config) for seg in segments)
        return real(segments, config)

    monkeypatch.setattr(features, "extract_batch", logging_extract)
    return calls


def separate_predictions(corpus, ensemble_for, lengths, mode):
    """predict_subtrip on every subtrip alone, sharing nothing between them."""
    seg_params = segment.params_for_network(corpus.network)
    series = [coord.transform(t) for t in corpus.trips]
    predictions = []
    for st in enumerate_subtrips(corpus, lengths):
        ensemble = ensemble_for(st.trip)
        own = SliceFeatures(series[st.trip].enu, ensemble.config)
        predictions.append(
            predict_subtrip(series[st.trip], st, ensemble, corpus.network, seg_params, mode, own)
        )
    return predictions


class TestFeatureReuse:
    """evaluate_subtrips featurises each segment of a trip once."""

    LENGTHS = (3, 5)

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_same_predictions_as_one_subtrip_at_a_time(
        self, small_corpus, small_ensemble, mode, monkeypatch
    ):
        corpus = replace(small_corpus, trips=small_corpus.trips[:3])
        calls = record_featurised(monkeypatch)
        report = evaluate_subtrips(corpus, lambda _: small_ensemble, self.LENGTHS, mode=mode)
        shared = list(calls)
        calls.clear()
        alone = separate_predictions(corpus, lambda _: small_ensemble, self.LENGTHS, mode)

        # same rides with the same scores, bit for bit
        assert [hyp for _, hyp in report.predictions] == alone
        assert all(hyp is not None for hyp in alone)
        # every segment the separate runs featurise, once each
        distinct = {seg for seg, _ in calls}
        assert len(shared) == len(distinct) < len(calls)
        assert {seg for seg, _ in shared} == distinct

    def test_trips_with_different_configs_share_nothing(
        self, small_corpus, small_ensemble, monkeypatch
    ):
        # the same recording twice: a memo keyed by sample range alone would
        # hand the second copy the first copy's features
        trip = small_corpus.trips[0]
        corpus = replace(small_corpus, trips=[trip, trip])
        other = replace(small_ensemble, config=replace(small_ensemble.config, smooth_k=5))
        ensembles = [small_ensemble, other]
        calls = record_featurised(monkeypatch)
        report = evaluate_subtrips(corpus, lambda ti: ensembles[ti], self.LENGTHS)

        by_config = {
            cfg: {seg for seg, c in calls if c == cfg}
            for cfg in (small_ensemble.config, other.config)
        }
        assert len(calls) == sum(len(segs) for segs in by_config.values())
        assert by_config[small_ensemble.config] == by_config[other.config]
        alone = separate_predictions(corpus, lambda ti: ensembles[ti], self.LENGTHS, "full")
        assert [hyp for _, hyp in report.predictions] == alone

    def test_config_change_within_a_trip_starts_afresh(self, small_corpus, small_ensemble):
        corpus = replace(small_corpus, trips=small_corpus.trips[:1])
        other = replace(small_ensemble, config=replace(small_ensemble.config, smooth_k=5))

        def alternating():
            ensembles = itertools.cycle([small_ensemble, other])
            return lambda _: next(ensembles)

        report = evaluate_subtrips(corpus, alternating(), self.LENGTHS)
        alone = separate_predictions(corpus, alternating(), self.LENGTHS, "full")
        assert [hyp for _, hyp in report.predictions] == alone


class TestPredictSubtripOutcome:
    """``None`` means only that no ride fits; any other fault propagates."""

    def subtrip(self, corpus, ensemble):
        st = enumerate_subtrips(corpus, (3,))[0]
        series = coord.transform(corpus.trips[st.trip])
        featurize = SliceFeatures(series.enu, ensemble.config)
        return series, st, segment.params_for_network(corpus.network), featurize

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_unscorable_subtrip_is_none(self, small_corpus, small_ensemble, mode, monkeypatch):
        m = small_corpus.network.num_intervals

        def too_many_cuts(hra, params):
            return [int(p) for p in np.linspace(0, len(hra), m + 4)[1:-1]], False

        series, st, params, featurize = self.subtrip(small_corpus, small_ensemble)
        monkeypatch.setattr(segment, "find_final_segment_points", too_many_cuts)
        got = predict_subtrip(series, st, small_ensemble, small_corpus.network, params, mode, featurize)
        assert got is None

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_featurisation_error_propagates(self, small_corpus, small_ensemble, mode):
        series, st, params, _ = self.subtrip(small_corpus, small_ensemble)

        def broken(spans):
            raise ValueError("featurizer broke")

        with pytest.raises(ValueError, match="featurizer broke"):
            predict_subtrip(series, st, small_ensemble, small_corpus.network, params, mode, broken)


BAD_MODES = ["Full", "fast", ""]


class TestUnknownModeRejected:
    """A mode other than "full" or "reduced" used to score reduced mode silently."""

    @pytest.mark.parametrize("mode", BAD_MODES)
    def test_predict_subtrip(self, small_corpus, small_ensemble, mode):
        st = enumerate_subtrips(small_corpus, (3,))[0]
        series = coord.transform(small_corpus.trips[st.trip])
        seg_params = segment.params_for_network(small_corpus.network)
        featurize = SliceFeatures(series.enu, small_ensemble.config)
        with pytest.raises(ValueError, match="unknown attack mode"):
            predict_subtrip(
                series, st, small_ensemble, small_corpus.network, seg_params, mode, featurize
            )

    @pytest.mark.parametrize("mode", BAD_MODES)
    def test_evaluate_subtrips_scores_nothing(
        self, small_corpus, small_ensemble, mode, monkeypatch
    ):
        def never(*args, **kwargs):
            pytest.fail("a subtrip was scored under an unknown mode")

        monkeypatch.setattr(evalharness, "predict_subtrip", never)
        with pytest.raises(ValueError, match="unknown attack mode"):
            evaluate_subtrips(small_corpus, lambda _: small_ensemble, (3,), mode=mode)
