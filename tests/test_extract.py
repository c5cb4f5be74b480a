"""Metro extraction: thresholds, window features, refinement geometry.

The refinement cases use a classifier built from two exact feature clusters
(all-quiet and all-loud windows), which puts the metro decision at a known
sample count per window, so span boundaries have closed-form expected values.
The block back-scan is checked against a frozen copy of the one-window loop
on the acceptance corpus and on mixed days.
"""

import numpy as np
import pytest

from subtrace import extract
from subtrace.classify import GaussianNB
from subtrace.extract import (
    BACKSCAN_WINDOWS,
    METRO,
    NON_METRO,
    MetroSpan,
    ModeModel,
    classify_windows,
    extract_spans,
    fit_thresholds,
    refine_boundaries,
    train_mode_classifier,
    window_features,
)

W = 20
QUIET, LOUD = 0.0, 6.0


@pytest.fixture(scope="module")
def toy_model():
    # class 0: windows of all-quiet samples, class 1: all-loud; thresholds
    # sit between the two values so counts are 0 or W exactly
    quiet_row = [QUIET, 0.0, 0.0, 0.0, 0.0]
    loud_row = [LOUD, 0.0, float(W), float(W), float(W)]
    X = np.array([quiet_row] * 8 + [loud_row] * 8)
    y = np.array([0] * 8 + [1] * 8)
    return ModeModel(nb=GaussianNB.fit(X, y, 2), thresholds=(1.0, 2.0, 3.0))


def series(*parts):
    """Concatenate (value, n_samples) runs into one HRA array."""
    return np.concatenate([np.full(n, v) for v, n in parts])


class TestThresholds:
    def test_monotone_triple(self):
        rng = np.random.default_rng(0)
        ta, tb, tc = fit_thresholds(rng.uniform(0.0, 2.0, size=5000))
        assert ta < tb < tc
        assert 0.0 < ta and tc < 2.0

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_thresholds(np.full(100, 1.5))

    def test_numpys_percentiles_and_input_kept_in_order(self):
        hra = np.random.default_rng(4).exponential(size=3001)
        before = hra.copy()
        thresholds = fit_thresholds(hra)
        assert thresholds == tuple(float(np.percentile(before, p)) for p in extract.THRESHOLD_PERCENTILES)
        assert hra.tobytes() == before.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no metro HRA"):
            fit_thresholds(np.array([]))


class TestWindowFeatures:
    def test_hand_computed(self):
        hra = np.array([[0.0, 1.0, 2.0, 3.0]])
        rows = window_features(hra, (0.5, 1.5, 2.5))
        np.testing.assert_allclose(rows, [[1.5, 1.25, 3.0, 2.0, 1.0]])

    def test_offset_window(self):
        # the second 2-sample window of [9, 9, 1, 1] is its own row
        hra = np.array([9.0, 9.0, 1.0, 1.0])
        rows = window_features(hra.reshape(2, 2), (0.5, 1.5, 2.5))
        np.testing.assert_allclose(rows, [[9.0, 0.0, 2.0, 2.0, 2.0], [1.0, 0.0, 2.0, 0.0, 0.0]])

    def test_bad_window_size(self):
        with pytest.raises(ValueError):
            window_features(np.ones(4), (0.1, 0.2, 0.3))

    def test_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            window_features(np.ones((2, 0)), (0.1, 0.2, 0.3))


class TestTrainModeClassifier:
    def test_separable_data(self, toy_model):
        labels = classify_windows(series((QUIET, W), (LOUD, W)), toy_model, W)
        assert labels.tolist() == [NON_METRO, METRO]

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(n, 5\)"):
            train_mode_classifier(np.ones((4, 3)), np.array([0, 0, 1, 1]), (1, 2, 3))

    def test_both_classes_required(self):
        with pytest.raises(ValueError, match="both"):
            train_mode_classifier(np.ones((4, 5)), np.zeros(4, int), (1, 2, 3))

    def test_round_trip(self, toy_model):
        back = ModeModel.from_dict(toy_model.to_dict())
        assert back.thresholds == toy_model.thresholds
        hra = series((LOUD, W), (QUIET, W), (LOUD, W))
        labels = classify_windows(hra, back, W)
        assert labels.tolist() == classify_windows(hra, toy_model, W).tolist() == [1, 0, 1]

    def test_bad_document_rejected(self, toy_model):
        doc = toy_model.to_dict()
        doc["thresholds"] = doc["thresholds"][::-1]
        with pytest.raises(ValueError, match="mode thresholds must be 3 increasing"):
            ModeModel.from_dict(doc)


class TestClassifyWindows:
    def test_window_count_includes_partial(self, toy_model):
        hra = series((QUIET, 3 * W + W // 2))
        assert len(classify_windows(hra, toy_model, W)) == 4

    def test_pure_series(self, toy_model):
        labels = classify_windows(series((LOUD, 5 * W)), toy_model, W)
        assert labels.tolist() == [METRO] * 5
        labels = classify_windows(series((QUIET, 5 * W)), toy_model, W)
        assert labels.tolist() == [NON_METRO] * 5

    def test_trailing_partial_judged_on_full_window(self, toy_model):
        # the remainder alone is quiet-majority, but the last full W samples
        # are loud-majority, so the partial inherits the metro label
        hra = series((LOUD, 2 * W + 2), (QUIET, 9))
        labels = classify_windows(hra, toy_model, W)
        assert labels.tolist() == [METRO, METRO, METRO]

    @pytest.mark.parametrize("value,label", [(LOUD, METRO), (QUIET, NON_METRO)])
    def test_series_shorter_than_a_window_is_one_window(self, toy_model, value, label):
        labels = classify_windows(series((value, W // 2)), toy_model, W)
        assert labels.tolist() == [label]


class TestRefineBoundaries:
    def test_exact_interior_boundaries(self, toy_model):
        # loud block [2W, 5W); the back-scan lands on the exact transition
        hra = series((QUIET, 2 * W), (LOUD, 3 * W), (QUIET, 2 * W))
        labels = classify_windows(hra, toy_model, W)
        assert labels.tolist() == [0, 0, 1, 1, 1, 0, 0]
        spans = refine_boundaries(labels, hra, toy_model, W)
        assert spans == [MetroSpan(2 * W, 5 * W)]

    def test_isolated_miss_inside_ride_is_undone(self, toy_model):
        hra = series((LOUD, 5 * W))
        labels = np.array([1, 1, 0, 1, 1])
        spans = refine_boundaries(labels, hra, toy_model, W)
        assert spans == [MetroSpan(0, 5 * W)]

    def test_isolated_false_positive_is_undone(self, toy_model):
        hra = series((QUIET, 5 * W))
        labels = np.array([0, 0, 1, 0, 0])
        assert refine_boundaries(labels, hra, toy_model, W) == []

    def test_two_rides_stay_separate(self, toy_model):
        hra = series((LOUD, 2 * W), (QUIET, 2 * W), (LOUD, 2 * W))
        labels = classify_windows(hra, toy_model, W)
        spans = refine_boundaries(labels, hra, toy_model, W)
        assert spans == [MetroSpan(0, 2 * W), MetroSpan(4 * W, 6 * W)]

    def test_sliver_shorter_than_window_dropped(self, toy_model):
        # a 4-sample burst cannot hold a whole window after refinement
        hra = series((LOUD, 4), (QUIET, 3 * W - 4))
        labels = np.array([1, 0, 0])
        assert refine_boundaries(labels, hra, toy_model, W) == []

    def test_series_edges_snap_to_ends(self, toy_model):
        hra = series((LOUD, 4 * W))
        labels = np.array([1, 1, 1, 1])
        assert refine_boundaries(labels, hra, toy_model, W) == [MetroSpan(0, 4 * W)]


class TestExtractSpans:
    def test_end_to_end_exact(self, toy_model):
        hra = series((QUIET, 5 * W), (LOUD, 15 * W), (QUIET, 5 * W))
        assert extract_spans(hra, toy_model, W) == [MetroSpan(5 * W, 20 * W)]

    def test_ride_running_into_series_end(self, toy_model):
        hra = series((QUIET, 5 * W), (LOUD, 2 * W + W // 2))
        spans = extract_spans(hra, toy_model, W)
        assert spans == [MetroSpan(5 * W, int(7.5 * W))]

    def test_all_quiet(self, toy_model):
        assert extract_spans(series((QUIET, 10 * W)), toy_model, W) == []


class TestMetroSpan:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty span"):
            MetroSpan(10, 10)

    def test_length(self):
        span = MetroSpan(5, 25)
        assert span.end - span.start == 20


def loop_locate_start(hra, model, boundary, w):
    """The back-scan as it was: one one-row block and one predict per window."""
    lo_cap = max(0, boundary - BACKSCAN_WINDOWS * w)
    for st in range(boundary - 1, lo_cap - 1, -1):
        row = window_features(hra[st : st + w][None, :], model.thresholds)
        if int(model.nb.predict(row)[0]) == NON_METRO:
            return st + w // 2
    return max(0, boundary - w) + w // 2


def scan_cases(hra, labels, w):
    """(series, boundary) of each transition, as refine_boundaries scans it."""
    n = len(hra)
    for i in range(1, len(labels)):
        if labels[i] == METRO and labels[i - 1] != METRO:
            yield hra, i * w
        elif labels[i] != METRO and labels[i - 1] == METRO:
            yield hra[::-1], n - i * w


class TestBackScanMatchesLoop:
    """One block and one predict per transition give the old loop's samples."""

    def test_every_transition(self, acceptance_series):
        model, w, trips, days = acceptance_series
        n_cases = 0
        for hra in trips + days:
            labels = classify_windows(hra, model, w)
            for src, boundary in scan_cases(hra, labels, w):
                got = extract._locate_start(src, model, boundary, w)
                assert got == loop_locate_start(src, model, boundary, w)
                n_cases += 1
        assert n_cases >= 40

    def test_boundaries_near_the_series_ends(self, acceptance_series):
        # the last two window starts have windows cut short by the series end
        model, w, _, days = acceptance_series
        for hra in days:
            n = len(hra)
            last = (n - 1) // w * w
            assert n - last < w - 1
            for boundary in (last, last - w):
                for src in (hra, hra[::-1]):
                    got = extract._locate_start(src, model, boundary, w)
                    assert got == loop_locate_start(src, model, boundary, w)

    def test_extracted_spans(self, acceptance_series, monkeypatch):
        model, w, _, days = acceptance_series
        spans = [extract_spans(hra, model, w) for hra in days]
        monkeypatch.setattr(extract, "_locate_start", loop_locate_start)
        assert spans == [extract_spans(hra, model, w) for hra in days]
        assert all(spans)

    @pytest.mark.parametrize("tail", [1, 3, W // 2, W - 2, W - 1, W + 3])
    def test_short_windows_scanned_first(self, toy_model, tail):
        # a quiet tail after a loud stretch: the first non-metro window may be
        # one that the series end cuts short
        hra = series((QUIET, 2 * W), (LOUD, 3 * W), (QUIET, tail))
        for boundary in range(1, len(hra)):
            for src in (hra, hra[::-1]):
                got = extract._locate_start(src, toy_model, boundary, W)
                assert got == loop_locate_start(src, toy_model, boundary, W)
