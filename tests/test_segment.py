"""Stop-slot segmentation on handcrafted series with known cut points.

The jump scan is also checked against a frozen copy of the sample-by-sample
loop it replaced: on every handcrafted scan, and on every scan (escalations
included) of the acceptance corpus subtrips, the bootstrap chunks, full
rides, mixed-day spans and two noisy corpora.
"""

from __future__ import annotations

import numpy as np
import pytest

from subtrace import coord, segment
from subtrace.evalharness import (
    bootstrap_from_corpus,
    defended_corpus,
    enumerate_subtrips,
    paired_corpus,
    segmentation_evaluation,
)
from subtrace.extract import extract_spans
from subtrace.pipeline import PipelineConfig, true_trip_layout
from subtrace.segment import (
    DELTA_FRACTION,
    MAX_ESCALATIONS,
    T1_PERCENTILE,
    _final_points,
    find_final_segment_points,
    find_seg_points,
)

LOUD = 10.0


def series(*parts: tuple[float, int]) -> np.ndarray:
    return np.concatenate([np.full(n, v, dtype=float) for v, n in parts])


def final_points(hra: np.ndarray) -> tuple[list[int], bool]:
    """The escalating segmenter with t1 1.0, delta 0.5, l_w 10, l_min 30 and l_max 60."""
    return _final_points(hra, 1.0, 0.5, 10, 30, 60)


class TestDerivedSettings:
    """The segmenter's lengths come from the network, its thresholds from the span."""

    @pytest.fixture
    def core_args(self, monkeypatch) -> list[tuple]:
        calls = []

        def spy(*args):
            calls.append(args[1:])
            return [], False

        monkeypatch.setattr(segment, "_final_points", spy)
        return calls

    def test_lengths_from_network(self, small_corpus, core_args):
        net = small_corpus.network
        find_final_segment_points(series((LOUD, 50)), net)
        (_, _, l_w, l_min, l_max), = core_args
        assert l_w == int(round(net.sample_rate * net.dwell_min))
        assert l_min == int(round(net.sample_rate * net.min_interval_duration))
        assert l_max == int(round(net.sample_rate * (net.max_interval_duration + net.dwell_max)))

    def test_thresholds_from_percentile(self, small_corpus, core_args):
        hra = np.arange(100, dtype=float)
        find_final_segment_points(hra, small_corpus.network)
        (t1, delta, *_), = core_args
        assert t1 == pytest.approx(np.percentile(hra, T1_PERCENTILE))
        assert delta == pytest.approx(DELTA_FRACTION * t1)

    def test_t1_is_numpys_percentile_and_span_kept_in_order(self, small_corpus, core_args):
        hra = np.random.default_rng(8).exponential(size=1001)
        before = hra.copy()
        find_final_segment_points(hra, small_corpus.network)
        (t1, *_), = core_args
        assert t1 == float(np.percentile(before, T1_PERCENTILE))
        assert hra.tobytes() == before.tobytes()


class TestFindSegPoints:
    def scan(self, hra, start=0, end=None, t1=1.0, quorum=0.95, l_w=10, l_min=30):
        """The scan's points, after checking them against the frozen loop."""
        if end is None:
            end = len(hra)
        args = (hra, start, end, t1, quorum, l_w, l_min)
        points = find_seg_points(*args)
        assert points == loop_find_seg_points(*args)
        return points

    def test_single_dwell_center(self):
        # first full-quiet window starts at 40; all placements tie, the
        # earliest wins, so the point sits at 40 + l_w // 2
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40))
        assert self.scan(hra) == [45]

    def test_quietest_placement_wins(self):
        # strictly decreasing dwell pushes the window to the last placement
        hra = np.concatenate(
            [np.full(40, LOUD), np.linspace(0.9, 0.1, 20), np.full(40, LOUD)]
        )
        assert self.scan(hra) == [49]

    def test_quorum_is_strict(self):
        # 9 quiet samples in a 10-wide window is not > 0.9 * 10
        hra = series((LOUD, 10), (0.0, 9), (LOUD, 40))
        assert self.scan(hra, quorum=0.9) == []

    def test_relaxed_quorum_tie_break(self):
        # at quorum 0.8 the window [9, 19) fires first; it ties on mean with
        # [10, 20), and the earlier placement wins
        hra = series((LOUD, 10), (0.0, 9), (LOUD, 40))
        assert self.scan(hra, quorum=0.8) == [14]

    def test_second_dwell_inside_min_spacing_skipped(self):
        # scan resumes l_min past the first hit, so a dwell closer than one
        # station interval cannot produce a second point
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 10), (0.0, 14), (LOUD, 40))
        assert self.scan(hra) == [45]

    def test_two_dwells_apart(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (0.0, 14), (LOUD, 40))
        assert self.scan(hra) == [45, 99]

    def test_bounds_are_clamped(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40))
        assert self.scan(hra, start=-5, end=10**6) == [45]

    def test_end_cuts_off_window(self):
        # the only quiet stretch needs a window ending past `end`
        hra = series((LOUD, 40), (0.0, 20))
        assert self.scan(hra, end=45) == []

    def test_all_quiet_paces_by_l_min(self):
        hra = series((0.0, 100))
        assert self.scan(hra) == [5, 35, 65, 95]

    def test_span_shorter_than_window(self):
        # end - l_w < start: no window fits, however quiet the series
        hra = series((0.0, 100))
        assert self.scan(hra, start=50, end=55) == []
        assert self.scan(hra, start=50, end=59) == []

    def test_empty_span(self):
        hra = series((0.0, 100))
        assert self.scan(hra, start=40, end=40) == []
        assert self.scan(hra, start=70, end=20) == []
        assert self.scan(hra, start=-20, end=-5) == []

    def test_quorum_one_never_fires(self):
        # a window holds at most l_w quiet samples, never more than 1.0 * l_w
        assert self.scan(series((0.0, 100)), quorum=1.0) == []

    def test_one_sample_window(self):
        # l_w = 1: half is 1, so the hit itself is the only placement and the
        # point sits on it (l_w // 2 == 0); the resume at 5 + 4 skips 6 and 7
        hra = series((LOUD, 5), (0.0, 3), (LOUD, 4), (0.0, 1), (LOUD, 10))
        assert self.scan(hra, quorum=0.5, l_w=1, l_min=4) == [5, 12]

    def test_three_sample_window(self):
        # l_w = 3, half = 1: the first window with 2 quiet samples starts at
        # 4, the point is 4 + 1, and the resume at 7 finds one quiet sample
        hra = series((LOUD, 5), (0.0, 3), (LOUD, 10))
        assert self.scan(hra, quorum=0.5, l_w=3, l_min=3) == [5]

    def test_hits_at_first_and_last_window_start(self):
        # quiet windows start at 0 and at end - l_w = 40; the last one has a
        # single placement because the search may not run past the end
        hra = series((0.0, 10), (LOUD, 30), (0.0, 10))
        assert self.scan(hra) == [5, 45]

    def test_hits_at_span_ends_inside_series(self):
        # the same with a span [10, 60) cut out of a longer series
        hra = series((LOUD, 10), (0.0, 10), (LOUD, 30), (0.0, 10), (LOUD, 10))
        assert self.scan(hra, start=10, end=60) == [15, 55]

    def test_prefix_sums_span_whole_series(self):
        # a huge sample before the span leaves the whole-series prefix sums
        # a resolution of 2, so the five placements of the falling dwell tie
        # and the earliest wins; sums over the span alone would pick the last
        hra = np.concatenate([[1e16], np.linspace(0.9, 0.1, 20), np.full(40, LOUD)])
        assert self.scan(hra, start=1) == [6]

    def test_resume_past_last_window_start(self):
        # after the hit at 0 the scan resumes at 30, past end - l_w = 25, so
        # the quiet window at 25 is never tested
        hra = series((0.0, 10), (LOUD, 15), (0.0, 10))
        assert self.scan(hra) == [5]


class TestFinalSegmentPoints:
    def test_no_escalation_needed(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40))
        points, warn = final_points(hra)
        assert points == [45]
        assert warn is False

    def test_escalation_recovers_warm_dwell(self):
        # second dwell sits above t1 but below t1 + delta; the first scan
        # misses it, leaving an overlong gap that one escalation closes
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (1.2, 14), (LOUD, 40))
        points, warn = final_points(hra)
        assert points == [45, 99]
        assert warn is False

    def test_multi_step_escalation(self):
        # dwell at 2.2 needs three raises of 0.5 before 1.0 clears it
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (2.2, 14), (LOUD, 40))
        points, warn = final_points(hra)
        assert points == [45, 99]
        assert warn is False

    def test_escalation_budget_respected(self):
        # dwell at 5.2 needs nine raises of 0.5, more than the budget allows
        assert MAX_ESCALATIONS < 9
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (5.2, 14), (LOUD, 40))
        points, warn = final_points(hra)
        assert points == [45]
        assert warn is True

    def test_unfixable_gap_warns(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 100))
        points, warn = final_points(hra)
        assert points == [45]
        assert warn is True

    def test_research_stays_clear_of_gap_edges(self):
        # warm dwell hugging the gap's left edge is inside the l_min margin,
        # so escalation cannot reach it
        hra = series((LOUD, 40), (0.0, 14), (1.2, 14), (LOUD, 100))
        points, warn = final_points(hra)
        assert points == [45]
        assert warn is True

    def test_points_sorted_unique(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (0.0, 14), (LOUD, 40))
        points, _ = final_points(hra)
        assert points == sorted(set(points))


class TestOnSimulatedTrips:
    def test_recovers_true_cuts(self, small_corpus):
        network = small_corpus.network
        tol = 10.0 * network.sample_rate
        for trip in small_corpus.trips:
            points, warn = find_final_segment_points(coord.transform(trip).hra, network)
            truth = true_trip_layout(trip)
            assert warn is False
            assert len(points) == truth.n_legs - 1
            for got, want in zip(points, truth.cuts):
                assert abs(got - want) <= tol


def loop_find_seg_points(hra, start, end, t1, quorum, l_w, l_min):
    """Frozen copy of the scan as a loop that steps one sample at a time."""
    hra = np.asarray(hra, dtype=float)
    n = len(hra)
    start = max(start, 0)
    end = min(end, n)
    below = np.concatenate([[0], np.cumsum(hra < t1)])
    csum = np.concatenate([[0.0], np.cumsum(hra)])
    need = quorum * l_w
    half = max(1, l_w // 2)

    points: list[int] = []
    i = start
    while i + l_w <= end:
        if below[i + l_w] - below[i] > need:
            ss = np.arange(i, min(i + half, end - l_w + 1))
            means = (csum[ss + l_w] - csum[ss]) / l_w
            s = int(ss[np.argmin(means)])
            points.append(s + l_w // 2)
            i = s + l_min
        else:
            i += 1
    return points


class ComparedScan:
    """Stands in for ``segment.find_seg_points``; runs the frozen loop beside every scan."""

    def __init__(self):
        self.scans = 0
        self.mismatches: list[tuple] = []

    def __call__(self, hra, start, end, t1, quorum, l_w, l_min):
        got = find_seg_points(hra, start, end, t1, quorum, l_w, l_min)
        want = loop_find_seg_points(hra, start, end, t1, quorum, l_w, l_min)
        self.scans += 1
        if got != want:
            self.mismatches.append((start, end, t1, quorum, l_w, l_min, got, want))
        return got


@pytest.fixture
def compared(monkeypatch) -> ComparedScan:
    scan = ComparedScan()
    monkeypatch.setattr(segment, "find_seg_points", scan)
    return scan


@pytest.fixture(scope="module")
def noisy_corpora(acceptance_corpus):
    """The acceptance corpus under defense noise at factor 1.0 and under a 16 m/s^2 shake."""
    config = PipelineConfig()
    defended, _ = defended_corpus(acceptance_corpus, config, 1.0)
    return {"defended": defended, "shaken": paired_corpus(config, hand_shake_amp=16.0)}


class TestScanMatchesLoop:
    """Every scan returns the frozen loop's points, escalation re-searches included.

    The handcrafted cases of ``TestFindSegPoints`` check the same on the edge
    cases, through their ``scan`` helper.
    """

    def test_acceptance_subtrips(self, acceptance_corpus, acceptance_series, compared):
        _, _, trips, _ = acceptance_series
        network = acceptance_corpus.network
        subtrips = enumerate_subtrips(acceptance_corpus, (3, 5, 7))
        for st in subtrips:
            find_final_segment_points(trips[st.trip][st.span[0] : st.span[1]], network)
        assert compared.mismatches == []
        assert compared.scans > len(subtrips)  # some gaps were re-searched

    def test_full_rides(self, acceptance_corpus, compared):
        segmentation_evaluation(acceptance_corpus)
        assert compared.mismatches == []
        assert compared.scans >= len(acceptance_corpus.trips)

    def test_bootstrap_chunks(self, acceptance_corpus, compared):
        bootstrap_from_corpus(acceptance_corpus, PipelineConfig())
        assert compared.mismatches == []
        assert compared.scans >= len(acceptance_corpus.trips)

    def test_mixed_day_spans(self, acceptance_corpus, acceptance_series, compared):
        model, w, _, days = acceptance_series
        n_spans = 0
        for hra in days:
            for span in extract_spans(hra, model, w):
                find_final_segment_points(hra[span.start : span.end], acceptance_corpus.network)
                n_spans += 1
        assert compared.mismatches == []
        assert n_spans >= 6

    @pytest.mark.parametrize("name", ["defended", "shaken"])
    def test_noisy_corpus(self, noisy_corpora, name, compared):
        # every full ride, and the length-3 subtrips of the held-out half
        # (trips 20-39); under defense noise most scans are re-searches, and
        # all 720 subtrips would cost the frozen loop about a minute
        corpus = noisy_corpora[name]
        hras = [coord.transform(t).hra for t in corpus.trips]
        cases = [(ti, true_trip_layout(t).span) for ti, t in enumerate(corpus.trips)]
        cases += [(st.trip, st.span) for st in enumerate_subtrips(corpus, (3,)) if st.trip >= 20]
        for ti, (a, b) in cases:
            find_final_segment_points(hras[ti][a:b], corpus.network)
        assert compared.mismatches == []
        assert compared.scans > len(cases)
