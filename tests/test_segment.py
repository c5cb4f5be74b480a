"""Stop-slot segmentation on handcrafted series with known cut points."""

from __future__ import annotations

import numpy as np
import pytest

from subtrace import coord
from subtrace.pipeline import true_trip_layout
from subtrace.segment import (
    DEFAULT_QUORUM,
    DELTA_FRACTION,
    T1_PERCENTILE,
    SegmenterParams,
    find_final_segment_points,
    find_seg_points,
    params_for_network,
    resolve_params,
)

LOUD = 10.0


def series(*parts: tuple[float, int]) -> np.ndarray:
    return np.concatenate([np.full(n, v, dtype=float) for v, n in parts])


def base_params(**overrides) -> SegmenterParams:
    kw = dict(l_w=10, l_min=30, l_max=60, t1=1.0, delta=0.5)
    kw.update(overrides)
    return SegmenterParams(**kw)


class TestParams:
    def test_fields(self):
        p = base_params()
        assert (p.l_w, p.l_min, p.l_max) == (10, 30, 60)
        assert p.quorum == DEFAULT_QUORUM

    @pytest.mark.parametrize("l_w,l_min,l_max", [(0, 30, 60), (31, 30, 60), (10, 61, 60)])
    def test_bad_lengths(self, l_w, l_min, l_max):
        with pytest.raises(ValueError):
            SegmenterParams(l_w=l_w, l_min=l_min, l_max=l_max)

    @pytest.mark.parametrize("quorum", [0.0, -0.1, 1.0001])
    def test_bad_quorum(self, quorum):
        with pytest.raises(ValueError):
            SegmenterParams(l_w=10, l_min=30, l_max=60, quorum=quorum)

    def test_quorum_one_allowed(self):
        SegmenterParams(l_w=10, l_min=30, l_max=60, quorum=1.0)

    def test_params_for_network(self, small_corpus):
        net = small_corpus.network
        p = params_for_network(net)
        assert p.l_w == int(round(net.sample_rate * net.dwell_min))
        assert p.l_min == int(round(net.sample_rate * net.min_interval_duration))
        assert p.l_max == int(
            round(net.sample_rate * (net.max_interval_duration + net.dwell_max))
        )
        assert p.t1 is None and p.delta is None


class TestResolveParams:
    def test_explicit_values_pass_through(self):
        p = resolve_params(base_params(), series((LOUD, 50)))
        assert p.t1 == 1.0 and p.delta == 0.5

    def test_t1_from_percentile(self):
        hra = np.arange(100, dtype=float)
        p = resolve_params(base_params(t1=None, delta=None), hra)
        assert p.t1 == pytest.approx(np.percentile(hra, T1_PERCENTILE))
        assert p.delta == pytest.approx(DELTA_FRACTION * p.t1)

    def test_delta_from_explicit_t1(self):
        p = resolve_params(base_params(t1=4.0, delta=None), series((LOUD, 50)))
        assert p.delta == pytest.approx(0.4)


class TestFindSegPoints:
    def scan(self, hra, start=0, end=None, t1=1.0, quorum=0.95, l_w=10, l_min=30):
        if end is None:
            end = len(hra)
        return find_seg_points(hra, start, end, t1, quorum, l_w, l_min)

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


class TestFinalSegmentPoints:
    def test_no_escalation_needed(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40))
        points, warn = find_final_segment_points(hra, base_params())
        assert points == [45]
        assert warn is False

    def test_escalation_recovers_warm_dwell(self):
        # second dwell sits above t1 but below t1 + delta; the first scan
        # misses it, leaving an overlong gap that one escalation closes
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (1.2, 14), (LOUD, 40))
        points, warn = find_final_segment_points(hra, base_params())
        assert points == [45, 99]
        assert warn is False

    def test_multi_step_escalation(self):
        # dwell at 2.2 needs three raises of 0.5 before 1.0 clears it
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (2.2, 14), (LOUD, 40))
        points, warn = find_final_segment_points(hra, base_params())
        assert points == [45, 99]
        assert warn is False

    def test_escalation_budget_respected(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (2.2, 14), (LOUD, 40))
        points, warn = find_final_segment_points(hra, base_params(max_escalations=2))
        assert points == [45]
        assert warn is True

    def test_unfixable_gap_warns(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 100))
        points, warn = find_final_segment_points(hra, base_params())
        assert points == [45]
        assert warn is True

    def test_research_stays_clear_of_gap_edges(self):
        # warm dwell hugging the gap's left edge is inside the l_min margin,
        # so escalation cannot reach it
        hra = series((LOUD, 40), (0.0, 14), (1.2, 14), (LOUD, 100))
        points, warn = find_final_segment_points(hra, base_params())
        assert points == [45]
        assert warn is True

    def test_points_sorted_unique(self):
        hra = series((LOUD, 40), (0.0, 14), (LOUD, 40), (0.0, 14), (LOUD, 40))
        points, _ = find_final_segment_points(hra, base_params())
        assert points == sorted(set(points))


class TestOnSimulatedTrips:
    def test_recovers_true_cuts(self, small_corpus):
        params = params_for_network(small_corpus.network)
        tol = 10.0 * small_corpus.network.sample_rate
        for trip in small_corpus.trips:
            points, warn = find_final_segment_points(coord.transform(trip).hra, params)
            truth = true_trip_layout(trip)
            assert warn is False
            assert len(points) == truth.n_legs - 1
            for got, want in zip(points, truth.cuts):
                assert abs(got - want) <= tol
