"""Corpus round-trips, attack-model bundling, and the end-to-end attack."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from subtrace import coord, features, infer, pipeline, segment
from subtrace.extract import classify_windows
from subtrace.features import extract_batch
from subtrace.model import Trace, TraceFormatError
from subtrace.pipeline import (
    AttackModel,
    PipelineConfig,
    attack_trace,
    child_seed,
    interval_training_rows,
    load_corpus,
    mode_window_size,
    seed_segments,
    train_attack_model,
    train_mode_model,
    true_segments,
    true_trip_layout,
    write_corpus,
)
from subtrace.simgen import gen_mixed_day, gen_network, gen_other_mode, save_profiles


@pytest.fixture(scope="module")
def attack_model(small_corpus, small_config) -> AttackModel:
    return train_attack_model(small_corpus, small_config)


class TestConfig:
    def test_dict_round_trip(self, small_config):
        assert PipelineConfig.from_dict(small_config.to_dict()) == small_config

    def test_unknown_key_rejected(self, small_config):
        doc = small_config.to_dict()
        doc["typo"] = 1
        with pytest.raises(ValueError):
            PipelineConfig.from_dict(doc)

    def test_unknown_noise_key_rejected(self, small_config):
        doc = small_config.to_dict()
        doc["noise"]["typo"] = 1
        with pytest.raises(ValueError):
            PipelineConfig.from_dict(doc)

    def test_child_seed_stability(self):
        assert child_seed(7, 1, 2) == child_seed(7, 1, 2)
        assert child_seed(7, 1, 2) != child_seed(7, 1, 3)
        assert child_seed(7, 1, 2) != child_seed(8, 1, 2)


class TestCorpusRoundTrip:
    def test_write_then_load(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        back = load_corpus(tmp_path)
        assert back.network == small_corpus.network
        assert back.profiles == small_corpus.profiles
        assert back.manifest == small_corpus.manifest
        assert len(back.trips) == len(small_corpus.trips)
        assert len(back.modes) == len(small_corpus.modes)
        for a, b in zip(small_corpus.trips, back.trips):
            assert np.array_equal(a.t, b.t)
            assert np.array_equal(a.acc, b.acc)
            assert np.array_equal(a.orient, b.orient)
            assert a.truth == b.truth

    def test_not_a_corpus_dir(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_corpus(tmp_path)

    def test_refused_profiles_parse_no_recording(self, small_corpus, tmp_path, monkeypatch):
        # profiles in both directions, as earlier corpora stored them: the
        # refusal used to come only after every trip and mode trace was parsed
        write_corpus(small_corpus, tmp_path)
        k = small_corpus.network.num_intervals
        reverse = [
            replace(p.reversed(), interval_id=2 * k - 1 - p.interval_id)
            for p in small_corpus.profiles[::-1]
        ]
        save_profiles(small_corpus.profiles + reverse, tmp_path / "profiles.json")
        loaded = []
        real = pipeline.load_trace

        def counting(path):
            loaded.append(path)
            return real(path)

        monkeypatch.setattr(pipeline, "load_trace", counting)
        with pytest.raises(TraceFormatError, match="profiles.json: needs a profile per interval 0..5"):
            load_corpus(tmp_path)
        assert loaded == []

    def test_trip_meta(self, small_corpus):
        meta = small_corpus.trip_meta
        assert len(meta) == len(small_corpus.trips)
        assert meta[0]["direction"] == "forward"
        assert meta[1]["direction"] == "reverse"


class TestTrueTripLayout:
    def test_forward_trip(self, small_corpus):
        layout = true_trip_layout(small_corpus.trips[0])
        k = small_corpus.network.num_intervals
        assert layout.uids == tuple(range(k))
        assert layout.direction == "forward"
        assert len(layout.cuts) == k - 1
        assert layout.span[0] == 0
        assert list(layout.cuts) == sorted(layout.cuts)
        assert all(layout.span[0] < c < layout.span[1] for c in layout.cuts)

    def test_reverse_trip(self, small_corpus):
        layout = true_trip_layout(small_corpus.trips[1])
        k = small_corpus.network.num_intervals
        assert layout.uids == tuple(range(k - 1, -1, -1))
        assert layout.direction == "reverse"

    def test_cut_times_are_dwell_centers(self, small_corpus):
        trip = small_corpus.trips[0]
        layout = true_trip_layout(trip)
        dwells = sorted(trip.truth_ranges("dwell"), key=lambda r: r.start)
        want = tuple(int(np.searchsorted(trip.t, 0.5 * (d.start + d.end))) for d in dwells)
        assert layout.cuts == want

    def test_true_segments_partition_span(self, small_corpus):
        trip = small_corpus.trips[0]
        layout = true_trip_layout(trip)
        segs = true_segments(trip)
        assert [uid for _, uid in segs] == list(layout.uids)
        assert all(seg.shape[1] == 3 for seg, _ in segs)
        total = sum(len(seg) for seg, _ in segs)
        assert total == layout.span[1] - layout.span[0]

    def test_non_trip_rejected(self, small_config):
        walk = gen_other_mode("walk", 60.0, small_config.noise, seed=3)
        with pytest.raises(ValueError):
            true_trip_layout(walk)

    def test_metro_without_intervals_rejected(self, small_corpus):
        trip = small_corpus.trips[0]
        bare = Trace(
            device_id=trip.device_id,
            sample_rate=trip.sample_rate,
            t=trip.t,
            acc=trip.acc,
            orient=trip.orient,
            truth=tuple(trip.truth_ranges("metro")),
        )
        with pytest.raises(ValueError):
            true_trip_layout(bare)

    def test_training_rows_cover_all_trips(self, small_corpus):
        segments, uids = interval_training_rows(small_corpus)
        k = small_corpus.network.num_intervals
        assert len(segments) == len(uids) == len(small_corpus.trips) * k
        assert set(uids) == set(range(k))
        sub, sub_uids = interval_training_rows(small_corpus, trip_idx=[0])
        assert len(sub) == k
        assert sub_uids == list(range(k))


class TestModeModel:
    def test_window_and_thresholds(self, small_corpus):
        # the window is the line's: half its shortest interval, 87.9 s at 10 Hz
        net = small_corpus.network
        assert mode_window_size(net) == net.samples(net.min_interval_duration) // 2 == 439
        model = train_mode_model(small_corpus)
        ta, tb, tc = model.thresholds
        assert 0 < ta < tb < tc

    def test_separates_trips_from_static(self, small_corpus, attack_model):
        from subtrace.coord import transform
        from subtrace.extract import classify_windows

        model = attack_model.mode_model
        w = mode_window_size(small_corpus.network)
        trip_labels = classify_windows(transform(small_corpus.trips[0]).hra, model, w)
        static = next(m for m in small_corpus.modes if m.device_id.startswith("sim-static"))
        static_labels = classify_windows(transform(static).hra, model, w)
        assert np.mean(trip_labels) > 0.9
        assert not np.any(static_labels)


class TestAttackModel:
    def test_save_load_round_trip(self, attack_model, tmp_path):
        path = tmp_path / "model.json"
        attack_model.save(path)
        back = AttackModel.load(path)
        assert back.to_dict() == attack_model.to_dict()

    def test_loaded_model_scores_identically(self, attack_model, small_corpus, tmp_path):
        # the screened NB vote rebuilds its constants on load; attack decodes with a loaded model
        path = tmp_path / "model.json"
        attack_model.save(path)
        back = AttackModel.load(path)
        segs, _ = interval_training_rows(small_corpus, range(len(small_corpus.trips)))
        X = extract_batch(segs, attack_model.ensemble.config)
        for got, want in (
            (back.ensemble.boost.vote_scores(X), attack_model.ensemble.boost.vote_scores(X)),
            (back.ensemble.predict_matrix(X), attack_model.ensemble.predict_matrix(X)),
        ):
            assert got.tobytes() == want.tobytes()
        hra = coord.transform(small_corpus.trips[0]).hra
        w = mode_window_size(small_corpus.network)
        assert classify_windows(hra, back.mode_model, w).tobytes() == classify_windows(
            hra, attack_model.mode_model, w
        ).tobytes()

    def test_document_states_each_fact_once(self, attack_model):
        # one version, one rate, and a class count only in the arrays
        def paths(doc, at=()):
            if isinstance(doc, dict):
                for key, value in doc.items():
                    yield at + (key,)
                    yield from paths(value, at + (key,))
            elif isinstance(doc, list):
                for value in doc:
                    yield from paths(value, at)

        doc = attack_model.to_dict()
        repeated = ("kind", "schema_version", "n_classes", "sample_rate")
        found = {p for p in paths(doc) if p[-1] in repeated}
        assert found == {("kind",), ("schema_version",), ("network", "sample_rate")}
        assert doc["schema_version"] == 4
        # beyond the line, only what training fitted
        assert set(doc["mode_model"]) == {"thresholds", "nb"}
        assert set(doc["ensemble"]["feature_config"]) == {"nvht_thresholds"}

    def test_version_3_document_refused(self, attack_model):
        # version 3 also stored the mode window and the smoothing and peak windows
        doc = attack_model.to_dict()
        doc["schema_version"] = 3
        doc["mode_model"]["window"] = 439
        doc["ensemble"]["feature_config"].update(smooth_k=9, peak_windows_s=[1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="not a version-4 attack model document"):
            AttackModel.from_dict(doc)

    def test_foreign_document_rejected(self, attack_model):
        doc = attack_model.to_dict()
        doc["kind"] = "other"
        with pytest.raises(ValueError):
            AttackModel.from_dict(doc)


class TestAttackTrace:
    def test_full_mode_recovers_trips(self, small_corpus, attack_model):
        k = small_corpus.network.num_intervals
        for trip in small_corpus.trips[:4]:
            layout = true_trip_layout(trip)
            report = attack_trace(trip, attack_model, mode="full")
            assert report["num_spans"] == 1
            span = report["spans"][0]
            assert "error" not in span
            assert span["length"] == k
            assert span["direction"] == layout.direction
            assert tuple(span["intervals"]) == layout.uids
            assert len(span["stations"]) == k + 1

    def test_stations_follow_network_names(self, small_corpus, attack_model):
        # trip 0 rides the whole line forward, trip 1 the whole line back
        line = [f"S{i:02d}" for i in range(7)]
        for trip, direction, stations in ((0, "forward", line), (1, "reverse", line[::-1])):
            span = attack_trace(small_corpus.trips[trip], attack_model, mode="full")["spans"][0]
            assert span["direction"] == direction
            assert span["stations"] == stations

    def test_reduced_mode(self, small_corpus, attack_model):
        trip = small_corpus.trips[0]
        layout = true_trip_layout(trip)
        report = attack_trace(trip, attack_model, mode="reduced")
        assert report["mode"] == "reduced"
        span = report["spans"][0]
        assert "error" not in span
        assert tuple(span["intervals"]) == layout.uids

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_non_finite_sample_rejected(self, small_corpus, attack_model, mode):
        # one NaN used to decode into a confident ride of the wrong length
        trip = small_corpus.trips[0]
        acc = trip.acc.copy()
        acc[int(np.random.default_rng(31).integers(len(acc))), 0] = np.nan
        with pytest.raises(TraceFormatError, match="non-finite acc"):
            attack_trace(replace(trip, acc=acc), attack_model, mode=mode)

    @pytest.mark.parametrize("value", [1e307, -1e308])
    def test_non_physical_acceleration_rejected(self, small_corpus, attack_model, value):
        # a finite but non-physical sample used to overflow into non-finite features
        trip = small_corpus.trips[0]
        acc = trip.acc.copy()
        at = int(np.random.default_rng(32).integers(len(acc)))
        acc[at, 2] = value
        message = rf"acc value beyond 10000 m/s\^2 at sample offset {at}$"
        with pytest.raises(TraceFormatError, match=message):
            attack_trace(replace(trip, acc=acc), attack_model)

    def test_empty_trace_rejected(self, attack_model):
        empty = Trace("empty", 10.0, np.empty(0), np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(TraceFormatError, match="no samples"):
            attack_trace(empty, attack_model)

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_other_sample_rate_refused(self, small_config, attack_model, mode):
        # window and segmenter lengths count samples, so a 20 Hz trace used
        # to be decoded in the 10 Hz model's units without a word
        trace = gen_other_mode("walk", 120.0, small_config.noise, seed=9, sample_rate=20.0)
        assert np.allclose(np.diff(trace.t), 0.05)
        trace.validate()
        with pytest.raises(TraceFormatError, match="rate 20 Hz differs from the model's 10 Hz"):
            attack_trace(trace, attack_model, mode=mode)

    def test_unknown_mode_rejected(self, small_corpus, attack_model, monkeypatch):
        # refused up front: planning a span refuses the mode too, but only after segmenting it
        def never(*args, **kwargs):
            pytest.fail("a span was segmented under an unknown mode")

        monkeypatch.setattr(segment, "find_final_segment_points", never)
        with pytest.raises(ValueError, match="unknown attack mode"):
            attack_trace(small_corpus.trips[0], attack_model, mode="fast")

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_unscorable_span_reported(self, small_corpus, attack_model, mode, monkeypatch):
        # more cuts than the line has intervals: no ride of any family fits
        m = small_corpus.network.num_intervals

        def too_many_cuts(hra, network):
            return [int(p) for p in np.linspace(0, len(hra), m + 4)[1:-1]], True

        monkeypatch.setattr(segment, "find_final_segment_points", too_many_cuts)
        report = attack_trace(small_corpus.trips[0], attack_model, mode=mode)
        assert report["num_spans"] == 1
        span = report["spans"][0]
        assert span["error"] == "no feasible hypothesis for this span"
        assert span["warning"] is True
        assert "points" not in span and "intervals" not in span

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_featurisation_error_propagates(self, small_corpus, attack_model, mode, monkeypatch):
        # a fault while decoding used to be written out as the span's "error"
        def broken(segments, config):
            raise ValueError("featurizer broke")

        monkeypatch.setattr(features, "extract_batch", broken)
        with pytest.raises(ValueError, match="featurizer broke"):
            attack_trace(small_corpus.trips[0], attack_model, mode=mode)

    def test_mixed_day_isolates_the_ride(self, small_corpus, small_config, attack_model):
        day = gen_mixed_day(
            [
                ("static", 90.0),
                ("trip", {"start_interval": 0, "length": 3}),
                ("static", 90.0),
            ],
            small_config.noise,
            seed=55,
            network=small_corpus.network,
            profiles=small_corpus.profiles,
        )
        metro = next(r for r in day.truth if r.label == "metro")
        report = attack_trace(day, attack_model, mode="full")
        assert report["num_spans"] == 1
        span = report["spans"][0]
        # the span must cover the whole ride; the boundary search works at
        # mode-window granularity, so it may bleed that far into stillness
        bleed = 3.0 * mode_window_size(small_corpus.network) / small_corpus.network.sample_rate
        assert metro.start - bleed <= span["t_start"] <= metro.start + 2.0
        assert metro.end - 2.0 <= span["t_end"] <= metro.end + bleed
        assert span["length"] == 3

    def test_two_ride_day_shares_one_featurizer(
        self, small_corpus, small_config, attack_model, monkeypatch
    ):
        net = small_corpus.network
        day = gen_mixed_day(
            [
                ("static", 90.0),
                ("trip", {"start_interval": 0, "length": 3}),
                ("walk", 180.0),
                ("trip", {"start_interval": net.directed(5, "reverse"), "length": 3}),
                ("static", 90.0),
            ],
            small_config.noise,
            seed=57,
            network=net,
            profiles=small_corpus.profiles,
        )
        calls = []
        real_extract = features.extract_batch

        def logging_extract(segments, config):
            calls.append([seg.tobytes() for seg in segments])
            return real_extract(segments, config)

        monkeypatch.setattr(features, "extract_batch", logging_extract)
        report = attack_trace(day, attack_model, mode="full")
        monkeypatch.undo()
        assert [s.get("intervals") for s in report["spans"]] == [[0, 1, 2], [5, 4, 3]]
        # both rides' segments in one batch per screening round, each segment once; a
        # round classifies one more segment of every open run, and the longest re-cut
        # run of a three-segment ride has four
        assert 1 <= len(calls) <= 4
        shared = [seg for call in calls for seg in call]
        assert len(shared) == len(set(shared)) > 0
        # only segments that decoding each ride alone featurises, and fewer samples
        # than every cut layout's segments
        series = coord.transform(day)
        alone, exhaustive = set(), set()
        for span in report["spans"]:
            lo, hi = span["span"]
            points, _ = segment.find_final_segment_points(series.hra[lo:hi], net)
            plan = infer.plan_span(series, lo, hi, net, points, "full")
            alone |= set(infer._classify(series, [plan], attack_model.ensemble)[0])
            assert plan.detected_cuts is not None
            for cuts in [plan.detected_cuts, *(cuts for _, _, cuts in plan.recuts)]:
                exhaustive |= set(plan.layout(cuts))
        assert set(shared) <= {series.enu[a:b].tobytes() for a, b in alone}
        assert sum(map(len, shared)) < sum(series.enu[a:b].nbytes for a, b in exhaustive)

    def test_walk_only_trace_yields_nothing(self, small_config, attack_model):
        walk = gen_other_mode("walk", 120.0, small_config.noise, seed=9)
        report = attack_trace(walk, attack_model, mode="full")
        assert report["num_spans"] == 0
        assert report["spans"] == []


class TestSeedSegments:
    def test_shapes_and_determinism(self, small_corpus, small_config):
        net = small_corpus.network
        segs = seed_segments(net, small_corpus.profiles, 2, 3, small_config.noise, seed=13)
        assert len(segs) == 3
        again = seed_segments(net, small_corpus.profiles, 2, 3, small_config.noise, seed=13)
        for a, b in zip(segs, again):
            assert a.shape[1] == 3
            assert np.array_equal(a, b)

    def test_padding_keeps_ride_inside(self, small_corpus, small_config):
        # also on a 20 Hz line, whose seed recordings are sampled at its own rate
        lines = [(small_corpus.network, small_corpus.profiles), gen_network(6, 11, 20.0)]
        for net, profiles in lines:
            iv = net.intervals[2]
            segs = seed_segments(net, profiles, 2, 2, small_config.noise, seed=14)
            low = net.sample_rate * iv.min_duration
            high = net.sample_rate * (iv.max_duration + 2 * net.dwell_nominal) + 2
            for seg in segs:
                assert low <= len(seg) <= high
