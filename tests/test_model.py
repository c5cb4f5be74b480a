"""File formats and domain invariants: traces, networks, id mappings."""

import json

import numpy as np
import pytest

from subtrace.model import (
    MetroNetwork,
    NetworkFormatError,
    StationInterval,
    Trace,
    TraceFormatError,
    TruthRange,
    build_network,
    load_network,
    load_trace,
    normalize_orientation,
    save_network,
    save_trace,
)


def make_trace(n=50, rate=25.0, truth=()):
    rng = np.random.default_rng(3)
    t = np.arange(n) / rate
    acc = rng.normal(0.0, 0.5, size=(n, 3))
    orient = np.column_stack(
        [
            rng.uniform(-80, 80, size=n),
            rng.uniform(-170, 170, size=n),
            rng.uniform(0, 350, size=n),
        ]
    )
    return Trace(
        device_id="unit", sample_rate=rate, t=t, acc=acc, orient=orient, truth=tuple(truth)
    )


def make_line(k=4, rate=25.0):
    forward = [
        StationInterval(i, f"S{i}", f"S{i+1}", 90.0 + 5 * i, 120.0 + 5 * i)
        for i in range(k)
    ]
    return build_network("unit-line", rate, (25.0, 35.0), forward)


class TestTraceRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        truth = (TruthRange(0.0, 1.0, "metro"), TruthRange(1.0, 2.0, "interval:3"))
        trace = make_trace(truth=truth)
        p = tmp_path / "trace.jsonl"
        save_trace(trace, p)
        back = load_trace(p)
        assert back.device_id == "unit"
        assert back.sample_rate == 25.0
        np.testing.assert_array_equal(back.t, trace.t)
        np.testing.assert_array_equal(back.acc, trace.acc)
        np.testing.assert_array_equal(back.orient, trace.orient)
        assert back.truth == truth

    def test_no_truth_trailer_when_empty(self, tmp_path):
        p = tmp_path / "trace.jsonl"
        save_trace(make_trace(), p)
        lines = p.read_text().strip().splitlines()
        assert "truth" not in lines[-1]
        assert load_trace(p).truth == ()

    def test_orientation_normalized_on_load(self, tmp_path):
        trace = make_trace(n=3)
        trace.orient[:, 1] = [181.0, -181.0, 170.0]
        trace.orient[:, 2] = [-10.0, 370.0, 5.0]
        p = tmp_path / "trace.jsonl"
        save_trace(trace, p)
        back = load_trace(p)
        np.testing.assert_allclose(back.orient[:, 1], [-179.0, 179.0, 170.0])
        np.testing.assert_allclose(back.orient[:, 2], [350.0, 10.0, 5.0])

    def test_normalize_orientation_leaves_alpha(self):
        orient = np.array([[45.0, 200.0, -90.0]])
        out = normalize_orientation(orient)
        np.testing.assert_allclose(out[0], [45.0, -160.0, 270.0])


class TestTraceErrors:
    def write(self, tmp_path, lines):
        p = tmp_path / "bad.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_invalid_json_names_line(self, tmp_path):
        p = self.write(
            tmp_path,
            ['{"meta": {"device_id": "x", "sample_rate": 25}}', "{not json"],
        )
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
            load_trace(p)

    def test_meta_after_samples(self, tmp_path):
        p = self.write(
            tmp_path,
            ['{"t": 0.0, "acc": [0,0,0], "orient": [0,0,0]}', '{"meta": {}}'],
        )
        with pytest.raises(TraceFormatError, match=":2: meta must be the first line"):
            load_trace(p)

    def test_sample_after_truth(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                '{"t": 0.0, "acc": [0,0,0], "orient": [0,0,0]}',
                '{"truth": []}',
                '{"t": 0.04, "acc": [0,0,0], "orient": [0,0,0]}',
            ],
        )
        with pytest.raises(TraceFormatError, match=":3: samples after truth"):
            load_trace(p)

    def test_malformed_sample_names_line(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                '{"t": 0.0, "acc": [0,0,0], "orient": [0,0,0]}',
                '{"t": 0.04, "acc": [0,0], "orient": [0,0,0]}',
            ],
        )
        with pytest.raises(TraceFormatError, match=":2:"):
            load_trace(p)

    def test_empty_file(self, tmp_path):
        p = self.write(tmp_path, [""])
        with pytest.raises(TraceFormatError, match="no samples"):
            load_trace(p)

    def test_duplicate_truth_trailer(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                '{"t": 0.0, "acc": [0,0,0], "orient": [0,0,0]}',
                '{"truth": []}',
                '{"truth": []}',
            ],
        )
        with pytest.raises(TraceFormatError, match="duplicate truth"):
            load_trace(p)

    def test_nonincreasing_timestamps(self):
        trace = make_trace(n=5)
        trace.t[3] = trace.t[2]
        with pytest.raises(TraceFormatError, match="not strictly increasing"):
            trace.validate()

    def test_nonincreasing_timestamp_names_sample(self, tmp_path):
        # sample 3 sits on file line 5, after the meta line; the message names the sample
        trace = make_trace(n=8)
        trace.t[3] = trace.t[2]
        p = tmp_path / "repeat.jsonl"
        save_trace(trace, p)
        with pytest.raises(TraceFormatError, match="not strictly increasing at sample offset 3$"):
            load_trace(p)

    def test_alpha_out_of_range(self):
        trace = make_trace(n=5)
        trace.orient[2, 0] = 91.0
        with pytest.raises(TraceFormatError, match="alpha outside"):
            trace.validate()

    @pytest.mark.parametrize(
        "name, index, value",
        [("t", (3,), np.nan), ("acc", (3, 1), np.nan), ("acc", (3, 2), np.inf),
         ("orient", (3, 0), -np.inf)],
    )
    def test_non_finite_value_names_sample(self, name, index, value):
        trace = make_trace(n=6)
        getattr(trace, name)[index] = value
        with pytest.raises(TraceFormatError, match=f"non-finite {name} value at sample offset 3"):
            trace.validate()

    def test_irregular_spacing(self):
        trace = make_trace(n=5)
        trace.t[4] += 0.02
        with pytest.raises(TraceFormatError, match="sample spacing"):
            trace.validate()


class TestNetwork:
    def test_reverse_derivation(self):
        net = make_line(k=4)
        assert net.num_intervals == 4
        assert len(net.intervals) == 8
        for i, iv in enumerate(net.reverse):
            src = net.forward[4 - 1 - i]
            assert iv.id == 4 + i
            assert iv.reverse
            assert (iv.from_station, iv.to_station) == (src.to_station, src.from_station)
            assert (iv.min_duration, iv.max_duration) == (src.min_duration, src.max_duration)

    def test_id_mappings_round_trip(self):
        net = make_line(k=5)
        for u in range(5):
            f = net.directed(u, "forward")
            r = net.directed(u, "reverse")
            assert f == u
            assert r == 2 * 5 - 1 - u
            assert net.undirected(f) == u
            assert net.undirected(r) == u
        assert sorted(net.directed(u, d) for u in range(5) for d in ("forward", "reverse")) == list(range(10))

    def test_consecutive_ids_in_ride_order(self):
        # a ride occupies consecutive directed ids in both directions
        net = make_line(k=4)
        fwd_ride = [net.directed(u, "forward") for u in (1, 2, 3)]
        rev_ride = [net.directed(u, "reverse") for u in (3, 2, 1)]
        assert fwd_ride == [1, 2, 3]
        assert rev_ride == [4, 5, 6]

    def test_durations(self):
        net = make_line(k=3)
        assert net.nominal_duration(1) == pytest.approx(0.5 * (95.0 + 125.0))
        assert net.min_interval_duration == 90.0
        assert net.max_interval_duration == 130.0
        assert net.dwell_nominal == 30.0

    def test_json_round_trip(self, tmp_path):
        net = make_line(k=4)
        p = tmp_path / "line.json"
        save_network(net, p)
        assert load_network(p) == net

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "line.json"
        p.write_text("{nope")
        with pytest.raises(NetworkFormatError, match="not valid JSON"):
            load_network(p)

    def test_load_rejects_missing_fields(self, tmp_path):
        p = tmp_path / "line.json"
        p.write_text(json.dumps({"name": "x"}))
        with pytest.raises(NetworkFormatError, match="needs name, sample_rate"):
            load_network(p)

    def test_bad_duration_bounds(self):
        with pytest.raises(NetworkFormatError, match="bad duration bounds"):
            StationInterval(0, "A", "B", 120.0, 90.0)
        with pytest.raises(NetworkFormatError, match="bad duration bounds"):
            StationInterval(0, "A", "B", 0.0, 90.0)

    def test_bad_dwell_bounds(self):
        forward = [StationInterval(0, "A", "B", 90.0, 120.0)]
        with pytest.raises(NetworkFormatError, match="dwell bounds"):
            build_network("x", 25.0, (5.0, 35.0), forward)

    def test_nonconsecutive_ids_rejected(self):
        forward = [StationInterval(1, "A", "B", 90.0, 120.0)]
        with pytest.raises(NetworkFormatError, match="consecutive"):
            build_network("x", 25.0, (25.0, 35.0), forward)

    def test_bad_sample_rate(self):
        iv = [
            StationInterval(0, "A", "B", 90.0, 120.0),
            StationInterval(1, "B", "A", 90.0, 120.0, reverse=True),
        ]
        with pytest.raises(NetworkFormatError, match="sample_rate"):
            MetroNetwork("x", 0.0, tuple(iv), 25.0, 35.0)
