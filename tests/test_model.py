"""File formats and domain invariants: traces, networks, id mappings."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from subtrace.extract import THRESHOLD_PERCENTILES
from subtrace.features import NVHT_PERCENTILES
from subtrace.infer import TraceHypothesis, candidate_runs
from subtrace.model import (
    FORWARD,
    REVERSE,
    MetroNetwork,
    NetworkFormatError,
    StationInterval,
    Trace,
    TraceFormatError,
    TruthRange,
    load_network,
    load_trace,
    normalize_orientation,
    percentiles,
    save_network,
    save_trace,
)
from subtrace.pipeline import write_corpus
from subtrace.segment import T1_PERCENTILE


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
    return MetroNetwork("unit-line", rate, tuple(forward), 25.0, 35.0)


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
        # sample 3 sits on file line 5, after the meta line; a file's error names the line
        trace = make_trace(n=8)
        trace.t[3] = trace.t[2]
        with pytest.raises(TraceFormatError, match="not strictly increasing at sample offset 3$"):
            trace.validate()
        p = tmp_path / "repeat.jsonl"
        save_trace(trace, p)
        message = r"^repeat\.jsonl:5: timestamps not strictly increasing$"
        with pytest.raises(TraceFormatError, match=message):
            load_trace(p)

    def test_alpha_out_of_range(self):
        trace = make_trace(n=5)
        trace.orient[2, 0] = 91.0
        with pytest.raises(TraceFormatError, match="alpha outside"):
            trace.validate()

    @pytest.mark.parametrize("value", [1e307, -1e308, 10000.5])
    def test_non_physical_acceleration_names_sample(self, tmp_path, value):
        # finite but far past any accelerometer's range: it would overflow into
        # non-finite features downstream, so the trace is refused
        trace = make_trace(n=6)
        trace.acc[4, 2] = value
        beyond = r"acc value beyond 10000 m/s\^2"
        with pytest.raises(TraceFormatError, match=rf"^{beyond} at sample offset 4$"):
            trace.validate()
        p = tmp_path / "loud.jsonl"
        save_trace(trace, p)
        with pytest.raises(TraceFormatError, match=rf"^loud\.jsonl:6: {beyond}$"):
            load_trace(p)
        trace.acc[4, 2] = 10000.0
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

    @pytest.mark.parametrize("rate", [-10.0, np.nan, np.inf])
    def test_negative_or_non_finite_rate(self, rate):
        trace = make_trace(n=5)
        trace.sample_rate = 0.0  # undeclared: accepted, spacing unchecked
        trace.validate()
        trace.sample_rate = rate
        with pytest.raises(TraceFormatError, match="negative or not finite"):
            trace.validate()

    def test_non_utf8_bytes_name_line(self, tmp_path):
        # the bad byte lies past the first chunk the reader decodes
        p = tmp_path / "bad.jsonl"
        save_trace(make_trace(n=600), p)
        lines = p.read_bytes().splitlines(keepends=True)
        lines[400] = lines[400].replace(b'"t"', b'"\xff"')
        p.write_bytes(b"".join(lines))
        with pytest.raises(TraceFormatError, match=r"^bad\.jsonl:401: not UTF-8 text"):
            load_trace(p)

    def test_irregular_spacing(self):
        trace = make_trace(n=5)
        trace.t[4] += 0.02
        with pytest.raises(TraceFormatError, match="sample spacing"):
            trace.validate()

    def test_irregular_spacing_names_sample(self):
        # moving t[3] late stretches the gap before it and shrinks the one after
        trace = make_trace(n=8)
        trace.t[3] += 0.005
        with pytest.raises(TraceFormatError, match="1/sample_rate at sample offset 3$"):
            trace.validate()

    @pytest.mark.parametrize(
        "field, index, value, problem, offset",
        [
            ("t", (3,), None, "timestamps not strictly increasing", 3),
            ("t", (5,), 0.205, "sample spacing deviates more than 1% from 1/sample_rate", 5),
            ("orient", (2, 0), 91.0, "alpha outside [-90, 90] degrees", 2),
        ],
    )
    def test_validation_error_names_file(self, tmp_path, field, index, value, problem, offset):
        # in memory the error names the sample; from a file, its line (the meta line is line 1)
        trace = make_trace(n=8)
        getattr(trace, field)[index] = trace.t[2] if value is None else value
        with pytest.raises(TraceFormatError) as info:
            trace.validate()
        assert str(info.value) == f"{problem} at sample offset {offset}"
        p = tmp_path / "bad.jsonl"
        save_trace(trace, p)
        with pytest.raises(TraceFormatError) as info:
            load_trace(p)
        assert str(info.value) == f"bad.jsonl:{offset + 2}: {problem}"


class TestNetwork:
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

    @pytest.mark.parametrize("k", range(1, 8))
    def test_directed_runs_are_the_candidate_runs(self, k):
        # a run of directed ids that fits and an (undirected start, direction)
        # pair of infer name the same rides, interval for interval
        net = make_line(k=k)

        def direction(gid):
            uid = net.undirected(gid)
            return next(d for d in (FORWARD, REVERSE) if net.directed(uid, d) == gid)

        for n in range(1, k + 2):
            starts = [g for g in net.directed_ids if net.fits(g, n)]
            rides = [(net.undirected(g), direction(g)) for g in starts]
            assert len(set(rides)) == len(rides)
            assert sorted(rides) == sorted(candidate_runs(n, k))
            for g, (start, d) in zip(starts, rides):
                want = [net.undirected(x) for x in range(g, g + n)]
                assert list(TraceHypothesis(start, d, n, 0.0).interval_ids()) == want

    @pytest.mark.parametrize(
        "uid, direction",
        [(1, "Forward"), (1, None), (-1, FORWARD), (5, REVERSE)],
        ids=["capitalised direction", "no direction", "uid before the line", "uid past the line"],
    )
    def test_directed_refuses_what_is_not_a_ride(self, uid, direction):
        with pytest.raises(ValueError, match="no directed id"):
            make_line(k=5).directed(uid, direction)

    @pytest.mark.parametrize("gid", [-1, 10])
    def test_undirected_refuses_id_off_the_line(self, gid):
        with pytest.raises(ValueError, match=r"not in 0\.\.9"):
            make_line(k=5).undirected(gid)

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
        forward = (StationInterval(0, "A", "B", 90.0, 120.0),)
        with pytest.raises(NetworkFormatError, match="dwell bounds"):
            MetroNetwork("x", 25.0, forward, 5.0, 35.0)

    def test_nonconsecutive_ids_rejected(self):
        forward = (StationInterval(1, "A", "B", 90.0, 120.0),)
        with pytest.raises(NetworkFormatError, match=r"ids must be 0\.\.k-1 in order"):
            MetroNetwork("x", 25.0, forward, 25.0, 35.0)
        with pytest.raises(NetworkFormatError, match="at least one interval"):
            MetroNetwork("x", 25.0, (), 25.0, 35.0)

    def test_bad_sample_rate(self):
        iv = (StationInterval(0, "A", "B", 90.0, 120.0),)
        with pytest.raises(NetworkFormatError, match="sample_rate"):
            MetroNetwork("x", 0.0, iv, 25.0, 35.0)

    @pytest.mark.parametrize(
        "rate, dwell, interval, got",
        [(10.0, 25.0, 22.0, "250, 220"), (0.02, 25.0, 90.0, "0, 2")],
        ids=["interval shorter than dwell", "dwell under one sample"],
    )
    def test_segmenter_lengths_refused(self, tmp_path, rate, dwell, interval, got):
        # the segmenter's window is the shortest dwell, and no two of its cuts
        # lie closer than the shortest interval
        named = f"need 0 < shortest dwell <= shortest interval in samples, got {got}"
        iv = (StationInterval(0, "A", "B", interval, 120.0),)
        with pytest.raises(NetworkFormatError, match=named):
            MetroNetwork("x", rate, iv, dwell, 35.0)
        doc = {
            "name": "x",
            "sample_rate": rate,
            "dwell": [dwell, 35.0],
            "intervals": [
                {"id": 0, "from": "A", "to": "B", "min_duration": interval, "max_duration": 120.0}
            ],
        }
        p = tmp_path / "line.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match=named):
            load_network(p)

    @pytest.mark.parametrize(
        "rate, dwell_max, max_duration",
        [(math.inf, 35.0, 120.0), (math.nan, 35.0, 120.0), (25.0, math.inf, 120.0),
         (25.0, 35.0, math.inf)],
        ids=["infinite rate", "NaN rate", "infinite dwell", "infinite interval"],
    )
    def test_non_finite_timetable_refused(self, rate, dwell_max, max_duration):
        # each used to load, and then stop the segmenter with an OverflowError
        # or ValueError converting its lengths to samples
        with pytest.raises(NetworkFormatError):
            iv = (StationInterval(0, "A", "B", 90.0, max_duration),)
            MetroNetwork("x", rate, iv, 25.0, dwell_max)

    def test_broken_line_rejected(self, tmp_path):
        # A->B then C->D is no line: a forward ride would read A, B, D and its
        # reverse D, C, A over the same track
        doc = {
            "name": "x",
            "sample_rate": 25.0,
            "dwell": [25.0, 35.0],
            "intervals": [
                {"id": 0, "from": "A", "to": "B", "min_duration": 90.0, "max_duration": 120.0},
                {"id": 1, "from": "C", "to": "D", "min_duration": 90.0, "max_duration": 120.0},
            ],
        }
        p = tmp_path / "line.json"
        p.write_text(json.dumps(doc))
        named = "interval 1 starts at 'C' but interval 0 ends at 'B'"
        with pytest.raises(NetworkFormatError, match=named):
            load_network(p)


# --- frozen copies of the per-sample trace I/O -------------------------------


def loop_save_trace(trace: Trace, path) -> None:
    """The writer as it was: one ``json.dumps`` per sample row."""
    path = Path(path)
    with path.open("w") as fh:
        meta = {"meta": {"device_id": trace.device_id, "sample_rate": trace.sample_rate}}
        fh.write(json.dumps(meta, allow_nan=False) + "\n")
        for i in range(trace.n_samples):
            row = {
                "t": float(trace.t[i]),
                "acc": [float(v) for v in trace.acc[i]],
                "orient": [float(v) for v in trace.orient[i]],
            }
            fh.write(json.dumps(row, allow_nan=False) + "\n")
        if trace.truth:
            trailer = {
                "truth": [
                    {"start": r.start, "end": r.end, "label": r.label} for r in trace.truth
                ]
            }
            fh.write(json.dumps(trailer, allow_nan=False) + "\n")


def loop_load_trace(path) -> Trace:
    """The reader as it was: seven ``float()`` calls and three appends per line."""
    path = Path(path)
    device_id = ""
    sample_rate = 0.0
    rows_t, rows_acc, rows_orient, linenos = [], [], [], []
    truth = []
    trailer_seen = False
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path.name}:{lineno}: not valid JSON ({exc.msg})")
            if "meta" in obj:
                if lineno != 1:
                    raise TraceFormatError(f"{path.name}:{lineno}: meta must be the first line")
                meta = obj["meta"]
                device_id = str(meta.get("device_id", ""))
                sample_rate = float(meta.get("sample_rate", 0.0))
            elif "truth" in obj:
                if trailer_seen:
                    raise TraceFormatError(f"{path.name}:{lineno}: duplicate truth trailer")
                trailer_seen = True
                for entry in obj["truth"]:
                    truth.append(
                        TruthRange(float(entry["start"]), float(entry["end"]), str(entry["label"]))
                    )
            else:
                if trailer_seen:
                    raise TraceFormatError(f"{path.name}:{lineno}: samples after truth trailer")
                try:
                    t = float(obj["t"])
                    acc = [float(v) for v in obj["acc"]]
                    orient = [float(v) for v in obj["orient"]]
                except (KeyError, TypeError, ValueError):
                    raise TraceFormatError(f"{path.name}:{lineno}: sample needs t, acc[3], orient[3]")
                if len(acc) != 3 or len(orient) != 3:
                    raise TraceFormatError(f"{path.name}:{lineno}: acc and orient must have 3 entries")
                rows_t.append(t)
                rows_acc.append(acc)
                rows_orient.append(orient)
                linenos.append(lineno)
    if not rows_t:
        raise TraceFormatError(f"{path.name}: no samples")
    trace = Trace(
        device_id=device_id,
        sample_rate=sample_rate,
        t=np.asarray(rows_t, dtype=float),
        acc=np.asarray(rows_acc, dtype=float),
        orient=normalize_orientation(np.asarray(rows_orient, dtype=float)),
        truth=tuple(truth),
    )
    try:
        trace.validate()
    except TraceFormatError as exc:  # validation errors name the file and line, as load_trace's do
        where = path.name if exc.offset is None else f"{path.name}:{linenos[exc.offset]}"
        raise TraceFormatError(f"{where}: {exc.problem}") from None
    return trace


def load_outcome(load, path):
    """What a reader makes of a file: the trace's bytes, or the exception."""
    try:
        tr = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (tr.t, tr.acc, tr.orient))
    return tr.device_id, tr.sample_rate, arrays, tr.truth


META = '{"meta": {"device_id": "x", "sample_rate": 25.0}}'


def sample(i, t=None, acc=None, orient=None):
    """Text of one valid sample line, with any field's text replaced."""
    t = repr(i * 0.04) if t is None else t
    acc = "[0.5, -1.25, 9.8]" if acc is None else acc
    orient = "[10.0, 20.0, 30.0]" if orient is None else orient
    return f'{{"t": {t}, "acc": {acc}, "orient": {orient}}}'


TRAILER = '{"truth": [{"start": 0.0, "end": 0.1, "label": "metro"}]}'

MALFORMED = {
    "invalid json": [META, sample(0), "{not json", sample(2)],
    "blank lines": [META, "", sample(0), "   ", sample(1), "", TRAILER, ""],
    "meta not first": [sample(0), META, sample(1)],
    "meta after blank line": ["", META, sample(0)],
    "duplicate trailer": [META, sample(0), TRAILER, TRAILER],
    "samples after trailer": [META, sample(0), TRAILER, sample(1)],
    "missing key": [META, sample(0), '{"t": 0.04, "acc": [0, 0, 0]}', sample(2)],
    "acc with 2 entries": [META, sample(0), sample(1, acc="[1.0, 2.0]"), sample(2)],
    "every acc with 2 entries": [META] + [sample(i, acc="[1.0, 2.0]") for i in range(3)],
    "orient with 4 entries": [META, sample(0, orient="[1, 2, 3, 4]"), sample(1)],
    "nested acc": [META, sample(0), sample(1, acc="[[1, 2, 3], [4, 5, 6], [7, 8, 9]]")],
    "every acc nested": [META] + [sample(i, acc="[[1], [2], [3]]") for i in range(3)],
    "null t": [META, sample(0), sample(1, t="null"), sample(2)],
    "null acc entry": [META, sample(0), sample(1, acc="[1.0, null, 3.0]")],
    "null acc": [META, sample(0, acc="null"), sample(1)],
    "non-numeric string": [META, sample(0), sample(1, acc='["x", 2, 3]')],
    "nan literal": [META, sample(0), sample(1, acc="[NaN, 0, 0]"), sample(2)],
    "infinity literal": [META, sample(0, t="Infinity"), sample(1)],
    "sample is a list": [META, sample(0), "[0.04, 1, 2]"],
    "two objects on one line": [META, sample(0) + sample(1), sample(2)],
    "one object over two lines": [META, sample(0), '{"t": 0.04, "acc": [0, 0, 0],', '"orient": [0, 0, 0]}'],
    "bad sample before bad json": [META, sample(0, acc="[1]"), sample(1), "{oops"],
    "bad sample before duplicate trailer": [META, sample(0, t="null"), TRAILER, TRAILER],
    "bad sample before bad meta": [META, sample(0, acc="[1]"), '{"meta": 5}'],
    "bad sample before bare number": [META, sample(0, acc="[1]"), "5"],
    "bad sample before bad truth": [META, sample(0, t='"x"'), '{"truth": [{"start": 0}]}'],
    "byte order mark": ["\ufeff" + META, sample(0)],
    "text after the object": [META, sample(0), sample(1) + " x"],
    "unicode space around the object": [META, "\u00a0" + sample(0) + "\u2003", sample(1)],
    "bare string": [META, sample(0), '"abc"'],
    "only meta": [META],
    "nothing": [""],
}

# Files the frozen reader fails on with a bare TypeError, AttributeError,
# KeyError, OverflowError, RecursionError or ValueError, or reads into wrong
# values (it takes a string or an object for acc or orient, a JSON boolean
# or a numeric string for a sample value, and lets a later line that is not
# UTF-8 hide a bad sample); the reader names the line instead. Each value is
# the file's lines and the line number named, and "\udcff" in a line writes
# a lone 0xff byte.
MALFORMED_NAMED = {
    "int too large for a float": ([META, sample(0), sample(1, t="1" + "0" * 400)], 3),
    "bad truth before bad sample": ([META, '{"truth": [{"start": 0}]}', sample(0, t='"x"')], 2),
    "bare number": ([META, sample(0), "5"], 3),
    "deep nesting": ([META, sample(0), "[" * 100000 + "]" * 100000], 3),
    "meta not an object": (['{"meta": 5}', sample(0)], 1),
    "meta rate not a number": (['{"meta": {"sample_rate": "fast"}}', sample(0)], 1),
    "meta rate too large": (['{"meta": {"sample_rate": 1' + "0" * 400 + "}}", sample(0)], 1),
    "truth entry without end": ([META, sample(0), '{"truth": [{"start": 0, "label": "m"}]}'], 3),
    "truth not a list": ([META, sample(0), '{"truth": 5}'], 3),
    "integer past the digit limit": ([META, sample(0), sample(1, t="1" * 5000)], 3),
    "null line": ([META, "null", sample(0)], 2),
    "acc a 3-character string": ([META] + [sample(i, acc='"123"') for i in range(3)], 2),
    "acc an object": ([META, sample(0, acc='{"1": 0, "2": 0, "3": 0}'), sample(1)], 2),
    "acc a string among valid samples": (
        [META, sample(0), sample(1), sample(2, acc='"789"'), sample(3)],
        4,
    ),
    "orient a string": ([META, sample(0), sample(1, orient='"120"'), sample(2)], 3),
    "bad sample before a non-UTF-8 byte": (
        [META, sample(0, acc="[1]"), sample(1), sample(2), sample(3).replace('"t"', '"\udcff"')],
        2,
    ),
    "numeric string": ([META, sample(0), sample(1, t='"0.04"', acc='["1.5", 2, 3]')], 3),
    "true": ([META, sample(0), sample(1, acc="[true, false, 3]")], 3),
    "true timestamp": ([META, sample(0), sample(1, t="true")], 3),
    "every t a numeric string": ([META] + [sample(i, t=f'"{i * 0.04!r}"') for i in range(3)], 2),
    "every orient false": ([META] + [sample(i, orient="[false, false, false]") for i in range(3)], 2),
}


class TestTraceIOMatchesLoop:
    """Bulk conversion reads and writes what the per-sample code did."""

    @pytest.fixture(scope="class")
    def corpus_files(self, small_corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        write_corpus(small_corpus, root)
        return sorted(root.rglob("*.jsonl"))

    def test_corpus_files_load_identically(self, corpus_files):
        assert len(corpus_files) >= 8
        for path in corpus_files:
            assert load_outcome(load_trace, path) == load_outcome(loop_load_trace, path)

    def test_corpus_traces_write_identical_bytes(self, small_corpus, tmp_path):
        for i, trace in enumerate(small_corpus.trips + small_corpus.modes):
            save_trace(trace, tmp_path / f"new_{i}.jsonl")
            loop_save_trace(trace, tmp_path / f"old_{i}.jsonl")
            assert (tmp_path / f"new_{i}.jsonl").read_bytes() == (
                tmp_path / f"old_{i}.jsonl"
            ).read_bytes()

    @pytest.mark.parametrize(
        "t, acc",
        [
            (np.arange(4), np.zeros((4, 3), dtype=int)),
            (np.arange(4, dtype=np.float32) / 3, np.full((4, 3), 1 / 3, dtype=np.float32)),
            (np.arange(4) * 0.1, np.array([[-0.0, 5e-324, 1e300]] * 4)),
        ],
    )
    def test_odd_dtypes_write_identical_bytes(self, tmp_path, t, acc):
        trace = Trace("odd", 10.0, t, acc, np.zeros((4, 3)))
        save_trace(trace, tmp_path / "new.jsonl")
        loop_save_trace(trace, tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_not_written(self, tmp_path, value):
        trace = make_trace(n=6)
        trace.acc[4, 1] = value
        with pytest.raises(ValueError, match="sample offset 4"):
            save_trace(trace, tmp_path / "bad.jsonl")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_same_outcome(self, tmp_path, case):
        path = tmp_path / "case.jsonl"
        path.write_text("\n".join(MALFORMED[case]) + "\n")
        assert load_outcome(load_trace, path) == load_outcome(loop_load_trace, path)


class TestMalformedNamesLine:
    """Every malformed file raises ``TraceFormatError`` naming its bad line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_NAMED))
    def test_raises(self, tmp_path, case):
        lines, lineno = MALFORMED_NAMED[case]
        path = tmp_path / "case.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(TraceFormatError, match=rf"^case\.jsonl:{lineno}: "):
            load_trace(path)


# --- percentiles -----------------------------------------------------------------

QUANTILE_SETS = [
    (0.0,),
    (100.0,),
    (0.0, 100.0),
    NVHT_PERCENTILES,
    THRESHOLD_PERCENTILES,
    (T1_PERCENTILE,),
    (99.9, 0.1, 50.0, 50.0),
]


def pool(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "ties":
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "all equal":
        return np.full(n, rng.normal())
    values = np.abs(rng.normal(size=n))  # "zeros": |values| with a share of exact zeros
    values[rng.random(n) < 0.3] = 0.0
    return values


def assert_numpys(values: np.ndarray, qs) -> None:
    """``percentiles`` equals np.percentile of the list and of each q alone, bit for bit."""
    got = np.array(percentiles(values, qs))
    assert got.tobytes() == np.percentile(values, list(qs)).tobytes()
    assert got.tobytes() == np.array([np.percentile(values, q) for q in qs]).tobytes()


class TestPercentiles:
    @pytest.mark.parametrize("kind", ["normal", "ties", "all equal", "zeros"])
    def test_bit_equal_to_numpy_on_seeded_pools(self, kind):
        rng = np.random.default_rng(["normal", "ties", "all equal", "zeros"].index(kind))
        sizes = [1, 2, 3, 4, 5, 7, 10, 11, 100, 101, 2000, *rng.integers(1, 2001, size=60)]
        for n in sizes:
            values = pool(kind, int(n), rng)
            for qs in QUANTILE_SETS + [tuple(rng.uniform(0.0, 100.0, size=3))]:
                assert_numpys(values, qs)

    def test_interpolation_weights_either_side_of_a_half(self):
        # sorted, 1.0 sits at index 1 and 4.0 at index 2: weights 0.3 and 0.7 take both lerp branches
        values = np.array([4.0, 0.0, 1.0, 9.0, 16.0])
        for qs in [(32.5,), (42.5,), (37.5,), (12.5, 87.5)]:
            assert_numpys(values, qs)

    def test_all_negative_zero(self):
        # numpy's interpolation turns some of these into +0.0, at the last index too
        for n in [1, 2, 3, 10, 101]:
            for qs in QUANTILE_SETS:
                assert_numpys(np.full(n, -0.0), qs)

    def test_copy_left_in_order(self):
        values = np.random.default_rng(1).normal(size=500)
        before = values.copy()
        percentiles(values, NVHT_PERCENTILES)
        assert values.tobytes() == before.tobytes()

    def test_overwrite_input_partitions_in_place(self):
        values = np.random.default_rng(2).normal(size=500)
        want = np.percentile(values, NVHT_PERCENTILES).tolist()
        before = values.copy()
        assert list(percentiles(values, NVHT_PERCENTILES, overwrite_input=True)) == want
        assert values.tobytes() != before.tobytes()
        assert np.array_equal(np.sort(values), np.sort(before))

    @pytest.mark.parametrize("values", [np.array([]), np.zeros((3, 2))], ids=["empty", "2-d"])
    def test_rejects_empty_and_2d(self, values):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            percentiles(values, (50.0,))
