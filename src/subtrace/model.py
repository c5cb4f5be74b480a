"""Domain types and file formats shared by the whole pipeline.

Traces are JSON-lines files: an optional meta header, one object per sample,
and an optional ground-truth trailer.  Metro networks are single JSON
documents describing one line as its forward intervals.  The reverse
direction is an id mapping that ``MetroNetwork`` alone owns: ``directed``,
``undirected``, ``directed_ids``, ``fits`` and ``stations``.

``load_trace`` decodes each nonblank line with its own decoder call and stops
at the first line it cannot read; a line that is not UTF-8 is one more such
line. One bulk numpy conversion per field then converts the samples read up
to there. Only when it fails are the samples walked, to name the bad line,
and a bad sample is reported before the line that stopped the reading.
``save_trace`` formats every sample row in one pass, with the same float
repr text that ``json.dumps`` writes.
Every other JSON file is one document, written as ``dump_json`` text and
read through ``load_json``. ``percentiles`` is the one percentile rule that
the ride extractor, the segmenter and the feature thresholds share.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

GRAVITY = 9.81

ALPHA_RANGE = (-90.0, 90.0)
# bound on |acc| in m/s^2: phone accelerometers saturate near 16 g (157 m/s^2)
ACC_LIMIT = 1e4
MIN_DWELL = 20.0
FORWARD = "forward"
REVERSE = "reverse"


class TraceFormatError(ValueError):
    """Raised when a trace file violates the JSON-lines contract.

    ``offset`` is the sample at fault, when the problem has one; the message
    then ends "at sample offset N", and ``problem`` is the message without it.
    """

    def __init__(self, problem: str, offset: int | None = None):
        super().__init__(problem if offset is None else f"{problem} at sample offset {offset}")
        self.problem = problem
        self.offset = offset


class NetworkFormatError(ValueError):
    """Raised when a network file violates the network schema."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite integer or float; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def percentiles(values: np.ndarray, qs: Iterable[float], overwrite_input: bool = False) -> tuple[float, ...]:
    """``np.percentile(values, q)`` for each q in ``qs`` of non-empty finite 1-d values.

    Each result has numpy's bits, except that where ``values`` mix 0.0 and
    -0.0 the sign of a zero result may differ from numpy's; it is still
    equal to numpy's in value.

    numpy's linear rule puts percentile q at the virtual index
    ``(n - 1) * q / 100``, between the order statistics at its floor and the
    next index (both at the last index from ``n - 1`` on, weighted as if from
    index -1), and interpolates as its ``_lerp`` does, from the upper value
    when the weight is at least a half. numpy places every needed order
    statistic with one multi-kth ``partition``; here each, in ascending
    order, gets a single-kth partition of what lies above the one placed
    before it, which costs several times less on long arrays. The order
    statistic at index 0, or right above the last one placed, such as the
    upper of a pair, is the least of what lies there or above, so it is read
    with ``min`` and placed by no partition. A copy is partitioned unless
    ``overwrite_input`` is set, in which case ``values`` itself is reordered.
    """
    arr = np.asarray(values, dtype=float) if overwrite_input else np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"percentiles need a non-empty 1-d array, got shape {arr.shape}")
    last = arr.size - 1
    plan = []  # (lower index, upper index, weight of the upper value)
    for q in qs:
        virtual = last * (q / 100)
        if virtual >= last:
            plan.append((last, last, virtual + 1))
        else:
            lo = math.floor(virtual)
            plan.append((lo, lo + 1, virtual - lo))
    value = {}
    start = 0
    for k in sorted({i for lo, hi, _ in plan for i in (lo, hi)}):
        if k == start:
            value[k] = float(arr[start:].min())
            continue
        arr[start:].partition(k - start)
        value[k] = float(arr[k])
        start = k + 1
    return tuple(_lerp(value[lo], value[hi], t) for lo, hi, t in plan)


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation between a and b: from b's side when t >= 0.5."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


@dataclass(frozen=True)
class TruthRange:
    start: float
    end: float
    label: str


# --- network ----------------------------------------------------------------


@dataclass(frozen=True)
class StationInterval:
    """Track piece between two adjacent stations, in the line's forward direction."""

    id: int
    from_station: str
    to_station: str
    min_duration: float
    max_duration: float

    def __post_init__(self):
        if not (0 < self.min_duration <= self.max_duration < math.inf):
            raise NetworkFormatError(
                f"interval {self.id}: bad duration bounds "
                f"[{self.min_duration}, {self.max_duration}]"
            )

    @property
    def nominal_duration(self) -> float:
        return 0.5 * (self.min_duration + self.max_duration)


@dataclass(frozen=True)
class MetroNetwork:
    """One metro line, stored once as its k forward intervals.

    ``intervals[i]`` runs from station i to station i+1, so interval i+1
    starts where interval i ends, and a ride in either direction is a run
    of consecutive intervals. The reverse direction is only an id mapping,
    never a second list of intervals: directed ids run 0..k-1 forward and
    k..2k-1 reverse, where the reverse id k+i is the forward interval k-1-i
    ridden the other way. Ids inside one direction follow ride order, so a
    trip always occupies a run of consecutive directed ids. Only ``directed``,
    ``undirected``, ``directed_ids``, ``fits`` and ``stations`` know this layout.
    """

    name: str
    sample_rate: float
    intervals: tuple[StationInterval, ...]
    dwell_min: float
    dwell_max: float

    def __post_init__(self):
        if not (0 < self.sample_rate < math.inf):
            raise NetworkFormatError("sample_rate must be positive and finite")
        if not (MIN_DWELL <= self.dwell_min <= self.dwell_max < math.inf):
            raise NetworkFormatError(
                f"dwell bounds [{self.dwell_min}, {self.dwell_max}] invalid "
                f"(minimum stop time is {MIN_DWELL} s)"
            )
        ids = [iv.id for iv in self.intervals]
        if not ids or ids != list(range(len(ids))):
            raise NetworkFormatError("interval ids must be 0..k-1 in order, at least one interval")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if b.from_station != a.to_station:
                raise NetworkFormatError(
                    f"interval {b.id} starts at {b.from_station!r} but interval {a.id} "
                    f"ends at {a.to_station!r}"
                )
        # the segmenter's window and the least distance between its cuts, in samples
        dwell, interval = self.samples(self.dwell_min), self.samples(self.min_interval_duration)
        if not 0 < dwell <= interval:
            raise NetworkFormatError(
                f"need 0 < shortest dwell <= shortest interval in samples, got {dwell}, {interval}"
            )

    @property
    def num_intervals(self) -> int:
        """Number of station intervals on the line (direction-free count)."""
        return len(self.intervals)

    def undirected(self, gid: int) -> int:
        """Map a directed interval id onto its track segment id."""
        k = self.num_intervals
        if not 0 <= gid < 2 * k:
            raise ValueError(f"directed id {gid} is not in 0..{2 * k - 1}")
        return gid if gid < k else 2 * k - 1 - gid

    def directed(self, uid: int, direction: str) -> int:
        k = self.num_intervals
        if not 0 <= uid < k or direction not in (FORWARD, REVERSE):
            raise ValueError(f"no directed id for interval {uid} ridden {direction!r}")
        return uid if direction == FORWARD else 2 * k - 1 - uid

    @property
    def directed_ids(self) -> range:
        """Every directed id, the forward block first."""
        return range(2 * self.num_intervals)

    def fits(self, start: int, length: int) -> bool:
        """Whether ``length`` directed ids from ``start`` stay inside one direction."""
        k = self.num_intervals
        return length >= 1 and 0 <= start < 2 * k and start // k == (start + length - 1) // k

    def stations(self, uids: Iterable[int], direction: str) -> list[str]:
        """Stations passed by a ride over ``uids``, given in ride order."""
        ivs = [self.intervals[u] for u in uids]
        if direction == FORWARD:
            return [ivs[0].from_station] + [iv.to_station for iv in ivs]
        return [ivs[0].to_station] + [iv.from_station for iv in ivs]

    def nominal_duration(self, uid: int) -> float:
        return self.intervals[uid].nominal_duration

    def samples(self, seconds: float) -> int:
        """``seconds`` as a whole number of samples at the line's rate."""
        return int(round(self.sample_rate * seconds))

    @property
    def min_interval_duration(self) -> float:
        return min(iv.min_duration for iv in self.intervals)

    @property
    def max_interval_duration(self) -> float:
        return max(iv.max_duration for iv in self.intervals)

    @property
    def dwell_nominal(self) -> float:
        return 0.5 * (self.dwell_min + self.dwell_max)


# --- trace ------------------------------------------------------------------


@dataclass
class Trace:
    """A sensor recording: timestamps, phone-frame acc, orientation angles.

    Orientation is kept in degrees end to end so that file round-trips are
    exact; the coordinate module converts when it builds rotation matrices.
    """

    device_id: str
    sample_rate: float
    t: np.ndarray  # (n,) seconds
    acc: np.ndarray  # (n, 3) m/s^2, phone frame
    orient: np.ndarray  # (n, 3) degrees (alpha, beta, gamma)
    truth: tuple[TruthRange, ...] = ()

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0]) if self.n_samples > 1 else 0.0

    def truth_ranges(self, prefix: str = "") -> list[TruthRange]:
        return [r for r in self.truth if r.label.startswith(prefix)]

    def validate(self) -> None:
        """Refuse a trace the pipeline cannot reason about; a sample rate of 0 means undeclared."""
        n = self.n_samples
        if n == 0:
            raise TraceFormatError("no samples")
        if not (np.isfinite(self.sample_rate) and self.sample_rate >= 0):
            raise TraceFormatError(f"sample_rate {self.sample_rate!r} is negative or not finite")
        if self.acc.shape != (n, 3) or self.orient.shape != (n, 3):
            raise TraceFormatError("acc and orient must be (n, 3) arrays")
        for name in ("t", "acc", "orient"):
            bad = np.nonzero(~np.isfinite(getattr(self, name)))[0]
            if bad.size:
                raise TraceFormatError(f"non-finite {name} value", int(bad[0]))
        bad = np.nonzero(np.abs(self.acc) > ACC_LIMIT)[0]
        if bad.size:
            raise TraceFormatError(f"acc value beyond {ACC_LIMIT:g} m/s^2", int(bad[0]))
        if n > 1:
            dt = np.diff(self.t)
            if np.any(dt <= 0):
                bad = int(np.argmax(dt <= 0)) + 1
                raise TraceFormatError("timestamps not strictly increasing", bad)
            if self.sample_rate > 0:
                nominal = 1.0 / self.sample_rate
                off = np.abs(dt - nominal) > 0.01 * nominal
                if np.any(off):
                    bad = int(np.argmax(off)) + 1
                    raise TraceFormatError(
                        "sample spacing deviates more than 1% from 1/sample_rate", bad
                    )
        a = self.orient[:, 0]
        out = (a < ALPHA_RANGE[0] - 1e-9) | (a > ALPHA_RANGE[1] + 1e-9)
        if np.any(out):
            raise TraceFormatError("alpha outside [-90, 90] degrees", int(np.argmax(out)))


def normalize_orientation(orient: np.ndarray) -> np.ndarray:
    """Wrap beta into [-180, 180) and gamma into [0, 360); alpha untouched."""
    out = np.array(orient, dtype=float)
    out[:, 1] = (out[:, 1] + 180.0) % 360.0 - 180.0
    out[:, 2] = out[:, 2] % 360.0
    return out


# --- trace I/O --------------------------------------------------------------


# One sample row as ``json.dumps`` writes it: ``%r`` of a Python float is the
# float repr that ``json.dumps`` uses.
_SAMPLE_ROW = '{"t": %r, "acc": [%r, %r, %r], "orient": [%r, %r, %r]}\n'
_SAMPLE_KEYS = itemgetter("t", "acc", "orient")
# json.loads without its whitespace scans around the value, which a stripped
# line does not need; a value that does not end the line is left to json.loads
_decode = json.JSONDecoder().raw_decode


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as JSON lines; floats round-trip exactly via repr.

    All sample rows are formatted in one pass from ``tolist()`` floats (a
    numpy scalar would format as ``np.float64(...)``). A non-finite value
    raises ``ValueError`` before the file is opened.
    """
    rows = np.column_stack([np.asarray(trace.t, dtype=float), trace.acc, trace.orient])
    bad = np.nonzero(~np.isfinite(rows))[0]
    if bad.size:
        raise ValueError(f"non-finite value at sample offset {bad[0]} cannot be written as JSON")
    path = Path(path)
    with path.open("w") as fh:
        meta = {"meta": {"device_id": trace.device_id, "sample_rate": trace.sample_rate}}
        fh.write(json.dumps(meta, allow_nan=False) + "\n")
        fh.write("".join(_SAMPLE_ROW % tuple(row) for row in rows.tolist()))
        if trace.truth:
            trailer = {
                "truth": [
                    {"start": r.start, "end": r.end, "label": r.label} for r in trace.truth
                ]
            }
            fh.write(json.dumps(trailer, allow_nan=False) + "\n")


def _line_problem(obj) -> str:
    """What a decoded line that could not be read should have held."""
    if isinstance(obj, dict) and "meta" in obj:
        return "meta needs device_id and a numeric sample_rate"
    if isinstance(obj, dict) and "truth" in obj:
        return "truth needs a list of start, end, label entries"
    return "sample needs t, acc[3], orient[3]"


def _sample_arrays(
    name: str, linenos: list[int], samples: list[tuple], maybe_bool: bool
) -> tuple[np.ndarray, ...]:
    """``t``, ``acc`` and ``orient`` of the samples, one conversion each.

    Only a failed conversion, a wrong shape, a dtype that is not a number's
    (a string, or a JSON ``null``), a non-finite value, or ``maybe_bool``
    (a sample line may hold ``true`` or ``false``, which numpy would convert
    to 1 and 0 among numbers) walks the samples, to name the line of the
    first one that is not a number ``t`` with JSON arrays of 3 numbers. A
    ``NaN`` literal passes the walk, and ``Trace.validate`` refuses it.
    """
    n = len(samples)
    try:
        arrays = tuple(np.array(col) for col in zip(*samples))
    except (TypeError, ValueError, OverflowError):
        arrays = ()
    shapes_ok = [a.shape for a in arrays] == [(n,), (n, 3), (n, 3)]
    if not maybe_bool and shapes_ok and all(a.dtype.kind in "iuf" and np.isfinite(a).all() for a in arrays):
        return tuple(a.astype(float, copy=False) for a in arrays)
    for lineno, (t, acc, orient) in zip(linenos, samples):
        try:
            if not (isinstance(acc, list) and isinstance(orient, list)):
                raise TypeError("acc and orient must be JSON arrays")
            for value in (t, *acc, *orient):
                if type(value) not in (int, float):  # a bool, a string or a null
                    raise TypeError("sample values must be JSON numbers")
                float(value)
        except (OverflowError, TypeError, ValueError):
            raise TraceFormatError(f"{name}:{lineno}: sample needs t, acc[3], orient[3]") from None
        if len(acc) != 3 or len(orient) != 3:
            raise TraceFormatError(f"{name}:{lineno}: acc and orient must have 3 entries")
    return tuple(np.array(col, dtype=float) for col in zip(*samples))


def _decoded_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of ``path``, each decoded alone; a line that is not UTF-8 raises.

    A line keeps its end, so a sequence it cuts short fails as in the whole file.
    """
    for lineno, raw in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path.name}:{lineno}: not UTF-8 text ({exc.reason})") from None
        yield lineno, line


def _read_trace(name: str, numbered_lines: Iterable[tuple[int, str]]) -> Trace:
    """``load_trace`` of the ``(lineno, line)`` pairs in ``numbered_lines``."""
    device_id = ""
    sample_rate = 0.0
    linenos: list[int] = []
    samples: list[tuple] = []  # (t, acc, orient) as decoded
    truth: list[TruthRange] = []
    trailer_seen = False
    maybe_bool = False  # "u" is in "true" and "s" in "false", and in no key or number of a sample
    problem = ""  # the message for the line that stopped the reading
    try:
        for lineno, raw in numbered_lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj, end = _decode(raw)
            except json.JSONDecodeError:
                end = None
            except (RecursionError, ValueError) as exc:  # deep nesting, huge integers
                problem = f"{name}:{lineno}: not valid JSON ({exc})"
                break
            if end != len(raw):  # json.loads words the error
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    problem = f"{name}:{lineno}: not valid JSON ({exc.msg})"
                    break
            try:
                if "meta" in obj:
                    if lineno != 1:
                        problem = f"{name}:{lineno}: meta must be the first line"
                        break
                    meta = obj["meta"]
                    device_id = str(meta.get("device_id", ""))
                    sample_rate = meta.get("sample_rate", 0.0)
                    if type(sample_rate) not in (int, float):  # a bool, a string or a null
                        raise TypeError("sample_rate must be a JSON number")
                    sample_rate = float(sample_rate)
                elif "truth" in obj:
                    if trailer_seen:
                        problem = f"{name}:{lineno}: duplicate truth trailer"
                        break
                    trailer_seen = True
                    for entry in obj["truth"]:
                        lo, hi = float(entry["start"]), float(entry["end"])
                        truth.append(TruthRange(lo, hi, str(entry["label"])))
                elif trailer_seen:
                    problem = f"{name}:{lineno}: samples after truth trailer"
                    break
                else:
                    samples.append(_SAMPLE_KEYS(obj))
                    linenos.append(lineno)
                    maybe_bool = maybe_bool or "u" in raw or "s" in raw
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
                # a line that decodes but is not a meta, truth or sample object
                problem = f"{name}:{lineno}: {_line_problem(obj)}"
                break
    except TraceFormatError as exc:  # a line that is not UTF-8
        problem = str(exc)

    if samples:
        t, acc, orient = _sample_arrays(name, linenos, samples, maybe_bool)
    if problem:
        raise TraceFormatError(problem)
    if not samples:
        raise TraceFormatError(f"{name}: no samples")
    trace = Trace(device_id, sample_rate, t, acc, normalize_orientation(orient), tuple(truth))
    try:
        trace.validate()
    except TraceFormatError as exc:
        where = name if exc.offset is None else f"{name}:{linenos[exc.offset]}"
        raise TraceFormatError(f"{where}: {exc.problem}") from None
    return trace


def load_trace(path: str | Path) -> Trace:
    """Parse a JSON-lines trace file; errors carry 1-based line numbers.

    Each nonblank line is decoded on its own, and reading stops at the first
    line that cannot be read: bad JSON, a misplaced or malformed meta, truth
    or sample line, or bytes that are not UTF-8. The samples read up to
    there are then converted by one bulk conversion per field, so a bad
    sample on an earlier line is reported before the line that stopped the
    reading. Every malformed file raises ``TraceFormatError``.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            return _read_trace(path.name, enumerate(fh, start=1))
    except UnicodeDecodeError:
        pass  # raised for a whole chunk of text, so read again line by line to name the line
    return _read_trace(path.name, _decoded_lines(path))


# --- network I/O ------------------------------------------------------------


def network_from_dict(doc: dict, source: str = "network") -> MetroNetwork:
    """The line ``doc`` describes; each ``NetworkFormatError`` starts with ``source``."""
    try:
        name = str(doc["name"])
        sample_rate = float(doc["sample_rate"])
        dwell = (float(doc["dwell"][0]), float(doc["dwell"][1]))
        raw = doc["intervals"]
    except (KeyError, TypeError, IndexError, ValueError):
        raise NetworkFormatError(f"{source}: needs name, sample_rate, dwell[2], intervals")
    forward = []
    try:
        for entry in raw:
            try:
                fields = (
                    int(entry["id"]),
                    str(entry["from"]),
                    str(entry["to"]),
                    float(entry["min_duration"]),
                    float(entry["max_duration"]),
                )
            except (KeyError, TypeError, ValueError):
                raise NetworkFormatError(f"bad interval entry {entry!r}") from None
            forward.append(StationInterval(*fields))
        forward.sort(key=lambda iv: iv.id)
        return MetroNetwork(name, sample_rate, tuple(forward), *dwell)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{source}: {exc}") from None


def network_to_dict(network: MetroNetwork) -> dict:
    return {
        "name": network.name,
        "sample_rate": network.sample_rate,
        "dwell": [network.dwell_min, network.dwell_max],
        "intervals": [
            {
                "id": iv.id,
                "from": iv.from_station,
                "to": iv.to_station,
                "min_duration": iv.min_duration,
                "max_duration": iv.max_duration,
            }
            for iv in network.intervals
        ],
    }


def load_network(path: str | Path) -> MetroNetwork:
    """Read one line's forward intervals."""
    name = Path(path).name
    return load_json(path, lambda doc: network_from_dict(doc, source=name), NetworkFormatError)


def save_network(network: MetroNetwork, path: str | Path) -> None:
    Path(path).write_text(dump_json(network_to_dict(network)))


# --- JSON documents ------------------------------------------------------------

T = TypeVar("T")


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, no NaN, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_json(
    path: str | Path, parse: Callable[[object], T], error: type[ValueError] = ValueError
) -> T:
    """``parse`` of the JSON document in ``path``; a malformed one raises ``error`` naming the file.

    That covers text that is not JSON or not UTF-8, nesting too deep to
    decode, and a document of the wrong shape, on which ``parse`` raises
    ``AttributeError``, ``IndexError``, ``KeyError`` or ``TypeError``. A
    ``ValueError`` that ``parse`` raises passes through unchanged.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path.name}: not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{path.name}: nested too deeply") from None
    except ValueError as exc:  # bytes that are not UTF-8, integers too long to convert
        raise error(f"{path.name}: not valid JSON ({exc})") from None
    try:
        return parse(doc)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise error(f"{path.name}: malformed ({exc!r})") from None
