"""Synthetic metro line, trip, and non-metro sensor trace generation.

A line is one track profile per forward interval, built from
piecewise-constant-acceleration primitives (accelerate | cruise | curve |
brake); a reverse ride runs the profile's ``reversed()``.  Trips integrate
those primitives in the world frame, rotate the result into a drifting phone
frame, and layer seeded noise sources on top.  Every generator is a pure
function of (config, seed): separate child streams per noise source keep the
underlying motion identical when a single source is toggled.

A recorded trace is perturbed by an ``apply_<name>(trace, amount, seed)``
function: ``apply_hand_shake`` adds the render's own burst model and
``apply_defense_noise`` its white-noise model, so a scenario is a function
of a trace rather than a config field. Each returns a new trace, leaves its
input alone and returns equal arrays at amount 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import coord
from .model import (
    GRAVITY,
    FORWARD,
    MetroNetwork,
    StationInterval,
    Trace,
    TruthRange,
    dump_json,
    is_finite_real,
    load_json,
    normalize_orientation,
)

MODES = ("static", "walk", "bus", "taxi")

# Orientation random walk stays inside this box so that the device axes
# remain mutually consistent (sin^2 alpha + sin^2 beta < 1 with margin).
ALPHA_BOX = 50.0
BETA_BOX = 35.0

VIBRATION_REF_SPEED = 10.0  # m/s at which track vibration reaches full amplitude

DWELL_RANGE = (25.0, 35.0)  # seconds a train stands at a station
HAND_SHAKE_FREQ = 5.0  # Hz of a hand-shake burst, above the smoothing cutoff
DISTINCTIVE_FRAC = 0.2  # share of intervals drawn with strong, distinctive curves


@dataclass(frozen=True)
class MotionPrimitive:
    """One constant-acceleration stretch of track, durations on the sample grid."""

    kind: str  # accelerate | cruise | curve | brake
    duration: float  # seconds
    forward_accel: float = 0.0  # signed, m/s^2
    lateral_accel: float = 0.0  # signed, m/s^2, curves only


@dataclass(frozen=True)
class TrackProfile:
    """Fixed kinematic fingerprint of one station interval, ridden forward."""

    interval_id: int
    primitives: tuple[MotionPrimitive, ...]
    start_heading: float  # radians, world frame
    distinctive: bool = False

    @property
    def nominal_duration(self) -> float:
        return _duration(self.primitives)

    def reversed(self) -> "TrackProfile":
        """The same interval ridden the other way, from where the forward ride ends."""
        return replace(
            self,
            primitives=_reverse_primitives(self.primitives),
            start_heading=self.start_heading + _heading_turn(self.primitives) + math.pi,
        )


@dataclass(frozen=True)
class NoiseConfig:
    """Amplitudes of every sensing artifact layered onto the clean motion."""

    hand_shake_amp: float = 2.0  # m/s^2 burst amplitude
    orientation_drift_rate: float = 0.3  # deg/s random-walk scale
    sensor_sigma: float = 0.03  # m/s^2 white noise per axis
    track_vibration_amp: float = 0.18  # m/s^2 per axis at the reference speed

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (is_finite_real(value) and value >= 0):
                raise ValueError(f"noise field {f.name} must be finite and non-negative, got {value!r}")


# --- network generation -----------------------------------------------------


def _duration(prims: tuple[MotionPrimitive, ...]) -> float:
    return sum(p.duration for p in prims)


def _curve_offsets(prims: tuple[MotionPrimitive, ...]) -> tuple[float, ...]:
    """Curve center times from the interval start, in seconds."""
    out, at = [], 0.0
    for p in prims:
        if p.kind == "curve":
            out.append(at + 0.5 * p.duration)
        at += p.duration
    return tuple(out)


def _round_grid(x: float, rate: float) -> float:
    return max(round(x * rate), 1) / rate


def _draw_profile(rng: np.random.Generator, rate: float, distinctive: bool):
    """Primitive list for one forward interval; the train stops at both ends."""
    t_acc = _round_grid(rng.uniform(8.0, 15.0), rate)
    a_acc = rng.uniform(0.6, 1.0)
    v_max = a_acc * t_acc

    t_brake = _round_grid(v_max / rng.uniform(0.7, 1.2), rate)
    a_brake = -v_max / t_brake  # exact stop

    middle = _round_grid(rng.uniform(72.0, 110.0), rate)
    n_curves = int(rng.integers(2, 4)) if distinctive else int(rng.integers(1, 4))
    curve_durs = [_round_grid(rng.uniform(6.0, 12.0), rate) for _ in range(n_curves)]
    cruise_total = middle - sum(curve_durs)
    if cruise_total < 2.0 * (n_curves + 1):
        return None  # curves ate the cruise budget, redraw
    cuts = np.sort(rng.uniform(0.0, 1.0, size=n_curves))
    gaps = np.diff(np.concatenate([[0.0], cuts, [1.0]])) * (
        cruise_total - 2.0 * (n_curves + 1)
    )
    cruise_durs = [_round_grid(2.0 + g, rate) for g in gaps]

    prims = [MotionPrimitive("accelerate", t_acc, forward_accel=a_acc)]
    for i, c_dur in enumerate(curve_durs):
        prims.append(MotionPrimitive("cruise", cruise_durs[i]))
        lat = rng.uniform(0.9, 1.15) if distinctive else rng.uniform(0.3, 0.7)
        lat *= rng.choice([-1.0, 1.0])
        prims.append(MotionPrimitive("curve", c_dur, lateral_accel=lat))
    prims.append(MotionPrimitive("cruise", cruise_durs[-1]))
    prims.append(MotionPrimitive("brake", t_brake, forward_accel=a_brake))
    return tuple(prims)


def _too_similar(a: tuple[MotionPrimitive, ...], b: tuple[MotionPrimitive, ...]) -> bool:
    """Profiles must differ in duration, curve layout, or peak lateral accel."""
    if abs(_duration(a) - _duration(b)) >= 3.0:
        return False
    curves_a = [p for p in a if p.kind == "curve"]
    curves_b = [p for p in b if p.kind == "curve"]
    if len(curves_a) != len(curves_b):
        return False
    peak_a = max(abs(p.lateral_accel) for p in curves_a)
    peak_b = max(abs(p.lateral_accel) for p in curves_b)
    if abs(peak_a - peak_b) >= 0.2:
        return False
    if any(abs(x - y) >= 5.0 for x, y in zip(_curve_offsets(a), _curve_offsets(b))):
        return False
    return True


def _cruise_speed(prims: tuple[MotionPrimitive, ...]) -> float:
    return prims[0].forward_accel * prims[0].duration


def _heading_turn(prims: tuple[MotionPrimitive, ...]) -> float:
    """Total signed heading change over one interval at nominal speed."""
    v = _cruise_speed(prims)
    return sum(p.lateral_accel / v * p.duration for p in prims if p.kind == "curve")


def _reverse_primitives(prims: tuple[MotionPrimitive, ...]) -> tuple[MotionPrimitive, ...]:
    swap = {"accelerate": "brake", "brake": "accelerate"}
    out = []
    for p in reversed(prims):
        out.append(
            MotionPrimitive(
                kind=swap.get(p.kind, p.kind),
                duration=p.duration,
                forward_accel=-p.forward_accel,
                lateral_accel=-p.lateral_accel,
            )
        )
    return tuple(out)


def gen_network(
    num_intervals: int,
    seed: int,
    sample_rate: float = 10.0,
) -> tuple[MetroNetwork, list[TrackProfile]]:
    """Build one line and its pairwise-distinct profiles, one per forward interval."""
    if num_intervals < 1:
        raise ValueError("num_intervals must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([_seed(seed), 0x5E77]))
    n_dist = max(1, round(DISTINCTIVE_FRAC * num_intervals)) if num_intervals > 1 else 0
    dist_ids = set(rng.choice(num_intervals, size=n_dist, replace=False).tolist())

    prim_sets: list[tuple[MotionPrimitive, ...]] = []
    for j in range(num_intervals):
        for _ in range(400):
            cand = _draw_profile(rng, sample_rate, j in dist_ids)
            if cand is None:
                continue
            if not 88.0 <= _duration(cand) <= 150.0:
                continue
            if all(not _too_similar(cand, prev) for prev in prim_sets):
                prim_sets.append(cand)
                break
        else:
            raise RuntimeError("could not draw a distinct track profile")

    profiles, forward = [], []
    h = rng.uniform(0.0, 2.0 * math.pi)
    for j, prims in enumerate(prim_sets):
        profiles.append(TrackProfile(j, prims, h, j in dist_ids))
        h += _heading_turn(prims)
        nominal = _duration(prims)
        forward.append(
            StationInterval(
                id=j,
                from_station=f"S{j:02d}",
                to_station=f"S{j + 1:02d}",
                min_duration=round(0.92 * nominal, 1),
                max_duration=round(1.08 * nominal, 1),
            )
        )
    network = MetroNetwork(f"simline-{seed}", sample_rate, tuple(forward), *DWELL_RANGE)
    return network, profiles


def distinctive_intervals(profiles: list[TrackProfile]) -> list[int]:
    """Ids of the intervals flagged distinctive at generation time."""
    return sorted(p.interval_id for p in profiles if p.distinctive)


# --- kinematic integration ---------------------------------------------------


def _leg_motion(profile: TrackProfile, scale: float, rate: float):
    """World-frame acceleration and speed for one interval traversal."""
    dt = 1.0 / rate
    acc_chunks, v_chunks = [], []
    v = 0.0
    h = profile.start_heading
    for p in profile.primitives:
        n = max(1, round(p.duration * scale * rate))
        fwd = p.forward_accel
        if p.kind == "brake":
            fwd = -v / (n * dt)  # land exactly at standstill despite rounding
        if p.kind == "curve" and v > 0:
            omega = p.lateral_accel / v
        else:
            omega = 0.0
        i = np.arange(n)
        hh = h + omega * i * dt
        ax = fwd * np.cos(hh) - p.lateral_accel * np.sin(hh)
        ay = fwd * np.sin(hh) + p.lateral_accel * np.cos(hh)
        acc_chunks.append(np.stack([ax, ay, np.zeros(n)], axis=1))
        v_chunks.append(v + fwd * i * dt)
        v += fwd * n * dt
        h += omega * n * dt
    return np.concatenate(acc_chunks), np.concatenate(v_chunks)


# --- phone-frame rendering ----------------------------------------------------


def _reflect(x: np.ndarray, bound: float) -> np.ndarray:
    span = 2.0 * bound
    y = (x + bound) % (2.0 * span)
    y = np.minimum(y, 2.0 * span - y)
    return y - bound


def _orientation_walk(n: int, dt: float, noise: NoiseConfig, rng: np.random.Generator):
    base = np.array(
        [rng.uniform(-40.0, 40.0), rng.uniform(-30.0, 30.0), rng.uniform(0.0, 360.0)]
    )
    steps = rng.standard_normal((n, 3)) * (noise.orientation_drift_rate * dt)
    angles = base + np.cumsum(steps, axis=0)
    angles[:, 0] = _reflect(angles[:, 0], ALPHA_BOX)
    angles[:, 1] = _reflect(angles[:, 1], BETA_BOX)
    return normalize_orientation(angles)


def _smooth3(x: np.ndarray) -> np.ndarray:
    kernel = np.ones(3) / 3.0
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        out[:, c] = np.convolve(x[:, c], kernel, mode="same")
    return out


def _add_hand_shake(acc: np.ndarray, t: np.ndarray, amp: float, rng) -> None:
    """Add sparse ``HAND_SHAKE_FREQ`` bursts of up to ``amp`` m/s^2 per axis to ``acc`` in place."""
    if amp == 0 or len(t) == 0:
        return
    dt = t[1] - t[0] if len(t) > 1 else 0.1
    end = t[-1] + dt
    cursor = rng.exponential(20.0)
    while cursor < end:
        dur = rng.uniform(0.4, 0.8)
        amps = amp * rng.uniform(0.6, 1.0, size=3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        lo = int(np.searchsorted(t, cursor))
        hi = int(np.searchsorted(t, cursor + dur))
        if hi > lo:
            tt = t[lo:hi] - cursor
            for a in range(3):
                acc[lo:hi, a] += amps[a] * np.sin(
                    2.0 * math.pi * HAND_SHAKE_FREQ * tt + phases[a]
                )
        cursor += dur + rng.exponential(20.0)


def _add_white_noise(acc: np.ndarray, t: np.ndarray, sigma: float, rng) -> None:
    """Add zero-mean Gaussian noise of ``sigma`` m/s^2 per axis to ``acc`` in place."""
    acc += rng.standard_normal(acc.shape) * sigma


def _phone_frame(orient: np.ndarray, f_world: np.ndarray) -> np.ndarray:
    """Phone-frame readings of (n, 3) earth-frame specific force under orientations in degrees.

    Each sample is rotated by the transpose of its ``coord`` rotation, and
    each phone axis sums its three products left to right.
    """
    R, _ = coord.rotation_matrices(np.radians(orient))
    fe, fn, fu = f_world.T
    acc = np.empty((len(f_world), 3))
    for i in range(3):
        acc[:, i] = R[0, i] * fe + R[1, i] * fn + R[2, i] * fu
    return acc


def _render_phone(
    world: np.ndarray,
    speed: np.ndarray | None,
    rate: float,
    noise: NoiseConfig,
    streams: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotate world motion into a noisy phone frame; returns (t, acc, orient).

    ``streams`` holds the orientation, shake, white and vibration generators,
    in that order.
    """
    orient_rng, shake_rng, white_rng, vib_rng = streams
    n = len(world)
    dt = 1.0 / rate
    t = np.arange(n) * dt

    if speed is not None:
        vib = _smooth3(vib_rng.standard_normal((n, 3))) * math.sqrt(3.0)
        amp = noise.track_vibration_amp * (speed / VIBRATION_REF_SPEED)
        world = world + vib * np.stack([amp, amp, 1.5 * amp], axis=1)

    orient = _orientation_walk(n, dt, noise, orient_rng)
    acc = _phone_frame(orient, world + np.array([0.0, 0.0, GRAVITY]))

    _add_hand_shake(acc, t, noise.hand_shake_amp, shake_rng)
    _add_white_noise(acc, t, noise.sensor_sigma, white_rng)
    return t, acc, orient


def _seed(seed: int) -> int:
    """``seed`` as a Python int; a bool, float, string or other non-integer is refused, not truncated."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(_seed(seed)).spawn(n)]


def child_seed(root: int, *path: int) -> int:
    """Stable derived seed for one artifact, such as a corpus trip or a day's piece."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


# --- trip and mode generators --------------------------------------------------


def gen_trip(
    network: MetroNetwork,
    profiles: list[TrackProfile],
    start_interval: int,
    length: int,
    noise: NoiseConfig,
    seed: int,
    duration_jitter: float = 0.03,
) -> Trace:
    """One metro ride over `length` consecutive directed intervals.

    `start_interval` is a directed id; the run must stay inside one direction.
    `profiles` holds one profile per forward interval, in id order; a reverse
    leg rides its profile's ``reversed()``. Ground truth carries the whole-ride
    metro range, per-interval ranges, and interior dwells.
    """
    gids = list(range(start_interval, start_interval + length))
    if not network.fits(start_interval, length):
        raise ValueError(f"interval run {gids} does not fit one direction of the line")

    dwell_rng, scale_rng, *render = _streams(seed, 6)
    rate = network.sample_rate
    dt = 1.0 / rate

    chunks, speeds, legs = [], [], []  # legs: (kind, uid-or-None, n_samples)
    for i, gid in enumerate(gids):
        if i > 0:
            n_dwell = round(_round_grid(dwell_rng.uniform(network.dwell_min, network.dwell_max), rate) * rate)
            chunks.append(np.zeros((n_dwell, 3)))
            speeds.append(np.zeros(n_dwell))
            legs.append(("dwell", None, n_dwell))
        scale = 1.0 + scale_rng.uniform(-duration_jitter, duration_jitter)
        uid = network.undirected(gid)
        profile = profiles[uid] if network.directed(uid, FORWARD) == gid else profiles[uid].reversed()
        acc_w, v = _leg_motion(profile, scale, rate)
        chunks.append(acc_w)
        speeds.append(v)
        legs.append(("interval", uid, len(acc_w)))

    world = np.concatenate(chunks)
    speed = np.concatenate(speeds)
    t, acc, orient = _render_phone(world, speed, rate, noise, render)

    truth = [TruthRange(0.0, len(world) * dt, "metro")]
    at = 0
    for kind, uid, n in legs:
        start_t, end_t = at * dt, (at + n) * dt
        if kind == "dwell":
            truth.append(TruthRange(start_t, end_t, "dwell"))
        else:
            truth.append(TruthRange(start_t, end_t, f"interval:{uid}"))
        at += n

    return Trace(
        device_id=f"sim-trip-{seed}",
        sample_rate=rate,
        t=t,
        acc=acc,
        orient=orient,
        truth=tuple(truth),
    )


def _mode_world(mode: str, n: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) * dt
    world = np.zeros((n, 3))
    if mode == "static":
        return world
    if mode == "walk":
        theta = rng.uniform(0.0, 2.0 * math.pi)
        d1 = np.array([math.cos(theta), math.sin(theta)])
        d2 = np.array([-math.sin(theta), math.cos(theta)])
        a_step = rng.uniform(2.4, 2.8)
        a_sway = rng.uniform(0.4, 0.6)
        a_vert = rng.uniform(2.2, 2.8)
        p1, p2, p3 = rng.uniform(0.0, 2.0 * math.pi, size=3)
        step = a_step * np.sin(2.0 * math.pi * 2.0 * t + p1)
        sway = a_sway * np.sin(2.0 * math.pi * 1.0 * t + p2)
        world[:, 0] = step * d1[0] + sway * d2[0]
        world[:, 1] = step * d1[1] + sway * d2[1]
        world[:, 2] = a_vert * np.sin(2.0 * math.pi * 2.0 * t + p3)
        return world
    if mode in ("bus", "taxi"):
        # road vibration never pauses: city driving idles briefly at most,
        # and stop-go events arrive every half minute or so
        sig_h, sig_v, event_gap = (1.02, 0.50, 25.0) if mode == "bus" else (0.92, 0.40, 18.0)
        colored = _smooth3(rng.standard_normal((n, 3))) * math.sqrt(3.0)
        world[:, 0] = colored[:, 0] * sig_h
        world[:, 1] = colored[:, 1] * sig_h
        world[:, 2] = colored[:, 2] * sig_v
        theta = rng.uniform(0.0, 2.0 * math.pi)  # road direction
        cursor = rng.exponential(event_gap)
        end = n * dt
        while cursor < end:
            dur = rng.uniform(3.0, 8.0)
            amp = rng.uniform(1.2, 2.2) * rng.choice([-1.0, 1.0])
            lo, hi = int(cursor / dt), min(int((cursor + dur) / dt), n)
            world[lo:hi, 0] += amp * math.cos(theta)
            world[lo:hi, 1] += amp * math.sin(theta)
            cursor += dur + rng.exponential(event_gap)
        return world
    raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")


def gen_other_mode(
    mode: str,
    duration: float,
    noise: NoiseConfig,
    seed: int,
    sample_rate: float = 10.0,
) -> Trace:
    """A non-metro recording: static, walk, bus, or taxi."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if mode == "static":
        # a resting phone is not hand-held
        noise = replace(noise, hand_shake_amp=0.0)
    motion_rng, *render = _streams(seed, 5)
    dt = 1.0 / sample_rate
    n = max(1, round(duration * sample_rate))
    world = _mode_world(mode, n, dt, motion_rng)
    t, acc, orient = _render_phone(world, None, sample_rate, noise, render)
    truth = (TruthRange(0.0, n * dt, mode),)
    return Trace(
        device_id=f"sim-{mode}-{seed}",
        sample_rate=sample_rate,
        t=t,
        acc=acc,
        orient=orient,
        truth=truth,
    )


def gen_mixed_day(
    schedule: list[tuple],
    noise: NoiseConfig,
    seed: int,
    network: MetroNetwork | None = None,
    profiles: list[TrackProfile] | None = None,
    sample_rate: float = 10.0,
) -> Trace:
    """Concatenate modes and trips into one continuous recording.

    Schedule entries are ("walk", seconds), ("static", seconds), ... or
    ("trip", {"start_interval": gid, "length": n}). Every piece is sampled
    at ``sample_rate``, so a network sampled at another rate is refused.
    """
    if not schedule:
        raise ValueError("schedule is empty")
    if network is not None and network.sample_rate != sample_rate:
        raise ValueError(
            f"network sampled at {network.sample_rate:g} Hz, day at {sample_rate:g} Hz"
        )
    pieces = []
    for idx, entry in enumerate(schedule):
        child = child_seed(_seed(seed), idx)
        kind = entry[0]
        if kind == "trip":
            if network is None or profiles is None:
                raise ValueError("trip entries need a network and profiles")
            spec = entry[1]
            pieces.append(
                gen_trip(network, profiles, spec["start_interval"], spec["length"], noise, child)
            )
        else:
            pieces.append(gen_other_mode(kind, float(entry[1]), noise, child, sample_rate))

    dt = 1.0 / pieces[0].sample_rate
    ts, accs, orients, truth = [], [], [], []
    offset = 0.0
    for piece in pieces:
        ts.append(piece.t + offset)
        accs.append(piece.acc)
        orients.append(piece.orient)
        for r in piece.truth:
            truth.append(TruthRange(r.start + offset, r.end + offset, r.label))
        offset += piece.n_samples * dt

    return Trace(
        device_id=f"sim-day-{seed}",
        sample_rate=pieces[0].sample_rate,
        t=np.concatenate(ts),
        acc=np.concatenate(accs),
        orient=np.concatenate(orients),
        truth=tuple(truth),
    )


# --- perturbations of a recorded trace ---------------------------------------------


def _perturbed(trace: Trace, amount: float, seed: int, tag: int, add) -> Trace:
    """``trace`` with ``add(acc, t, amount, rng)`` applied to a copy of its ``acc``.

    ``rng`` draws from ``SeedSequence([seed, tag])``, one tag per
    perturbation; at amount 0 the copy is returned as it is.
    """
    if not (is_finite_real(amount) and amount >= 0):
        raise ValueError(f"perturbation amount must be finite and non-negative, got {amount!r}")
    acc = np.array(trace.acc, dtype=float)
    if amount > 0:
        add(acc, trace.t, amount, np.random.default_rng(np.random.SeedSequence([_seed(seed), tag])))
    return replace(trace, acc=acc)


def apply_defense_noise(trace: Trace, amp: float, seed: int) -> Trace:
    """Blend zero-mean white noise of ``amp`` m/s^2 into the accelerometer channels."""
    return _perturbed(trace, amp, seed, 0xDEF, _add_white_noise)


def apply_hand_shake(trace: Trace, amp: float, seed: int) -> Trace:
    """Add the render's hand-shake bursts, of up to ``amp`` m/s^2, to the accelerometer channels."""
    return _perturbed(trace, amp, seed, 0x5AE, _add_hand_shake)


# --- profile persistence --------------------------------------------------------


def save_profiles(profiles: list[TrackProfile], path: str | Path) -> None:
    Path(path).write_text(dump_json({"profiles": [asdict(p) for p in profiles]}))


def load_profiles(path: str | Path) -> list[TrackProfile]:
    return load_json(path, _profiles_from_dict)


def _profiles_from_dict(doc: dict) -> list[TrackProfile]:
    out = []
    for entry in doc["profiles"]:
        prims = tuple(
            MotionPrimitive(
                kind=q["kind"],
                duration=float(q["duration"]),
                forward_accel=float(q["forward_accel"]),
                lateral_accel=float(q["lateral_accel"]),
            )
            for q in entry["primitives"]
        )
        out.append(
            TrackProfile(
                interval_id=int(entry["interval_id"]),
                primitives=prims,
                start_heading=float(entry["start_heading"]),
                distinctive=bool(entry["distinctive"]),
            )
        )
    return sorted(out, key=lambda p: p.interval_id)
