"""Synthetic metro line, trip, and non-metro sensor trace generation.

A line is a list of track profiles built from piecewise-constant-acceleration
primitives (accelerate | cruise | curve | brake).  Trips integrate those
primitives in the world frame, rotate the result into a drifting phone frame,
and layer seeded noise sources on top.  Every generator is a pure function of
(config, seed): separate child streams per noise source keep the underlying
motion identical when a single source is toggled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import coord
from .model import (
    GRAVITY,
    MetroNetwork,
    StationInterval,
    Trace,
    TruthRange,
    build_network,
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
    """Fixed kinematic fingerprint of one directed station interval."""

    interval_id: int
    primitives: tuple[MotionPrimitive, ...]
    start_heading: float  # radians, world frame
    distinctive: bool = False

    @property
    def nominal_duration(self) -> float:
        return sum(p.duration for p in self.primitives)

    def curve_offsets(self) -> tuple[float, ...]:
        """Curve center times from the interval start, in seconds."""
        out, at = [], 0.0
        for p in self.primitives:
            if p.kind == "curve":
                out.append(at + 0.5 * p.duration)
            at += p.duration
        return tuple(out)


@dataclass(frozen=True)
class NoiseConfig:
    """Amplitudes of every sensing artifact layered onto the clean motion."""

    hand_shake_amp: float = 2.0  # m/s^2 burst amplitude
    hand_shake_freq: float = 5.0  # Hz, above the smoothing cutoff
    orientation_drift_rate: float = 0.3  # deg/s random-walk scale
    sensor_sigma: float = 0.03  # m/s^2 white noise per axis
    defense_noise_amp: float = 0.0  # m/s^2, deliberate masking noise
    track_vibration_amp: float = 0.18  # m/s^2 per axis at the reference speed

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (is_finite_real(value) and value >= 0):
                raise ValueError(f"noise field {f.name} must be finite and non-negative, got {value!r}")


# --- network generation -----------------------------------------------------


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
    dur_a = sum(p.duration for p in a)
    dur_b = sum(p.duration for p in b)
    if abs(dur_a - dur_b) >= 3.0:
        return False
    curves_a = [p for p in a if p.kind == "curve"]
    curves_b = [p for p in b if p.kind == "curve"]
    if len(curves_a) != len(curves_b):
        return False
    peak_a = max(abs(p.lateral_accel) for p in curves_a)
    peak_b = max(abs(p.lateral_accel) for p in curves_b)
    if abs(peak_a - peak_b) >= 0.2:
        return False
    off_a = TrackProfile(0, a, 0.0).curve_offsets()
    off_b = TrackProfile(0, b, 0.0).curve_offsets()
    if any(abs(x - y) >= 5.0 for x, y in zip(off_a, off_b)):
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
    """Build one line: pairwise-distinct forward profiles plus derived reverses."""
    if num_intervals < 1:
        raise ValueError("num_intervals must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E77]))
    n_dist = max(1, round(DISTINCTIVE_FRAC * num_intervals)) if num_intervals > 1 else 0
    dist_ids = set(rng.choice(num_intervals, size=n_dist, replace=False).tolist())

    prim_sets: list[tuple[MotionPrimitive, ...]] = []
    for j in range(num_intervals):
        for _ in range(400):
            cand = _draw_profile(rng, sample_rate, j in dist_ids)
            if cand is None:
                continue
            nominal = sum(p.duration for p in cand)
            if nominal < 88.0 or nominal > 150.0:
                continue
            if all(not _too_similar(cand, prev) for prev in prim_sets):
                prim_sets.append(cand)
                break
        else:
            raise RuntimeError("could not draw a distinct track profile")

    headings = []
    h = rng.uniform(0.0, 2.0 * math.pi)
    for prims in prim_sets:
        headings.append(h)
        h += _heading_turn(prims)
    end_headings = [headings[j] + _heading_turn(prim_sets[j]) for j in range(num_intervals)]

    profiles = [
        TrackProfile(j, prim_sets[j], headings[j], j in dist_ids)
        for j in range(num_intervals)
    ]
    k = num_intervals
    for i in range(k):
        f = k - 1 - i
        profiles.append(
            TrackProfile(
                k + i,
                _reverse_primitives(prim_sets[f]),
                end_headings[f] + math.pi,
                f in dist_ids,
            )
        )

    forward = []
    for j, prims in enumerate(prim_sets):
        nominal = sum(p.duration for p in prims)
        forward.append(
            StationInterval(
                id=j,
                from_station=f"S{j:02d}",
                to_station=f"S{j + 1:02d}",
                min_duration=round(0.92 * nominal, 1),
                max_duration=round(1.08 * nominal, 1),
            )
        )
    network = build_network(
        name=f"simline-{seed}",
        sample_rate=sample_rate,
        dwell=DWELL_RANGE,
        forward=forward,
    )
    return network, profiles


def distinctive_intervals(profiles: list[TrackProfile]) -> list[int]:
    """Undirected ids of the intervals flagged distinctive at generation time."""
    k = max(p.interval_id for p in profiles) // 2 + 1 if profiles else 0
    ids = {p.interval_id for p in profiles if p.distinctive and p.interval_id < k}
    return sorted(ids)


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


def _add_hand_shake(acc: np.ndarray, t: np.ndarray, noise: NoiseConfig, rng) -> None:
    if noise.hand_shake_amp == 0 or len(t) == 0:
        return
    dt = t[1] - t[0] if len(t) > 1 else 0.1
    end = t[-1] + dt
    cursor = rng.exponential(20.0)
    while cursor < end:
        dur = rng.uniform(0.4, 0.8)
        amps = noise.hand_shake_amp * rng.uniform(0.6, 1.0, size=3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        lo = int(np.searchsorted(t, cursor))
        hi = int(np.searchsorted(t, cursor + dur))
        if hi > lo:
            tt = t[lo:hi] - cursor
            for a in range(3):
                acc[lo:hi, a] += amps[a] * np.sin(
                    2.0 * math.pi * noise.hand_shake_freq * tt + phases[a]
                )
        cursor += dur + rng.exponential(20.0)


def _render_phone(
    world: np.ndarray,
    speed: np.ndarray | None,
    rate: float,
    noise: NoiseConfig,
    streams: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotate world motion into a noisy phone frame; returns (t, acc, orient).

    ``streams`` holds the orientation, shake, white, vibration and defense
    generators, in that order.
    """
    orient_rng, shake_rng, white_rng, vib_rng, defense_rng = streams
    n = len(world)
    dt = 1.0 / rate
    t = np.arange(n) * dt

    if speed is not None:
        vib = _smooth3(vib_rng.standard_normal((n, 3))) * math.sqrt(3.0)
        amp = noise.track_vibration_amp * (speed / VIBRATION_REF_SPEED)
        world = world + vib * np.stack([amp, amp, 1.5 * amp], axis=1)

    orient = _orientation_walk(n, dt, noise, orient_rng)
    R, _ = coord.rotation_matrices(np.radians(orient))
    f_world = world + np.array([0.0, 0.0, GRAVITY])
    acc = np.einsum("nji,nj->ni", R, f_world)

    _add_hand_shake(acc, t, noise, shake_rng)
    acc = acc + white_rng.standard_normal((n, 3)) * noise.sensor_sigma
    if noise.defense_noise_amp > 0:
        acc = acc + defense_rng.standard_normal((n, 3)) * noise.defense_noise_amp
    return t, acc, orient


def _streams(seed: int, n: int = 6) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(int(seed)).spawn(n)]


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
    Ground truth carries the whole-ride metro range, per-interval ranges, and
    interior dwells.
    """
    k = network.num_intervals
    gids = list(range(start_interval, start_interval + length))
    if not gids or gids[-1] >= 2 * k or (gids[0] // k) != (gids[-1] // k):
        raise ValueError(f"interval run {gids} does not fit one direction of the line")
    by_id = {p.interval_id: p for p in profiles}

    dwell_rng, scale_rng, *render = _streams(seed, 7)
    rate = network.sample_rate
    dt = 1.0 / rate

    chunks, speeds, legs = [], [], []  # legs: (kind, gid-or-None, n_samples)
    for i, gid in enumerate(gids):
        if i > 0:
            n_dwell = round(_round_grid(dwell_rng.uniform(network.dwell_min, network.dwell_max), rate) * rate)
            chunks.append(np.zeros((n_dwell, 3)))
            speeds.append(np.zeros(n_dwell))
            legs.append(("dwell", None, n_dwell))
        scale = 1.0 + scale_rng.uniform(-duration_jitter, duration_jitter)
        acc_w, v = _leg_motion(by_id[gid], scale, rate)
        chunks.append(acc_w)
        speeds.append(v)
        legs.append(("interval", gid, len(acc_w)))

    world = np.concatenate(chunks)
    speed = np.concatenate(speeds)
    t, acc, orient = _render_phone(world, speed, rate, noise, render)

    truth = [TruthRange(0.0, len(world) * dt, "metro")]
    at = 0
    for kind, gid, n in legs:
        start_t, end_t = at * dt, (at + n) * dt
        if kind == "dwell":
            truth.append(TruthRange(start_t, end_t, "dwell"))
        else:
            truth.append(TruthRange(start_t, end_t, f"interval:{network.undirected(gid)}"))
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
    motion_rng, *render = _streams(seed, 6)
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
        child = int(np.random.SeedSequence([int(seed), idx]).generate_state(1)[0])
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


def apply_defense_noise(trace: Trace, amp: float, seed: int) -> Trace:
    """Blend zero-mean white noise into the accelerometer channels."""
    if amp < 0:
        raise ValueError("amp must be non-negative")
    if amp == 0:
        return replace(trace, acc=trace.acc.copy())
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDEF]))
    return replace(trace, acc=trace.acc + rng.standard_normal(trace.acc.shape) * amp)


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
