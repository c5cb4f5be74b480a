"""Simulator invariants: determinism, kinematics, truth, noise layering."""

import math
from dataclasses import replace

import numpy as np
import pytest

from subtrace import coord, simgen
from subtrace.simgen import (
    MODES,
    MotionPrimitive,
    NoiseConfig,
    TrackProfile,
    apply_defense_noise,
    apply_hand_shake,
    distinctive_intervals,
    gen_mixed_day,
    gen_network,
    gen_other_mode,
    gen_trip,
    load_profiles,
    save_profiles,
)

# every perturbation of a recorded trace, found by name
PERTURBATIONS = sorted(name for name in dir(simgen) if name.startswith("apply_"))

# every sensing artifact off
QUIET = NoiseConfig(
    hand_shake_amp=0.0,
    orientation_drift_rate=0.0,
    sensor_sigma=0.0,
    track_vibration_amp=0.0,
)


@pytest.fixture(scope="module")
def line():
    return gen_network(6, seed=21)


def mean_hra(trace):
    return float(np.mean(coord.transform(trace).hra))


def frozen_reverse_profiles(network, forward: list) -> list:
    """The reverse profiles as ``gen_network`` once stored them, ids k..2k-1.

    Headings accumulate from the first interval's start in id order, and the
    reverse of interval f starts at f's end heading plus pi.
    """

    def heading_turn(prims):
        v = prims[0].forward_accel * prims[0].duration
        return sum(p.lateral_accel / v * p.duration for p in prims if p.kind == "curve")

    def reverse_primitives(prims):
        swap = {"accelerate": "brake", "brake": "accelerate"}
        return tuple(
            MotionPrimitive(
                kind=swap.get(p.kind, p.kind),
                duration=p.duration,
                forward_accel=-p.forward_accel,
                lateral_accel=-p.lateral_accel,
            )
            for p in reversed(prims)
        )

    k = network.num_intervals
    prim_sets = [p.primitives for p in forward]
    headings = []
    h = forward[0].start_heading
    for prims in prim_sets:
        headings.append(h)
        h += heading_turn(prims)
    end_headings = [headings[j] + heading_turn(prim_sets[j]) for j in range(k)]
    return [
        TrackProfile(
            network.directed(f, "reverse"),
            reverse_primitives(prim_sets[f]),
            end_headings[f] + math.pi,
            forward[f].distinctive,
        )
        for f in reversed(range(k))
    ]


class TestNetworkGeneration:
    def test_same_seed_identical(self, line):
        net2, prof2 = gen_network(6, seed=21)
        assert net2 == line[0]
        assert prof2 == line[1]

    def test_counts_and_bounds(self, line):
        net, profiles = line
        assert net.num_intervals == 6
        assert [p.interval_id for p in profiles] == list(range(6))
        for p in profiles:
            assert 88.0 <= p.nominal_duration <= 150.0
        for iv, p in zip(net.intervals, profiles):
            assert iv.min_duration <= p.nominal_duration <= iv.max_duration

    def test_stops_at_both_ends(self, line):
        # speed integral over one interval is zero: the train starts and
        # ends at rest
        _, profiles = line
        for p in profiles + [p.reversed() for p in profiles]:
            assert p.primitives[0].kind == "accelerate"
            assert p.primitives[-1].kind == "brake"
            v_end = sum(q.forward_accel * q.duration for q in p.primitives)
            assert abs(v_end) < 1e-6

    def test_reverse_mirrors_forward(self, line):
        _, profiles = line
        for fwd in profiles:
            rev = fwd.reversed()
            assert rev.interval_id == fwd.interval_id
            assert rev.nominal_duration == pytest.approx(fwd.nominal_duration, rel=1e-12)
            assert rev.distinctive == fwd.distinctive
            for qf, qr in zip(fwd.primitives, reversed(rev.primitives)):
                assert qr.duration == qf.duration
                assert qr.lateral_accel == -qf.lateral_accel

    def test_distinctive_ids(self, line):
        net, profiles = line
        ids = distinctive_intervals(profiles)
        assert ids == sorted(ids)
        assert len(ids) == max(1, round(0.2 * net.num_intervals))
        for u in ids:
            assert profiles[u].distinctive

    @pytest.mark.parametrize(
        "k, seed, rate", [(10, 7, 10.0), (6, 21, 10.0), (6, 11, 10.0), (3, 21, 20.0)]
    )
    def test_reversed_matches_frozen_reverse_profiles(self, tmp_path, k, seed, rate):
        # a reverse profile keeps its interval's id; every other field is the
        # stored reverse's, also after a profiles.json round trip
        net, profiles = gen_network(k, seed=seed, sample_rate=rate)
        path = tmp_path / "profiles.json"
        save_profiles(profiles, path)
        for forward in (profiles, load_profiles(path)):
            frozen = frozen_reverse_profiles(net, forward)
            derived = [p.reversed() for p in forward[::-1]]
            assert [replace(p, interval_id=r.interval_id) for p, r in zip(derived, frozen)] == frozen

    def test_single_interval_rejected(self):
        with pytest.raises(ValueError):
            gen_network(0, seed=1)


class TestTripGeneration:
    def test_deterministic(self, line):
        net, profiles = line
        a = gen_trip(net, profiles, 1, 3, NoiseConfig(), seed=5)
        b = gen_trip(net, profiles, 1, 3, NoiseConfig(), seed=5)
        np.testing.assert_array_equal(a.acc, b.acc)
        np.testing.assert_array_equal(a.orient, b.orient)
        assert a.truth == b.truth

    def test_truth_counting(self, line):
        net, profiles = line
        trace = gen_trip(net, profiles, 1, 4, NoiseConfig(), seed=5)
        metro = trace.truth_ranges("metro")
        assert len(metro) == 1
        assert metro[0].start == 0.0
        assert metro[0].end == pytest.approx(trace.n_samples / net.sample_rate)
        intervals = trace.truth_ranges("interval:")
        dwells = trace.truth_ranges("dwell")
        assert len(intervals) == 4
        assert len(dwells) == 3
        assert [r.label for r in intervals] == [f"interval:{u}" for u in (1, 2, 3, 4)]

    def test_reverse_trip_labels_undirected(self, line):
        net, profiles = line
        k = net.num_intervals
        start = net.directed(4, "reverse")  # rides 4, 3, 2
        trace = gen_trip(net, profiles, start, 3, NoiseConfig(), seed=5)
        labels = [r.label for r in trace.truth_ranges("interval:")]
        assert labels == ["interval:4", "interval:3", "interval:2"]

    def test_run_must_stay_in_one_direction(self, line):
        net, profiles = line
        k = net.num_intervals
        with pytest.raises(ValueError, match="does not fit"):
            gen_trip(net, profiles, k - 1, 2, NoiseConfig(), seed=5)
        with pytest.raises(ValueError, match="does not fit"):
            gen_trip(net, profiles, 2 * k - 1, 2, NoiseConfig(), seed=5)

    def test_zero_noise_hra_matches_primitives(self, line):
        # with every artifact off, earth-frame recovery is exact: HRA inside
        # each primitive equals its planar acceleration magnitude
        net, profiles = line
        trace = gen_trip(net, profiles, 2, 1, QUIET, seed=5, duration_jitter=0.0)
        series = coord.transform(trace)
        rate = net.sample_rate
        at = 0.0
        for prim in profiles[2].primitives:
            n = max(1, round(prim.duration * rate))
            lo, hi = int(at * rate), int(at * rate) + n
            mid = series.hra[lo + 2 : hi - 2]
            want = math.hypot(prim.forward_accel, prim.lateral_accel)
            if prim.kind == "brake":
                # brake rate is re-solved per leg to land exactly at rest
                want = abs(prim.forward_accel)
                np.testing.assert_allclose(mid, want, atol=0.02)
            else:
                np.testing.assert_allclose(mid, want, atol=1e-9)
            at += prim.duration

    def test_vertical_channel_carries_gravity(self, line):
        net, profiles = line
        trace = gen_trip(net, profiles, 0, 2, QUIET, seed=5)
        # phone-frame magnitude at rest is g; earth-frame vertical after
        # gravity removal is zero
        dwell = trace.truth_ranges("dwell")[0]
        lo = int(dwell.start * net.sample_rate) + 2
        hi = int(dwell.end * net.sample_rate) - 2
        mag = np.linalg.norm(trace.acc[lo:hi], axis=1)
        np.testing.assert_allclose(mag, 9.81, atol=1e-9)
        series = coord.transform(trace)
        np.testing.assert_allclose(series.enu[lo:hi, 2], 0.0, atol=1e-9)


class TestOtherModes:
    def test_modes_and_truth(self):
        for mode in MODES:
            trace = gen_other_mode(mode, 60.0, NoiseConfig(), seed=3)
            assert len(trace.truth) == 1
            assert trace.truth[0].label == mode
            assert trace.n_samples == 600

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            gen_other_mode("rocket", 60.0, NoiseConfig(), seed=3)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            gen_other_mode("walk", 0.0, NoiseConfig(), seed=3)

    def test_static_is_quiet_even_with_shake_configured(self):
        trace = gen_other_mode("static", 300.0, NoiseConfig(), seed=3)
        assert float(np.max(coord.transform(trace).hra)) < 0.5

    def test_amplitude_ordering(self, line):
        # the calibration contract the extractor relies on:
        # static < metro < road traffic < walk in mean horizontal magnitude
        net, profiles = line
        noise = NoiseConfig()
        for seed in (11, 12):
            static = mean_hra(gen_other_mode("static", 500.0, noise, seed))
            walk = mean_hra(gen_other_mode("walk", 500.0, noise, seed))
            bus = mean_hra(gen_other_mode("bus", 500.0, noise, seed))
            taxi = mean_hra(gen_other_mode("taxi", 500.0, noise, seed))
            metro = mean_hra(gen_trip(net, profiles, 1, 4, noise, seed))
            assert static < metro < min(bus, taxi)
            assert max(bus, taxi) < walk


class TestNoiseLayering:
    def test_shake_toggle_keeps_motion(self, line):
        net, profiles = line
        quiet = gen_trip(net, profiles, 0, 3, NoiseConfig(hand_shake_amp=0.0), seed=7)
        shaky = gen_trip(net, profiles, 0, 3, NoiseConfig(), seed=7)
        np.testing.assert_array_equal(quiet.orient, shaky.orient)
        delta = shaky.acc - quiet.acc
        assert np.any(delta != 0.0)
        assert np.mean(np.all(delta == 0.0, axis=1)) > 0.5  # bursts are sparse

    def test_apply_defense_noise(self, line):
        net, profiles = line
        trace = gen_trip(net, profiles, 0, 2, NoiseConfig(), seed=7)
        same = apply_defense_noise(trace, 0.0, seed=1)
        np.testing.assert_array_equal(same.acc, trace.acc)
        assert same.acc is not trace.acc
        noisy1 = apply_defense_noise(trace, 0.5, seed=1)
        noisy2 = apply_defense_noise(trace, 0.5, seed=1)
        np.testing.assert_array_equal(noisy1.acc, noisy2.acc)
        assert np.std(noisy1.acc - trace.acc) == pytest.approx(0.5, rel=0.05)
        np.testing.assert_array_equal(noisy1.orient, trace.orient)
        with pytest.raises(ValueError):
            apply_defense_noise(trace, -1.0, seed=1)

    def test_hand_shake_is_the_renders_burst_model(self, line):
        # the render adds its white noise after the shake, so sums round differently
        net, profiles = line
        calm = gen_trip(net, profiles, 0, 3, NoiseConfig(hand_shake_amp=0.0), seed=7)
        shaky = gen_trip(net, profiles, 0, 3, NoiseConfig(hand_shake_amp=16.0), seed=7)
        shake_rng = simgen._streams(7, 6)[3]  # gen_trip's dwell, scale, orientation, shake, ... streams
        acc = calm.acc.copy()
        simgen._add_hand_shake(acc, calm.t, 16.0, shake_rng)
        np.testing.assert_allclose(acc, shaky.acc, rtol=0.0, atol=4e-15)
        assert np.mean(acc == shaky.acc) > 0.98
        assert np.any(acc != calm.acc)
        np.testing.assert_array_equal(calm.t, shaky.t)
        np.testing.assert_array_equal(calm.orient, shaky.orient)

    def test_apply_hand_shake_draws_from_its_own_tag(self, line):
        net, profiles = line
        trace = gen_trip(net, profiles, 0, 3, NoiseConfig(hand_shake_amp=0.0), seed=7)
        acc = trace.acc.copy()
        rng = np.random.default_rng(np.random.SeedSequence([5, 0x5AE]))
        simgen._add_hand_shake(acc, trace.t, 16.0, rng)
        np.testing.assert_array_equal(apply_hand_shake(trace, 16.0, seed=5).acc, acc)


class TestPerturbationContract:
    """Each ``apply_*`` is a pure, seeded function of a recorded trace."""

    @pytest.fixture(scope="class")
    def trace(self, line):
        net, profiles = line
        return gen_trip(net, profiles, 0, 3, NoiseConfig(), seed=7)

    def test_every_perturbation_is_found(self):
        assert PERTURBATIONS == ["apply_defense_noise", "apply_hand_shake"]

    @pytest.mark.parametrize("name", PERTURBATIONS)
    def test_seeded_and_leaves_input_alone(self, trace, name):
        perturb = getattr(simgen, name)
        before = [a.copy() for a in (trace.t, trace.acc, trace.orient)]
        out = perturb(trace, 4.0, 1)
        for was, now in zip(before, (trace.t, trace.acc, trace.orient)):
            np.testing.assert_array_equal(now, was)
        np.testing.assert_array_equal(out.t, trace.t)
        np.testing.assert_array_equal(out.orient, trace.orient)
        assert out.truth == trace.truth
        assert np.any(out.acc != trace.acc)
        np.testing.assert_array_equal(perturb(trace, 4.0, 1).acc, out.acc)
        assert np.any(perturb(trace, 4.0, 2).acc != out.acc)

    @pytest.mark.parametrize("name", PERTURBATIONS)
    def test_amount_zero_gives_equal_arrays(self, trace, name):
        out = getattr(simgen, name)(trace, 0.0, 1)
        np.testing.assert_array_equal(out.acc, trace.acc)
        assert out.acc is not trace.acc

    @pytest.mark.parametrize("amount", [-1.0, float("nan"), float("inf"), -float("inf"), True, "1"])
    @pytest.mark.parametrize("name", PERTURBATIONS)
    def test_bad_amount_refused(self, trace, name, amount):
        with pytest.raises(ValueError, match="finite and non-negative"):
            getattr(simgen, name)(trace, amount, 1)


class TestSeeds:
    """Every generator and perturbation takes an integer seed and refuses any other."""

    @pytest.fixture(scope="class")
    def trace(self, line):
        net, profiles = line
        return gen_trip(net, profiles, 0, 2, NoiseConfig(), seed=7)

    @staticmethod
    def callers(line, trace):
        net, profiles = line
        return {
            "gen_network": lambda seed: gen_network(3, seed),
            "gen_trip": lambda seed: gen_trip(net, profiles, 0, 2, QUIET, seed),
            "gen_other_mode": lambda seed: gen_other_mode("walk", 20.0, QUIET, seed),
            "gen_mixed_day": lambda seed: gen_mixed_day([("static", 20.0)], QUIET, seed),
            **{name: lambda seed, f=getattr(simgen, name): f(trace, 1.0, seed) for name in PERTURBATIONS},
        }

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, np.bool_(True), "1", np.float64(2.0), None])
    def test_non_integer_refused(self, line, trace, seed):
        for name, call in self.callers(line, trace).items():
            with pytest.raises(ValueError, match="seed must be an integer"):
                call(seed)

    def test_numpy_integer_is_its_value(self, line, trace):
        for name, call in self.callers(line, trace).items():
            a, b = call(5), call(np.int64(5))
            if name == "gen_network":
                assert a[0] == b[0]
            else:
                np.testing.assert_array_equal(a.acc, b.acc)
        assert apply_defense_noise(trace, 1.0, np.uint8(1)).acc.tobytes() == (
            apply_defense_noise(trace, 1.0, 1).acc.tobytes()
        )


class TestMixedDay:
    def test_concatenation(self, line):
        net, profiles = line
        schedule = [
            ("static", 60.0),
            ("walk", 45.0),
            ("trip", {"start_interval": 1, "length": 3}),
            ("taxi", 50.0),
        ]
        day = gen_mixed_day(schedule, NoiseConfig(), seed=31, network=net, profiles=profiles)
        day.validate()
        labels = [r.label for r in day.truth]
        assert labels[0] == "static"
        assert labels[1] == "walk"
        assert "metro" in labels
        assert labels[-1] == "taxi"
        metro = day.truth_ranges("metro")[0]
        assert metro.start == pytest.approx(60.0 + 45.0, abs=0.2)
        # truth ranges stay inside the recording
        assert all(0.0 <= r.start < r.end <= day.n_samples / 10.0 + 1e-9 for r in day.truth)

    def test_deterministic(self, line):
        net, profiles = line
        schedule = [("walk", 30.0), ("trip", {"start_interval": 0, "length": 2})]
        a = gen_mixed_day(schedule, NoiseConfig(), seed=9, network=net, profiles=profiles)
        b = gen_mixed_day(schedule, NoiseConfig(), seed=9, network=net, profiles=profiles)
        np.testing.assert_array_equal(a.acc, b.acc)

    def test_day_takes_the_network_rate(self):
        # a 10 Hz day around a 20 Hz ride would mix 0.1 s and 0.05 s steps
        net, profiles = gen_network(3, seed=21, sample_rate=20.0)
        ride = ("trip", {"start_interval": 0, "length": 1})
        schedule = [("static", 30.0), ride, ("static", 30.0)]
        day = gen_mixed_day(
            schedule, NoiseConfig(), seed=4, network=net, profiles=profiles, sample_rate=20.0
        )
        day.validate()
        assert day.sample_rate == 20.0
        with pytest.raises(ValueError, match="network sampled at 20 Hz, day at 10 Hz"):
            gen_mixed_day(schedule, NoiseConfig(), seed=4, network=net, profiles=profiles)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            gen_mixed_day([], NoiseConfig(), seed=9)

    def test_trip_needs_network(self):
        with pytest.raises(ValueError, match="network"):
            gen_mixed_day([("trip", {"start_interval": 0, "length": 2})], NoiseConfig(), seed=9)


class TestProfilePersistence:
    def test_round_trip(self, tmp_path, line):
        _, profiles = line
        p = tmp_path / "profiles.json"
        save_profiles(profiles, p)
        assert load_profiles(p) == profiles


class TestNoiseConfig:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            NoiseConfig(hand_shake_amp=-1.0)

