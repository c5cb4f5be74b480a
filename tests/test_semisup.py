"""Label bootstrapping on a synthetic three-interval line.

Feature vectors are planted in per-track-segment clusters, so a detector
trained on one direction also recognizes the other, and only the position
consistency of the hits can settle which direction a sequence ran."""

from __future__ import annotations

import numpy as np
import pytest

from subtrace.classify import TrainingSet
from subtrace.model import MetroNetwork, StationInterval
from subtrace.semisup import (
    CONFLICT_MARGIN,
    LATE_ROUND_WEIGHT,
    PoolEntry,
    SeedClassifier,
    bootstrap,
    build_training_set,
    covered_intervals,
    pool_count,
    resolve_sequence,
    train_seed_classifier,
)

K = 3
CENTERS = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (0.0, 30.0)}


def tiny_network(k: int = K) -> MetroNetwork:
    forward = tuple(
        StationInterval(
            id=i,
            from_station=f"S{i}",
            to_station=f"S{i + 1}",
            min_duration=60.0,
            max_duration=120.0,
        )
        for i in range(k)
    )
    return MetroNetwork("tiny", 10.0, forward, 20.0, 35.0)


class Clusters:
    """Deterministic draws around the per-segment centers."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def vec(self, uid: int) -> np.ndarray:
        return np.asarray(CENTERS[uid]) + self.rng.normal(scale=0.1, size=2)

    def batch(self, uid: int, n: int) -> np.ndarray:
        return np.stack([self.vec(uid) for _ in range(n)])


def seed_for_interval_zero(draws: Clusters) -> SeedClassifier:
    # enough positives for a sane variance estimate; two rows would fit a
    # cluster so tight that fresh draws from the same center fall outside
    positives = draws.batch(0, 12)
    negatives = np.concatenate([draws.batch(1, 2), draws.batch(2, 2)])
    return train_seed_classifier(0, positives, negatives)


class TestSeedClassifier:
    def test_train_stores_positives_and_gid(self):
        draws = Clusters(0)
        det = seed_for_interval_zero(draws)
        assert det.gid == 0
        assert det.positives.shape == (12, 2)
        assert np.allclose(det.nb.means[1], det.positives.mean(axis=0))

    def test_hits_report_positive_positions(self):
        draws = Clusters(1)
        det = seed_for_interval_zero(draws)
        mat = np.stack([draws.vec(1), draws.vec(0), draws.vec(0), draws.vec(2)])
        hits = det.hits(mat)
        assert [p for p, _ in hits] == [1, 2]
        assert all(conf > 0.5 for _, conf in hits)


class TestResolveSequence:
    def test_single_consistent_hit(self):
        assert resolve_sequence([(0, 1, 0.9)], n=2, network=tiny_network(5)) == 1

    def test_position_offset_applied(self):
        assert resolve_sequence([(2, 3, 0.9)], n=2, network=tiny_network(5)) == 1

    def test_negative_start_filtered(self):
        assert resolve_sequence([(2, 1, 0.9)], n=2, network=tiny_network(5)) is None

    def test_run_crossing_direction_boundary_filtered(self):
        assert resolve_sequence([(0, 3, 0.9)], n=3, network=tiny_network(5)) is None

    def test_reverse_block_run_allowed(self):
        assert resolve_sequence([(0, 5, 0.9)], n=3, network=tiny_network(5)) == 5

    def test_run_past_line_end_filtered(self):
        assert resolve_sequence([(0, 8, 0.9)], n=3, network=tiny_network(5)) is None

    def test_agreeing_hits_accumulate(self):
        hits = [(0, 2, 0.6), (1, 3, 0.7)]
        assert resolve_sequence(hits, n=2, network=tiny_network(5)) == 2

    def test_close_race_is_ambiguous(self):
        hits = [(0, 2, 1.1), (0, 3, 1.0)]
        assert 1.1 < CONFLICT_MARGIN * 1.0
        assert resolve_sequence(hits, n=2, network=tiny_network(5)) is None

    def test_clear_margin_wins(self):
        hits = [(0, 2, 0.9), (1, 3, 0.9), (0, 3, 1.0)]
        assert resolve_sequence(hits, n=2, network=tiny_network(5)) == 2

    def test_equal_weights_are_ambiguous(self):
        hits = [(0, 2, 0.8), (0, 3, 0.8)]
        assert resolve_sequence(hits, n=2, network=tiny_network(5)) is None

    def test_no_hits(self):
        assert resolve_sequence([], n=2, network=tiny_network(5)) is None

    def test_all_filtered(self):
        assert resolve_sequence([(3, 0, 0.9)], n=2, network=tiny_network(5)) is None


class TestPoolAccounting:
    def test_pool_count_sums_both_directions(self):
        net = tiny_network()
        entry = PoolEntry(np.zeros(2), 1)
        pools = {g: [] for g in range(2 * K)}
        pools[1] = [entry] * 3
        pools[4] = [entry] * 2
        assert pool_count(pools, net, 1) == 5
        assert pool_count(pools, net, 0) == 0

    def test_covered_intervals_threshold(self):
        net = tiny_network()
        entry = PoolEntry(np.zeros(2), 1)
        pools = {g: [] for g in range(2 * K)}
        pools[1] = [entry] * 3
        pools[4] = [entry] * 2
        assert covered_intervals(pools, net, threshold=5) == {1}
        assert covered_intervals(pools, net, threshold=6) == set()


@pytest.fixture(scope="module")
def chain_case():
    """One seed detector, then two rounds to full coverage.

    Sequences: five [A,B] forward starts, three full [A,B,C] runs, five
    [B,A] rides of the same two segments in reverse, and two full reverse
    runs. Only the forward ones contain the seed's segment at position 0,
    so the reverse rides need round-one detectors to resolve.
    """
    net = tiny_network()
    draws = Clusters(7)
    seeds = [seed_for_interval_zero(draws)]

    def run(uids: list[int]) -> list[np.ndarray]:
        return [draws.vec(u) for u in uids]

    sequences = (
        [run([0, 1]) for _ in range(5)]
        + [run([0, 1, 2]) for _ in range(3)]
        + [run([1, 0]) for _ in range(5)]
        + [run([2, 1, 0]) for _ in range(2)]
    )
    result = bootstrap(sequences, seeds, net, threshold=5, max_rounds=12, seed=0)
    return net, sequences, seeds, result


class TestBootstrap:
    def test_two_rounds_to_full_coverage(self, chain_case):
        _, _, _, result = chain_case
        assert result.rounds_run == 2
        assert result.stalled is False
        assert result.coverage_history == pytest.approx([2 / 3, 1.0])

    def test_resolved_starts(self, chain_case):
        _, _, _, result = chain_case
        want = {i: 0 for i in range(8)}
        want.update({i: 4 for i in range(8, 13)})
        want.update({13: 3, 14: 3})
        assert result.resolved == want

    def test_pool_sizes(self, chain_case):
        _, _, _, result = chain_case
        sizes = {g: len(v) for g, v in result.pools.items()}
        assert sizes == {0: 20, 1: 8, 2: 3, 3: 2, 4: 7, 5: 7}

    def test_entry_rounds(self, chain_case):
        _, _, _, result = chain_case
        assert {e.round for e in result.pools[0]} == {0, 1}
        assert {e.round for e in result.pools[1]} == {1}
        assert {e.round for e in result.pools[2]} == {1}
        for g in (3, 4, 5):
            assert {e.round for e in result.pools[g]} == {2}

    def test_report(self, chain_case):
        net, _, _, result = chain_case
        rep = result.report(net, threshold=5)
        assert rep["rounds"] == 2
        assert rep["resolved_sequences"] == 15
        assert rep["coverage"] == 1.0
        assert rep["intervals_covered"] == [0, 1, 2]
        assert rep["pool_sizes"] == {"0": 20, "1": 8, "2": 3, "3": 2, "4": 7, "5": 7}
        assert rep["stalled"] is False

    def test_deterministic(self, chain_case):
        net, sequences, seeds, result = chain_case
        again = bootstrap(sequences, seeds, net, threshold=5, max_rounds=12, seed=0)
        assert again.resolved == result.resolved
        assert again.report(net, 5) == result.report(net, 5)

    def test_round_cap_flags_stall(self, chain_case):
        net, sequences, seeds, _ = chain_case
        capped = bootstrap(sequences, seeds, net, threshold=5, max_rounds=1, seed=0)
        assert capped.rounds_run == 1
        assert capped.stalled is True
        assert capped.coverage_history == pytest.approx([2 / 3])
        assert len(capped.resolved) == 8

    def test_zero_rounds_flags_stall(self, chain_case):
        net, sequences, seeds, _ = chain_case
        result = bootstrap(sequences, seeds, net, threshold=5, max_rounds=0, seed=0)
        assert result.rounds_run == 0
        assert result.stalled is True
        assert result.coverage_history == []
        assert result.resolved == {}

    def test_silent_seed_stalls_immediately(self):
        net = tiny_network()
        draws = Clusters(9)
        positives = draws.batch(2, 2)
        negatives = np.concatenate([draws.batch(0, 2), draws.batch(1, 2)])
        seeds = [train_seed_classifier(2, positives, negatives)]
        sequences = [[draws.vec(0), draws.vec(1)] for _ in range(5)]
        sequences.append([])  # empty sequences are skipped, not resolved
        result = bootstrap(sequences, seeds, net, threshold=5, max_rounds=12, seed=0)
        assert result.stalled is True
        assert result.rounds_run == 1
        assert result.resolved == {}
        assert result.coverage_history == pytest.approx([0.0])

    def test_no_negative_material_skips_spawn(self):
        # a big seed pool for one segment cannot spawn the reverse detector
        # when there is nothing anywhere to use as negatives
        net = tiny_network()
        draws = Clusters(10)
        det = train_seed_classifier(0, draws.batch(0, 8), draws.batch(1, 2))
        result = bootstrap([], [det], net, threshold=5, max_rounds=12, seed=0)
        assert result.stalled is True
        assert result.coverage_history == pytest.approx([1 / 3])


class TestBuildTrainingSet:
    def test_rows_labels_weights(self, chain_case):
        net, _, _, result = chain_case
        X, y, w = build_training_set(result.pools, net)
        assert X.shape == (47, 2)
        counts = np.bincount(y, minlength=K)
        assert counts.tolist() == [27, 15, 5]
        assert np.sum(w == 1.0) == 31
        assert np.sum(w == LATE_ROUND_WEIGHT) == 16

    def test_empty_pools_raise(self):
        net = tiny_network()
        with pytest.raises(ValueError):
            build_training_set({g: [] for g in range(2 * K)}, net)

    def test_single_row_class_left_out(self, caplog):
        # a stalled bootstrap can pool one row for a class; TrainingSet refuses
        # such a class, so it is left out as if nothing had been pooled for it
        net = tiny_network()
        draws = Clusters(12)
        pools = {g: [] for g in range(2 * K)}
        pools[net.directed(0, "forward")] = [PoolEntry(draws.vec(0), 0) for _ in range(3)]
        pools[net.directed(1, "reverse")] = [PoolEntry(draws.vec(1), 2)]
        pools[net.directed(2, "forward")] = [PoolEntry(draws.vec(2), 1)]
        pools[net.directed(2, "reverse")] = [PoolEntry(draws.vec(2), 2)]
        with caplog.at_level("WARNING", logger="subtrace.semisup"):
            X, y, w = build_training_set(pools, net)
        assert y.tolist() == [0, 0, 0, 2, 2]
        assert w.tolist() == [1.0, 1.0, 1.0, 1.0, LATE_ROUND_WEIGHT]
        assert "[1]" in caplog.text
        TrainingSet(X=X, y=y, n_classes=K, sample_weight=w)
