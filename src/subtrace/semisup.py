"""Semi-supervised label bootstrapping from a handful of seed intervals.

The attacker starts with binary detectors for a few directed intervals
(built from rides they took themselves). Every unlabeled sequence in which
a seed fires pins down the whole run, because segments of one ride occupy
consecutive directed ids; conflicting hits are resolved by confidence mass.
Labeled segments accumulate in per-interval pools, pools that grow large
enough spawn new detectors, and the loop repeats until every interval is
covered or nothing moves. ``threshold`` and ``max_rounds`` have no defaults:
the pipeline passes ``PipelineConfig.enough_labels`` and ``max_rounds``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .classify import GaussianNB
from .model import FORWARD, REVERSE, MetroNetwork

CONFLICT_MARGIN = 1.2
NEGATIVE_RATIO = 3
LATE_ROUND_WEIGHT = 0.8

log = logging.getLogger("subtrace.semisup")


@dataclass
class SeedClassifier:
    """Binary detector for one directed interval."""

    gid: int
    nb: GaussianNB
    positives: np.ndarray  # (n, d) vectors the detector was built from

    def hits(self, vectors: np.ndarray) -> list[tuple[int, float]]:
        """(position, confidence) for every segment judged to be this interval."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        proba = self.nb.predict_proba(vectors)[:, 1]
        return [(int(i), float(p)) for i, p in enumerate(proba) if p > 0.5]


def train_seed_classifier(
    gid: int, positives: np.ndarray, negatives: np.ndarray
) -> SeedClassifier:
    positives = np.atleast_2d(np.asarray(positives, dtype=float))
    negatives = np.atleast_2d(np.asarray(negatives, dtype=float))
    X = np.concatenate([negatives, positives])
    y = np.concatenate([np.zeros(len(negatives), int), np.ones(len(positives), int)])
    return SeedClassifier(gid=gid, nb=GaussianNB.fit(X, y, 2), positives=positives)


@dataclass(frozen=True)
class PoolEntry:
    vector: np.ndarray
    round: int  # 0 for seed positives, then the round that resolved it


def resolve_sequence(
    hits: list[tuple[int, int, float]], n: int, network: MetroNetwork
) -> int | None:
    """Pick the directed start id implied by seed hits on one sequence.

    Each hit (position p, interval g, confidence) implies the run starts at
    g - p. Starts whose run leaves one direction of ``network`` are impossible.
    The heaviest start wins only if it beats the runner-up by a clear margin.
    """
    weights: dict[int, float] = {}
    for p, g, conf in hits:
        s = g - p
        if not network.fits(s, n):
            continue
        weights[s] = weights.get(s, 0.0) + conf
    if not weights:
        return None
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] < CONFLICT_MARGIN * ranked[1][1]:
        return None
    return ranked[0][0]


@dataclass
class BootstrapResult:
    pools: dict[int, list[PoolEntry]]
    resolved: dict[int, int]  # sequence index -> directed start id
    rounds_run: int
    coverage_history: list[float]
    stalled: bool

    def report(self, network: MetroNetwork, threshold: int) -> dict:
        k = network.num_intervals
        covered = covered_intervals(self.pools, network, threshold)
        return {
            "rounds": self.rounds_run,
            "resolved_sequences": len(self.resolved),
            "coverage": len(covered) / k,
            "coverage_history": self.coverage_history,
            "intervals_covered": sorted(covered),
            "pool_sizes": {str(g): len(v) for g, v in sorted(self.pools.items()) if v},
            "stalled": self.stalled,
        }


def pool_count(pools: dict[int, list[PoolEntry]], network: MetroNetwork, uid: int) -> int:
    """Labels available for one track segment, both directions combined."""
    return sum(len(pools.get(network.directed(uid, d), [])) for d in (FORWARD, REVERSE))


def covered_intervals(
    pools: dict[int, list[PoolEntry]], network: MetroNetwork, threshold: int
) -> set[int]:
    k = network.num_intervals
    return {u for u in range(k) if pool_count(pools, network, u) >= threshold}


def _draw_negatives(
    exclude: set[int],
    pools: dict[int, list[PoolEntry]],
    leftovers: list[np.ndarray],
    n_pos: int,
    rng: np.random.Generator,
) -> np.ndarray | None:
    others = [e.vector for g, entries in pools.items() if g not in exclude for e in entries]
    others.extend(leftovers)
    if not others:
        return None
    want = max(2, NEGATIVE_RATIO * n_pos)
    pool = np.stack(others)
    idx = rng.choice(len(pool), size=min(want, len(pool)), replace=False)
    return pool[idx]


def bootstrap(
    sequences: list[list[np.ndarray]],
    seeds: list[SeedClassifier],
    network: MetroNetwork,
    threshold: int,
    max_rounds: int,
    seed: int = 0,
) -> BootstrapResult:
    """Grow interval labels from seed detectors over unlabeled sequences.

    Sequences resolve at most once and stay resolved; pools only grow. Each
    round first sweeps all unresolved sequences with the current detectors,
    then trains one detector for every track segment whose combined pool
    (both directions) got big enough; it answers under both directed ids,
    so a hit proposes one candidate start per direction and the run-block
    constraint plus cross-hit agreement settle which one holds. The loop
    ends on full coverage, on a round that changes nothing, or at the round
    cap; the last two leave a partial result flagged stalled.
    """
    k = network.num_intervals
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))

    detectors: dict[int, SeedClassifier] = {c.gid: c for c in seeds}
    pools: dict[int, list[PoolEntry]] = {g: [] for g in network.directed_ids}
    for c in detectors.values():
        pools[c.gid].extend(PoolEntry(v, 0) for v in c.positives)

    resolved: dict[int, int] = {}
    seq_mats = [np.stack(seq) if seq else None for seq in sequences]
    history: list[float] = []

    rounds_run = 0
    for rnd in range(1, max_rounds + 1):
        rounds_run = rnd
        progressed = False

        for si, mat in enumerate(seq_mats):
            if si in resolved or mat is None:
                continue
            hits = [
                (p, det.gid, conf)
                for det in detectors.values()
                for p, conf in det.hits(mat)
            ]
            start = resolve_sequence(hits, len(mat), network)
            if start is None:
                continue
            resolved[si] = start
            for j, vec in enumerate(mat):
                pools[start + j].append(PoolEntry(np.array(vec), rnd))
            progressed = True

        unresolved = [
            vec for si, mat in enumerate(seq_mats) if mat is not None and si not in resolved
            for vec in mat
        ]
        for u in range(k):
            fwd = network.directed(u, FORWARD)
            rev = network.directed(u, REVERSE)
            if fwd in detectors and rev in detectors:
                continue
            entries = pools[fwd] + pools[rev]
            if len(entries) < threshold:
                continue
            pos = np.stack([e.vector for e in entries])
            neg = _draw_negatives({fwd, rev}, pools, unresolved, len(pos), rng)
            if neg is None:
                continue
            det = train_seed_classifier(fwd, pos, neg)
            detectors.setdefault(fwd, det)
            detectors.setdefault(rev, SeedClassifier(gid=rev, nb=det.nb, positives=pos))
            progressed = True

        coverage = len(covered_intervals(pools, network, threshold)) / k
        history.append(coverage)
        if coverage >= 1.0 or not progressed:
            break
    stalled = not history or history[-1] < 1.0

    return BootstrapResult(
        pools=pools,
        resolved=resolved,
        rounds_run=rounds_run,
        coverage_history=history,
        stalled=stalled,
    )


def build_training_set(
    pools: dict[int, list[PoolEntry]], network: MetroNetwork
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool labels as (X, y, weight) rows over undirected interval classes.

    Labels resolved after the first sweep carry a damped weight, since they
    arrived through detectors that were themselves bootstrapped. A class
    with a single pooled row is left out, as if nothing had been pooled for
    it: one row gives no spread to fit.
    """
    pooled: dict[int, int] = {}
    for g, entries in pools.items():
        uid = network.undirected(g)
        pooled[uid] = pooled.get(uid, 0) + len(entries)
    thin = sorted(uid for uid, count in pooled.items() if count == 1)
    if thin:
        log.warning("left out classes %s: one pooled row each", thin)
    rows, labels, weights = [], [], []
    for g in sorted(pools):
        uid = network.undirected(g)
        if uid in thin:
            continue
        for e in pools[g]:
            rows.append(e.vector)
            labels.append(uid)
            weights.append(1.0 if e.round <= 1 else LATE_ROUND_WEIGHT)
    if not rows:
        raise ValueError("no labeled segments to train on")
    return np.stack(rows), np.array(labels, int), np.array(weights, float)
