"""The three benchmark workloads, each driven through public ``subtrace`` calls.

A workload has a set-up (timed as a whole, counted in ``setup_s``), an untimed
``prepare(i)`` that picks or writes the input of op ``i``, the timed ``op`` and
an untimed ``check`` that scores the op's output against the simulator's
ground truth. Inputs depend only on the corpus seed and the workload seed.
``setup`` and ``op`` call ``mark()`` between library calls; there the
benchmark may run its host-speed reference kernel, outside the timed pieces.

Every op input is distinct within a run for as long as the run has inputs to
spare: attack-day writes a fresh day per op, and the other two workloads walk
a seeded permutation of the corpus trips, wrapping only after all of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# layers are called through their modules so that the tracer's patches apply
from subtrace import coord, evalharness, features, model, pipeline, simgen
from subtrace.pipeline import Corpus, PipelineConfig

# the six-interval configuration the unit tests and demos use
SMOKE_CONFIG = dict(
    seed=11,
    num_intervals=6,
    n_trips=8,
    mode_duration=400.0,
    boost_rounds=4,
    n_trees=12,
    enough_labels=6,
)

SUBTRIP_LENGTHS = evalharness.DEFAULT_LENGTHS
ATTACK_MODE = "full"
PREPARED_DAYS = 1  # days written during set-up; later ones are written between ops
NON_METRO = ("static", "walk", "bus", "taxi")
WALK_S, OTHER_S = 120.0, 240.0  # fixed stretch lengths keep op sizes alike


def make_config(size: str, corpus_seed: int | None) -> PipelineConfig:
    """Default config at full size, the unit tests' small line at smoke size."""
    base = PipelineConfig() if size == "full" else PipelineConfig(**SMOKE_CONFIG)
    return base if corpus_seed is None else replace(base, seed=corpus_seed)


@dataclass
class Check:
    """Ground-truth verdict on one op's output."""

    items: int  # answers scored: days, subtrips or held-out segments
    correct: int
    failed: bool  # raised, returned no hypothesis, or reported a span error
    decoded: object  # canonical, JSON-serialisable answers of the op

    @property
    def digest(self) -> str:
        blob = json.dumps(self.decoded, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def ride_length_cycle(k: int) -> list[int]:
    """Ride lengths 2..k, ordered by the golden-ratio sequence: 2, 7, 4, 9, 6, ... for k = 10."""
    return sorted(range(2, k + 1), key=lambda n: ((n - 2) * 0.6180339887) % 1.0)


def _permutation(seed: int, n: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, 0]).permutation(n)]


class AttackDay:
    """Load one mixed-day trace file and attack it, as ``subtrace attack`` does."""

    name = "attack-day"

    def __init__(self, config: PipelineConfig, seed: int, workdir: Path):
        self.config, self.seed, self.workdir = config, seed, workdir
        self.rides: dict[int, list[list[int]]] = {}

    def setup(self, mark) -> None:
        corpus = pipeline.build_corpus(self.config)
        mark()
        model_path = self.workdir / "model.json"
        pipeline.train_attack_model(corpus, self.config).save(model_path)
        mark()
        self.model = pipeline.AttackModel.load(model_path)
        self.network, self.profiles = corpus.network, corpus.profiles
        self.rides.clear()
        for j in range(PREPARED_DAYS):
            self._write_day(j)

    def _day_path(self, j: int) -> Path:
        return self.workdir / f"day_{j:04d}.jsonl"

    def _write_day(self, j: int) -> None:
        """One ride between a walk on each side and two other stretches.

        Op time grows with the ride's length, so lengths follow a fixed cycle
        through 2..k that mixes short and long rides at every prefix; every
        run, whatever its seed and op count, then times the same mix. The
        seed draws the start, direction, other stretches and noise. A day
        holds one ride so that op times form one cluster.
        """
        k = self.network.num_intervals
        lengths = ride_length_cycle(k)
        length = lengths[j % len(lengths)]
        rng = np.random.default_rng([self.seed, 1, j])
        offset = int(rng.integers(0, k - length + 1))
        gid = offset if rng.random() < 0.5 else k + offset
        before, after = (NON_METRO[int(m)] for m in rng.integers(len(NON_METRO), size=2))
        day = simgen.gen_mixed_day(
            [
                (before, OTHER_S),
                ("walk", WALK_S),
                ("trip", {"start_interval": gid, "length": length}),
                ("walk", WALK_S),
                (after, OTHER_S),
            ],
            self.config.noise,
            pipeline.child_seed(self.seed, 1, j),
            network=self.network,
            profiles=self.profiles,
            sample_rate=self.config.sample_rate,
        )
        model.save_trace(day, self._day_path(j))
        self.rides[j] = [[self.network.undirected(g) for g in range(gid, gid + length)]]

    def prepare(self, i: int):
        if i not in self.rides:
            self._write_day(i)
        return i

    def op(self, i: int, mark) -> dict:
        trace = model.load_trace(self._day_path(i))
        mark()
        return pipeline.attack_trace(trace, self.model, ATTACK_MODE)

    def check(self, i: int, report: dict) -> Check:
        spans = report["spans"]
        failed = not spans or any("error" in s for s in spans)
        decoded = [
            [s["span"], s.get("points"), s.get("direction"), s.get("intervals"), s.get("error")]
            for s in spans
        ]
        got = [s.get("intervals") for s in spans]
        return Check(items=1, correct=int(got == self.rides[i]), failed=failed, decoded=decoded)


class EvaluateSubtrips:
    """Score every length-3/5/7 subtrip of one trip against one trained ensemble."""

    name = "evaluate-subtrips"

    def __init__(self, config: PipelineConfig, seed: int, workdir: Path):
        self.config, self.seed = config, seed

    def setup(self, mark) -> None:
        self.corpus = pipeline.build_corpus(self.config)
        mark()
        self.ensemble = evalharness.single_model_ensemble(self.corpus, self.config)
        mark()
        self.series = [coord.transform(t) for t in self.corpus.trips]
        self.order = _permutation(self.seed, len(self.corpus.trips))

    def prepare(self, i: int):
        c = self.corpus
        trip = self.order[i % len(self.order)]
        one = Corpus(
            network=c.network,
            profiles=c.profiles,
            trips=[c.trips[trip]],
            modes=c.modes,
            manifest={**c.manifest, "trips": [c.manifest["trips"][trip]]},
        )
        return trip, one

    def op(self, inp, mark) -> evalharness.EvalReport:
        trip, one = inp
        ensemble = self.ensemble

        def ensemble_for(_):
            mark()  # called once before each subtrip is predicted
            return ensemble

        return evalharness.evaluate_subtrips(
            one,
            ensemble_for,
            SUBTRIP_LENGTHS,
            mode=ATTACK_MODE,
            series_by_trip=[self.series[trip]],
        )

    def check(self, inp, report: evalharness.EvalReport) -> Check:
        correct, failed, decoded = 0, False, []
        for st, hyp in report.predictions:
            if hyp is None:
                failed = True
                decoded.append([st.start_leg, st.length, None])
                continue
            correct += (
                hyp.start_interval == st.uids[0]
                and hyp.direction == st.direction
                and hyp.length == st.length
            )
            decoded.append(
                [st.start_leg, st.length, [hyp.start_interval, hyp.direction, hyp.length]]
            )
        failed = failed or not report.predictions
        return Check(len(report.predictions), int(correct), failed, [inp[0], decoded])


class TrainFolds:
    """One leave-one-trip-out fold: training rows of all other trips, then training."""

    name = "train-folds"

    def __init__(self, config: PipelineConfig, seed: int, workdir: Path):
        self.config, self.seed = config, seed

    def setup(self, mark) -> None:
        self.corpus = pipeline.build_corpus(self.config)
        self.order = _permutation(self.seed, len(self.corpus.trips))

    def prepare(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def op(self, held_out: int, mark):
        n = len(self.corpus.trips)
        segs, uids = pipeline.interval_training_rows(
            self.corpus, [t for t in range(n) if t != held_out]
        )
        mark()
        return pipeline.train_ensemble_on(segs, uids, self.corpus.network, self.config)

    def check(self, held_out: int, ensemble) -> Check:
        truth = pipeline.true_segments(self.corpus.trips[held_out])
        P = ensemble.predict_matrix([features.extract_features(s, ensemble.config) for s, _ in truth])
        pred = [int(p) for p in np.argmax(P, axis=1)]
        correct = sum(p == uid for p, (_, uid) in zip(pred, truth))
        return Check(len(truth), int(correct), False, [held_out, pred])


WORKLOADS = {w.name: w for w in (AttackDay, EvaluateSubtrips, TrainFolds)}
