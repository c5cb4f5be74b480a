"""Evaluation protocols over simulated corpora.

Supervised: leave-one-trip-out, scoring every contiguous subtrip of a few
fixed lengths cut at the true dwell centers; a prediction counts only if
start interval, direction, and length all match. Each subtrip is decoded
in its trip's sample coordinates as the attack decodes a ride, by
``infer.decode_spans``: one call per (trip, model) segments and plans the
trip's subtrips, featurises and classifies the distinct segments their
decoding needs from the trip's ``(n, 3)`` earth-frame array in at most two
batches, and scores each subtrip from those rows.
Cut points are scored against the true dwell centres within the fixed
``POINT_TOLERANCE_S``.
Semi-supervised: the trips are re-split into random unlabeled rides, labels
are bootstrapped from two distinctive seed intervals, and one damped-weight
model is evaluated the same way. Robustness and defense runs reuse the
subtrip machinery on paired or noise-injected corpora.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import coord, segment, semisup
from .classify import IntervalEnsemble, TrainingSet, train_interval_ensemble
from .features import extract_batch, fit_features
from .infer import ToleranceResult, TraceHypothesis, check_mode, decode_spans
from .model import FORWARD, REVERSE, is_integer
from .pipeline import (
    Corpus,
    PipelineConfig,
    build_corpus,
    child_seed,
    interval_training_rows,
    seed_segments,
    single_model_ensemble,  # re-exported: the benchmark calls it from here
    train_ensemble_on,
    true_trip_layout,
)
from .simgen import apply_defense_noise, distinctive_intervals

log = logging.getLogger("subtrace.eval")

DEFAULT_LENGTHS = (3, 5, 7)
POINT_TOLERANCE_S = 10.0
SEED_INTERVALS = 2
SEED_TRAVERSALS = 20
DEFENSE_FACTOR = 5.0


# --- metrics ----------------------------------------------------------------


def edit_distance(pred: list[float], true: list[float]) -> int:
    """Levenshtein distance between point sequences; values match within ``POINT_TOLERANCE_S``."""
    np_, nt = len(pred), len(true)
    d = np.zeros((np_ + 1, nt + 1), dtype=int)
    d[:, 0] = np.arange(np_ + 1)
    d[0, :] = np.arange(nt + 1)
    for i in range(1, np_ + 1):
        for j in range(1, nt + 1):
            same = abs(pred[i - 1] - true[j - 1]) < POINT_TOLERANCE_S
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (0 if same else 1),
            )
    return int(d[np_, nt])


def confusion_matrix(pairs: list[tuple[int, int]], k: int) -> np.ndarray:
    """Row-normalized percentage matrix of (true, predicted) interval pairs."""
    counts = np.zeros((k, k))
    for t, p in pairs:
        counts[t, p] += 1
    sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        pct = np.where(sums > 0, 100.0 * counts / sums, 0.0)
    return pct


# --- subtrips -----------------------------------------------------------------


@dataclass(frozen=True)
class Subtrip:
    """One contiguous window of a trip, cut at true dwell centers."""

    trip: int
    start_leg: int
    length: int
    span: tuple[int, int]
    uids: tuple[int, ...]
    direction: str


def check_lengths(lengths) -> tuple[int, ...]:
    """``lengths`` as a tuple; a length below 1 or one given twice raises ``ValueError``."""
    lengths = tuple(lengths)
    if not all(is_integer(n) and n >= 1 for n in lengths) or len(set(lengths)) < len(lengths):
        raise ValueError(f"subtrip lengths must be distinct and at least 1, got {list(lengths)}")
    return lengths


def enumerate_subtrips(corpus: Corpus, lengths: tuple[int, ...]) -> list[Subtrip]:
    subtrips = []
    for ti, trace in enumerate(corpus.trips):
        lay = true_trip_layout(trace)
        bounds = lay.bounds
        for L in lengths:
            for j in range(lay.n_legs - L + 1):
                a, b = bounds[j], bounds[j + L]
                subtrips.append(
                    Subtrip(
                        trip=ti,
                        start_leg=j,
                        length=L,
                        span=(a, b),
                        uids=lay.uids[j : j + L],
                        direction=lay.direction or FORWARD,
                    )
                )
    return subtrips


# a step of its own only because the benchmark's tracer times it by this name, once per subtrip
def predict_subtrip(result: ToleranceResult) -> TraceHypothesis | None:
    """The ride a decoded subtrip names; ``None`` when no ride fits."""
    return result.best


@dataclass
class EvalReport:
    """Scores of one evaluation; a length no trip is long enough for has accuracy ``None``."""

    accuracy_by_length: dict[int, float | None]
    counts_by_length: dict[int, int]
    confusion: np.ndarray
    interval_accuracy: list[float]
    predictions: list[tuple[Subtrip, TraceHypothesis | None]]

    def to_dict(self) -> dict:
        return {
            "accuracy_by_length": {str(k): v for k, v in sorted(self.accuracy_by_length.items())},
            "counts_by_length": {str(k): v for k, v in sorted(self.counts_by_length.items())},
            "confusion_percent": np.round(self.confusion, 2).tolist(),
            "interval_accuracy": [round(a, 4) for a in self.interval_accuracy],
        }


def evaluate_subtrips(
    corpus: Corpus,
    ensemble_for: Callable[[int], IntervalEnsemble],
    lengths: tuple[int, ...] = DEFAULT_LENGTHS,
    mode: str = "full",
    series_by_trip: list[coord.EnuSeries] | None = None,
) -> EvalReport:
    check_mode(mode)
    lengths = check_lengths(lengths)
    k = corpus.network.num_intervals
    if series_by_trip is None:
        series_by_trip = [coord.transform(t) for t in corpus.trips]

    preds: list[tuple[Subtrip, TraceHypothesis | None]] = []
    for trip, group in itertools.groupby(enumerate_subtrips(corpus, lengths), lambda st: st.trip):
        group = list(group)
        ensembles = [ensemble_for(st.trip) for st in group]
        # one decode_spans call per (trip, model); the list above keeps every id in use
        by_model: dict[int, list[int]] = {}
        for i, ensemble in enumerate(ensembles):
            by_model.setdefault(id(ensemble), []).append(i)
        hyps: list[TraceHypothesis | None] = [None] * len(group)
        for idx in by_model.values():
            spans, ensemble = [group[i].span for i in idx], ensembles[idx[0]]
            decoded = decode_spans(series_by_trip[trip], spans, corpus.network, ensemble, mode)
            for i, (result, _) in zip(idx, decoded):
                hyps[i] = predict_subtrip(result)
        preds.extend(zip(group, hyps))

    correct = {L: 0 for L in lengths}
    totals = {L: 0 for L in lengths}
    pairs: list[tuple[int, int]] = []
    for st, hyp in preds:
        totals[st.length] += 1
        if _ride_key(hyp) == (st.uids[0], st.direction, st.length):
            correct[st.length] += 1
        if hyp is not None and hyp.length == st.length:
            pairs.extend(zip(st.uids, hyp.interval_ids()))

    per_interval = []
    for u in range(k):
        hits = [1 if p == t else 0 for t, p in pairs if t == u]
        per_interval.append(float(np.mean(hits)) if hits else 0.0)

    return EvalReport(
        accuracy_by_length={L: correct[L] / totals[L] if totals[L] else None for L in lengths},
        counts_by_length=totals,
        confusion=confusion_matrix(pairs, k),
        interval_accuracy=per_interval,
        predictions=preds,
    )


# --- supervised protocol ---------------------------------------------------------


def loo_supervised(
    corpus: Corpus, config: PipelineConfig, lengths: tuple[int, ...] = DEFAULT_LENGTHS
) -> EvalReport:
    """Leave-one-trip-out evaluation of the supervised attack.

    Every trip is cut once; each fold trains on the rows of all trips but
    its own, in trip order.
    """
    n_trips = len(corpus.trips)
    segs, uids = interval_training_rows(corpus)
    ends = np.cumsum([true_trip_layout(t).n_legs for t in corpus.trips]).tolist()
    models: dict[int, IntervalEnsemble] = {}
    for ti, (lo, hi) in enumerate(zip([0] + ends, ends)):
        train_segs, train_uids = segs[:lo] + segs[hi:], uids[:lo] + uids[hi:]
        models[ti] = train_ensemble_on(train_segs, train_uids, corpus.network, config)
        log.info("fold %d/%d trained", ti + 1, n_trips)
    return evaluate_subtrips(corpus, lambda ti: models[ti], lengths)


# --- segmentation quality ---------------------------------------------------------


@dataclass
class SegmentationReport:
    distances: list[int]
    count_errors: list[int]
    within_one: float
    mean_distance: float

    def to_dict(self) -> dict:
        return {
            "within_one": round(self.within_one, 4),
            "mean_distance": round(self.mean_distance, 4),
            "distances": self.distances,
            "count_errors": self.count_errors,
        }


def segmentation_evaluation(corpus: Corpus) -> SegmentationReport:
    """Pipeline points vs true dwell centers on every full trip span."""
    rate = corpus.network.sample_rate
    distances, count_errors = [], []
    for trace in corpus.trips:
        lay = true_trip_layout(trace)
        lo, hi = lay.span
        hra = coord.transform(trace).hra
        points, _ = segment.find_final_segment_points(hra[lo:hi], corpus.network)
        pred_t = [p / rate for p in points]
        true_t = [(c - lo) / rate for c in lay.cuts]
        distances.append(edit_distance(pred_t, true_t))
        count_errors.append(len(points) - len(lay.cuts))
    within = float(np.mean([abs(e) <= 1 for e in count_errors]))
    return SegmentationReport(
        distances=distances,
        count_errors=count_errors,
        within_one=within,
        mean_distance=float(np.mean(distances)),
    )


# --- semi-supervised protocol -------------------------------------------------------


def _random_chunks(n_legs: int, rng: np.random.Generator) -> list[int]:
    """Random ride lengths summing to ``n_legs``: 2 to 5 legs, one more to leave no single leg."""
    sizes = []
    rem = n_legs
    while rem > 0:
        size = min(int(rng.integers(2, 6)), rem)
        if rem - size == 1:
            size = min(size + 1, rem)
        sizes.append(size)
        rem -= size
    return sizes


@dataclass
class SemisupReport:
    rounds: int
    coverage_history: list[float]
    stalled: bool
    resolved_sequences: int
    total_sequences: int
    eval: EvalReport

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "coverage_history": [round(c, 4) for c in self.coverage_history],
            "stalled": self.stalled,
            "resolved_sequences": self.resolved_sequences,
            "total_sequences": self.total_sequences,
            **self.eval.to_dict(),
        }


def bootstrap_from_corpus(
    corpus: Corpus, config: PipelineConfig
) -> tuple[semisup.BootstrapResult, IntervalEnsemble, int]:
    """Unlabeled rides + seed traversals -> (result, bootstrapped ensemble, number of rides)."""
    network = corpus.network

    # unlabeled rides: every trip re-split into random contiguous chunks
    chunk_segs: list[list[np.ndarray]] = []
    for ti, trace in enumerate(corpus.trips):
        series = coord.transform(trace)
        lay = true_trip_layout(trace)
        bounds = lay.bounds
        rng = np.random.default_rng(child_seed(config.seed, 5, ti))
        j = 0
        for size in _random_chunks(lay.n_legs, rng):
            a, b = bounds[j], bounds[j + size]
            points, _ = segment.find_final_segment_points(series.hra[a:b], network)
            cuts = [a, *(a + p for p in points), b]
            chunk_segs.append([series.enu[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])])
            j += size

    segments = [s for chunk in chunk_segs for s in chunk]
    fconfig, all_vectors = fit_features(segments, network.sample_rate)
    ends = np.cumsum([len(chunk) for chunk in chunk_segs]).tolist()
    sequences = [list(all_vectors[a:b]) for a, b in zip([0, *ends[:-1]], ends)]

    # seed detectors from a couple of distinctive intervals, both directions
    seed_uids = distinctive_intervals(corpus.profiles)[:SEED_INTERVALS]
    seed_vectors: dict[int, np.ndarray] = {}
    for uid in seed_uids:
        for gid in (network.directed(uid, FORWARD), network.directed(uid, REVERSE)):
            segs = seed_segments(
                network, corpus.profiles, gid, SEED_TRAVERSALS, config.noise, config.seed
            )
            seed_vectors[gid] = extract_batch(segs, fconfig)

    neg_rng = np.random.default_rng(child_seed(config.seed, 6))
    seeds = []
    for gid, pos in seed_vectors.items():
        others = [v for g, vv in seed_vectors.items() if g != gid for v in vv]
        idx = neg_rng.choice(len(all_vectors), size=min(3 * len(pos), len(all_vectors)), replace=False)
        neg = np.concatenate([np.stack(others), all_vectors[idx]])
        seeds.append(semisup.train_seed_classifier(gid, pos, neg))

    result = semisup.bootstrap(
        sequences, seeds, network,
        threshold=config.enough_labels,
        max_rounds=config.max_rounds,
        seed=child_seed(config.seed, 7),
    )

    X, y, w = semisup.build_training_set(result.pools, network)
    train = TrainingSet(X=X, y=y, n_classes=network.num_intervals, sample_weight=w)
    ensemble = train_interval_ensemble(
        train, fconfig,
        boost_rounds=config.boost_rounds,
        n_trees=config.n_trees,
        seed=child_seed(config.seed, 8),
    )
    return result, ensemble, len(sequences)


def semisupervised_evaluation(
    corpus: Corpus, config: PipelineConfig, lengths: tuple[int, ...] = DEFAULT_LENGTHS
) -> SemisupReport:
    result, ensemble, n_sequences = bootstrap_from_corpus(corpus, config)
    report = evaluate_subtrips(corpus, lambda _: ensemble, lengths)
    return SemisupReport(
        rounds=result.rounds_run,
        coverage_history=result.coverage_history,
        stalled=result.stalled,
        resolved_sequences=len(result.resolved),
        total_sequences=n_sequences,
        eval=report,
    )


# --- robustness and defense -----------------------------------------------------------


def paired_corpus(config: PipelineConfig, **noise_overrides) -> Corpus:
    """Same seeds, different noise: motion is identical sample for sample."""
    return build_corpus(replace(config, noise=replace(config.noise, **noise_overrides)))


def _ride_key(hyp) -> tuple | None:
    """What a prediction claims about the ride; ``None`` when it failed."""
    return None if hyp is None else (hyp.start_interval, hyp.direction, hyp.length)


def _same_rides(rep_a: EvalReport, rep_b: EvalReport) -> int:
    """Paired subtrips on which two reports predict the same ride."""
    return sum(
        _ride_key(ha) == _ride_key(hb)
        for (_, ha), (_, hb) in zip(rep_a.predictions, rep_b.predictions)
    )


def prediction_flips(
    corpus_a: Corpus,
    corpus_b: Corpus,
    ensemble: IntervalEnsemble,
    lengths: tuple[int, ...] = (5,),
) -> float:
    """Fraction of paired subtrips whose predicted ride changes between corpora."""
    rep_a = evaluate_subtrips(corpus_a, lambda _: ensemble, lengths)
    rep_b = evaluate_subtrips(corpus_b, lambda _: ensemble, lengths)
    n = len(rep_a.predictions)
    return (n - _same_rides(rep_a, rep_b)) / n


def defended_corpus(corpus: Corpus, config: PipelineConfig, factor: float = DEFENSE_FACTOR) -> tuple[Corpus, float]:
    """Inject white noise at factor x the corpus mean ride HRA into every trip."""
    hra_means = []
    for trace in corpus.trips:
        series = coord.transform(trace)
        lay = true_trip_layout(trace)
        hra_means.append(float(np.mean(series.hra[lay.span[0] : lay.span[1]])))
    amp = factor * float(np.mean(hra_means))
    defended = [
        apply_defense_noise(t, amp, child_seed(config.seed, 9, ti))
        for ti, t in enumerate(corpus.trips)
    ]
    return replace(corpus, trips=defended), amp


def mode_agreement(
    corpus: Corpus, ensemble: IntervalEnsemble, lengths: tuple[int, ...] = DEFAULT_LENGTHS
) -> float:
    """How often the tolerance search and plain detected-cut scoring agree."""
    full = evaluate_subtrips(corpus, lambda _: ensemble, lengths, mode="full")
    reduced = evaluate_subtrips(corpus, lambda _: ensemble, lengths, mode="reduced")
    return _same_rides(full, reduced) / len(full.predictions)
