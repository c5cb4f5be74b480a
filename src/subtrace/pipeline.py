"""End-to-end glue: corpora on disk, model bundles, and the full attack.

A corpus directory holds one network, a track profile per forward interval,
trips and other-mode recordings, all reproducible from its manifest's seed.
An attack model bundles the network, the ride extractor and the interval
ensemble into one JSON document that holds the line and what training
fitted, and nothing else: the segmenter and the extractor's window take
their settings from the network.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import coord
from .classify import IntervalEnsemble, TrainingSet, train_interval_ensemble
from .extract import ModeModel, extract_spans, fit_thresholds, train_mode_classifier, window_features
from .features import fit_features
from .infer import check_mode, decode_spans
from .model import (
    FORWARD,
    REVERSE,
    MetroNetwork,
    Trace,
    TraceFormatError,
    dump_json,
    is_finite_real,
    is_integer,
    load_json,
    load_network,
    load_trace,
    network_from_dict,
    network_to_dict,
    save_network,
    save_trace,
)
from .simgen import (
    MODES,
    NoiseConfig,
    TrackProfile,
    child_seed,
    gen_mixed_day,
    gen_network,
    gen_other_mode,
    gen_trip,
    load_profiles,
    save_profiles,
)

DEFAULT_TRIPS = 40
DEFAULT_MODE_DURATION = 1200.0
# smallest value each integer field of PipelineConfig takes
INT_MINIMUM = {
    "seed": 0,
    "num_intervals": 1,
    "n_trips": 1,
    "boost_rounds": 1,
    "n_trees": 1,
    "enough_labels": 1,
    "max_rounds": 1,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults for corpus generation and model training."""

    seed: int = 7
    num_intervals: int = 10
    sample_rate: float = 10.0
    n_trips: int = DEFAULT_TRIPS
    mode_duration: float = DEFAULT_MODE_DURATION
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    boost_rounds: int = 12
    n_trees: int = 60
    enough_labels: int = 20
    max_rounds: int = 12

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not is_integer(value):
                    raise ValueError(f"config field {f.name} must be an integer, got {value!r}")
                if value < INT_MINIMUM[f.name]:
                    raise ValueError(
                        f"config field {f.name} must be at least {INT_MINIMUM[f.name]}, got {value!r}"
                    )
            elif f.type == "float" and not (is_finite_real(value) and value > 0):
                raise ValueError(f"config field {f.name} must be finite and positive, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        doc = dict(doc)
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "noise" in doc:
            noise_doc = doc["noise"]
            bad = set(noise_doc) - set(NoiseConfig.__dataclass_fields__)
            if bad:
                raise ValueError(f"unknown noise keys: {sorted(bad)}")
            doc["noise"] = NoiseConfig(**noise_doc)
        return cls(**doc)


# --- corpus -------------------------------------------------------------------


@dataclass
class Corpus:
    network: MetroNetwork
    profiles: list[TrackProfile]
    trips: list[Trace]
    modes: list[Trace]
    manifest: dict

    @property
    def trip_meta(self) -> list[dict]:
        return self.manifest["trips"]


def _trip_plan(config: PipelineConfig, network: MetroNetwork) -> list[dict]:
    k = network.num_intervals
    plan = []
    for i in range(config.n_trips):
        direction = FORWARD if i % 2 == 0 else REVERSE
        plan.append(
            {
                "file": f"trips/trip_{i:03d}.jsonl",
                "start": network.directed(0 if direction == FORWARD else k - 1, direction),
                "length": k,
                "direction": direction,
                "seed": child_seed(config.seed, 1, i),
            }
        )
    return plan


def _mode_plan(config: PipelineConfig) -> list[dict]:
    return [
        {
            "file": f"modes/{mode}.jsonl",
            "mode": mode,
            "duration": config.mode_duration,
            "seed": child_seed(config.seed, 2, j),
        }
        for j, mode in enumerate(MODES)
    ]


def build_corpus(config: PipelineConfig, out_dir: str | Path | None = None) -> Corpus:
    """Simulate the default corpus; write it out when a directory is given."""
    network, profiles = gen_network(
        config.num_intervals, seed=child_seed(config.seed, 0), sample_rate=config.sample_rate
    )
    trip_plan = _trip_plan(config, network)
    mode_plan = _mode_plan(config)

    trips = [
        gen_trip(network, profiles, p["start"], p["length"], config.noise, p["seed"])
        for p in trip_plan
    ]
    modes = [
        gen_other_mode(p["mode"], p["duration"], config.noise, p["seed"], config.sample_rate)
        for p in mode_plan
    ]
    manifest = {
        "config": config.to_dict(),
        "network": "network.json",
        "profiles": "profiles.json",
        "trips": trip_plan,
        "modes": mode_plan,
    }
    corpus = Corpus(network, profiles, trips, modes, manifest)
    if out_dir is not None:
        write_corpus(corpus, out_dir)
    return corpus


def write_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    out = Path(out_dir)
    (out / "trips").mkdir(parents=True, exist_ok=True)
    (out / "modes").mkdir(parents=True, exist_ok=True)
    save_network(corpus.network, out / "network.json")
    save_profiles(corpus.profiles, out / "profiles.json")
    for meta, trace in zip(corpus.trip_meta, corpus.trips):
        save_trace(trace, out / meta["file"])
    for meta, trace in zip(corpus.manifest["modes"], corpus.modes):
        save_trace(trace, out / meta["file"])
    (out / "manifest.json").write_text(dump_json(corpus.manifest))


def load_corpus(path: str | Path) -> Corpus:
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise TraceFormatError(f"{root}: no manifest.json, not a corpus directory")

    def read(manifest: dict) -> Corpus:
        # the line first: a corpus whose line is refused is refused before any recording is parsed
        network = load_network(root / manifest["network"])
        profiles = load_profiles(root / manifest["profiles"])
        if [p.interval_id for p in profiles] != list(range(network.num_intervals)):
            raise TraceFormatError(
                f"{manifest['profiles']}: needs a profile per interval 0..{network.num_intervals - 1}"
            )
        trips = [load_trace(root / m["file"]) for m in manifest["trips"]]
        modes = [load_trace(root / m["file"]) for m in manifest["modes"]]
        return Corpus(network, profiles, trips, modes, manifest)

    return load_json(manifest_path, read, TraceFormatError)


# --- ground-truth layout --------------------------------------------------------


@dataclass(frozen=True)
class TrueTrip:
    """Sample-space layout of one simulated trip, from its truth trailer."""

    span: tuple[int, int]
    cuts: tuple[int, ...]  # interior dwell centers, in samples
    uids: tuple[int, ...]
    direction: str | None

    @property
    def n_legs(self) -> int:
        return len(self.uids)

    @property
    def bounds(self) -> tuple[int, ...]:
        """Leg boundaries in samples: the span's start, every cut, the span's end."""
        return (self.span[0], *self.cuts, self.span[1])


def true_trip_layout(trace: Trace) -> TrueTrip:
    metro = trace.truth_ranges("metro")
    if len(metro) != 1:
        raise ValueError(f"expected one metro range, found {len(metro)}")
    dwells = sorted(trace.truth_ranges("dwell"), key=lambda r: r.start)
    legs = sorted(trace.truth_ranges("interval:"), key=lambda r: r.start)
    if not legs:
        raise ValueError("trip truth has no interval ranges")
    uids = tuple(int(r.label.split(":", 1)[1]) for r in legs)
    a, b = metro[0].start, metro[0].end
    span = (int(np.searchsorted(trace.t, a)), int(np.searchsorted(trace.t, b)))
    cuts = tuple(int(np.searchsorted(trace.t, 0.5 * (d.start + d.end))) for d in dwells)
    direction = None
    if len(uids) > 1:
        direction = FORWARD if uids[1] > uids[0] else REVERSE
    return TrueTrip(span, cuts, uids, direction)


def true_segments(trace: Trace) -> list[tuple[np.ndarray, int]]:
    """Earth-frame (n, 3) arrays cut at the true dwell centers, with labels."""
    enu = coord.transform(trace).enu
    layout = true_trip_layout(trace)
    bounds = layout.bounds
    return [(enu[lo:hi], uid) for lo, hi, uid in zip(bounds[:-1], bounds[1:], layout.uids)]


# --- training -------------------------------------------------------------------


def mode_window_size(network: MetroNetwork) -> int:
    """The ride extractor's window, in samples: half the shortest station interval."""
    return network.samples(network.min_interval_duration) // 2


def train_mode_model(corpus: Corpus) -> ModeModel:
    """Metro / non-metro window classifier from the corpus recordings."""
    m = mode_window_size(corpus.network)
    metro_hra = [coord.transform(tr).hra for tr in corpus.trips]
    thresholds = fit_thresholds(np.concatenate(metro_hra))

    mode_hra = [coord.transform(tr).hra for tr in corpus.modes]
    rows, labels = [], []
    for label, series in ((1, metro_hra), (0, mode_hra)):
        for hra in series:
            # disjoint m-sample windows; a short trailing window is a block of its own
            k = len(hra) // m
            for block in (hra[: k * m].reshape(k, m), hra[k * m :][None, :]):
                if block.size:
                    rows.append(window_features(block, thresholds))
                    labels.append(np.full(len(block), label))
    return train_mode_classifier(np.concatenate(rows), np.concatenate(labels), thresholds)


def interval_training_rows(
    corpus: Corpus, trip_idx: list[int] | None = None
) -> tuple[list[np.ndarray], list[int]]:
    """True-cut training segments and their interval labels."""
    segments, uids = [], []
    idx = range(len(corpus.trips)) if trip_idx is None else trip_idx
    for i in idx:
        for seg, uid in true_segments(corpus.trips[i]):
            segments.append(seg)
            uids.append(uid)
    return segments, uids


def train_ensemble_on(
    segments: list[np.ndarray],
    uids: list[int],
    network: MetroNetwork,
    config: PipelineConfig,
) -> IntervalEnsemble:
    fconfig, X = fit_features(segments, network.sample_rate)
    train = TrainingSet(X=X, y=np.array(uids, int), n_classes=network.num_intervals)
    return train_interval_ensemble(
        train,
        fconfig,
        boost_rounds=config.boost_rounds,
        n_trees=config.n_trees,
        seed=child_seed(config.seed, 3),
    )


MODEL_VERSION = 4  # the attack model document's schema_version


@dataclass
class AttackModel:
    """Everything needed to run the attack on a raw trace."""

    network: MetroNetwork
    mode_model: ModeModel
    ensemble: IntervalEnsemble

    def __post_init__(self):
        net, ens = self.network, self.ensemble
        if (ens.n_classes, ens.config.sample_rate) != (net.num_intervals, net.sample_rate):
            raise ValueError(
                f"attack model 'ensemble' section ({ens.n_classes} classes, "
                f"{ens.config.sample_rate:g} Hz) does not fit its 'network' section "
                f"({net.num_intervals} intervals, {net.sample_rate:g} Hz)"
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": MODEL_VERSION,
            "kind": "attack_model",
            "network": network_to_dict(self.network),
            "mode_model": self.mode_model.to_dict(),
            "ensemble": self.ensemble.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AttackModel":
        """Rebuild a model; a malformed or inconsistent document raises ``ValueError``.

        The error names the section at fault. The ensemble takes the network's rate.
        """
        if (
            not isinstance(doc, dict)
            or doc.get("kind") != "attack_model"
            or doc.get("schema_version") != MODEL_VERSION
        ):
            raise ValueError(f"not a version-{MODEL_VERSION} attack model document")

        def section(key: str, parse):
            try:
                return parse(doc[key])
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"attack model {key!r} section is missing or malformed ({exc!r})"
                ) from None

        network = section("network", lambda d: network_from_dict(d, source="attack model"))
        mode_model = section("mode_model", ModeModel.from_dict)
        ensemble = section("ensemble", lambda d: IntervalEnsemble.from_dict(d, network.sample_rate))
        return cls(network, mode_model, ensemble)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(dump_json(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "AttackModel":
        return load_json(path, cls.from_dict)


def bundle_attack_model(corpus: Corpus, ensemble: IntervalEnsemble) -> AttackModel:
    """Bundle an interval ensemble with the corpus's network and ride extractor."""
    return AttackModel(
        network=corpus.network, mode_model=train_mode_model(corpus), ensemble=ensemble
    )


def single_model_ensemble(corpus: Corpus, config: PipelineConfig) -> IntervalEnsemble:
    """One interval ensemble trained on every true cut of the corpus."""
    segments, uids = interval_training_rows(corpus)
    return train_ensemble_on(segments, uids, corpus.network, config)


def train_attack_model(corpus: Corpus, config: PipelineConfig) -> AttackModel:
    return bundle_attack_model(corpus, single_model_ensemble(corpus, config))


# --- attack ---------------------------------------------------------------------


def attack_trace(trace: Trace, model: AttackModel, mode: str = "full") -> dict:
    """Run extraction, segmentation, and inference over one raw trace.

    The trace is validated first, so one built in memory is held to the
    same rules as one loaded from a file. A trace that declares a sample
    rate other than the model's is refused: window and segmenter lengths
    are counted in samples, so it would be decoded in the wrong units.
    """
    check_mode(mode)
    trace.validate()
    rate = model.network.sample_rate
    if trace.sample_rate > 0 and trace.sample_rate != rate:
        raise TraceFormatError(
            f"trace sample rate {trace.sample_rate:g} Hz differs from the model's {rate:g} Hz"
        )
    series = coord.transform(trace)
    spans = extract_spans(series.hra, model.mode_model, mode_window_size(model.network))

    decoded = decode_spans(
        series, [(s.start, s.end) for s in spans], model.network, model.ensemble, mode
    )
    results = []
    for span, (res, warn) in zip(spans, decoded):
        lo, hi = span.start, span.end
        entry = {
            "span": [int(lo), int(hi)],
            "t_start": float(trace.t[lo]),
            "t_end": float(trace.t[hi - 1]),
            "warning": warn,
        }
        results.append(entry)
        hyp = res.best
        if hyp is None:
            entry["error"] = "no feasible hypothesis for this span"
            continue
        entry.update(
            {
                "points": [int(p) for p in res.points],
                "start_interval": hyp.start_interval,
                "direction": hyp.direction,
                "length": hyp.length,
                "score": hyp.score,
                "intervals": list(hyp.interval_ids()),
                "stations": model.network.stations(hyp.interval_ids(), hyp.direction),
            }
        )

    return {
        "device_id": trace.device_id,
        "mode": mode,
        "num_spans": len(results),
        "spans": results,
    }


# --- seed traversals for bootstrapping -------------------------------------------


def seed_segments(
    network: MetroNetwork,
    profiles: list[TrackProfile],
    gid: int,
    count: int,
    noise: NoiseConfig,
    seed: int,
) -> list[np.ndarray]:
    """Earth-frame segments of rides the attacker took over directed id ``gid`` alone.

    Each recording keeps a random slice of platform stillness on both sides,
    so the detector built on these tolerates however much dwell a segmenter
    cut leaves attached to a ride.
    """
    out = []
    for i in range(count):
        pad_rng = np.random.default_rng(child_seed(seed, 4, gid, i, 1))
        pad_l, pad_r = pad_rng.uniform(0.0, network.dwell_nominal, size=2)
        day = gen_mixed_day(
            [
                ("static", max(pad_l, 1.0)),
                ("trip", {"start_interval": gid, "length": 1}),
                ("static", max(pad_r, 1.0)),
            ],
            noise,
            child_seed(seed, 4, gid, i),
            network=network,
            profiles=profiles,
            sample_rate=network.sample_rate,
        )
        series = coord.transform(day)
        metro = next(r for r in day.truth if r.label == "metro")
        lo = int(np.searchsorted(day.t, metro.start - pad_l))
        hi = int(np.searchsorted(day.t, metro.end + pad_r))
        out.append(series.enu[lo:hi])
    return out
