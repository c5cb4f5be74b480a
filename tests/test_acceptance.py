"""Release gate: nine end-to-end checks on the default simulated benchmark.

Each test covers one numbered criterion, computes its metric on the default
ten-interval forty-trip corpus (or the shared small configuration for the
command-line determinism check), prints a single ``ACCEPTANCE n PASS/FAIL``
line, and asserts. Heavy artifacts (leave-one-out run, bootstrap run) are
module fixtures so each is computed once; the corpus is the session one that
other modules share. Run with ``pytest -s`` to see the verdict lines on
success.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from subtrace import cli, coord, extract, pipeline
from subtrace.evalharness import (
    DEFAULT_LENGTHS,
    edit_distance,
    evaluate_subtrips,
    defended_corpus,
    loo_supervised,
    mode_agreement,
    paired_corpus,
    prediction_flips,
    segmentation_evaluation,
    semisupervised_evaluation,
    single_model_ensemble,
)
from subtrace.infer import rank_hypotheses
from subtrace.simgen import distinctive_intervals

from test_coord import euler_oracle, random_orientations, stacked_rotations
from test_infer import brute_force_best

SMALL_CONFIG = {
    "seed": 11,
    "num_intervals": 6,
    "n_trips": 8,
    "mode_duration": 400.0,
    "boost_rounds": 4,
    "n_trees": 12,
    "enough_labels": 6,
}


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def config() -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig()


@pytest.fixture(scope="module")
def corpus(acceptance_corpus):
    """The default corpus, built once per session in ``conftest.py``."""
    return acceptance_corpus


@pytest.fixture(scope="module")
def loo_report(corpus, config):
    return loo_supervised(corpus, config)


@pytest.fixture(scope="module")
def ensemble(corpus, config):
    return single_model_ensemble(corpus, config)


def test_01_rotation_matches_independent_construction():
    rng = np.random.default_rng(2024)
    n = 100_000
    orient = random_orientations(n, rng)
    acc = rng.normal(0.0, 5.0, size=(n, 3))

    R, degen = stacked_rotations(orient)
    expected = np.empty_like(R)
    for i in range(n):
        expected[i] = euler_oracle(*orient[i])
    rot_err = float(np.max(np.abs(R - expected)))

    world = np.einsum("nij,nj->ni", R, acc)
    iso_err = float(np.max(np.abs(
        np.linalg.norm(world, axis=1) - np.linalg.norm(acc, axis=1)
    )))

    spun = orient.copy()
    spun[:, 2] = rng.uniform(-np.pi, np.pi, size=n)
    Rb, _ = stacked_rotations(spun)
    wb = np.einsum("nij,nj->ni", Rb, acc)
    yaw_err = float(max(
        np.max(np.abs(np.hypot(world[:, 0], world[:, 1]) - np.hypot(wb[:, 0], wb[:, 1]))),
        np.max(np.abs(world[:, 2] - wb[:, 2])),
    ))

    ok = not degen.any() and rot_err <= 1e-9 and iso_err <= 1e-9 and yaw_err <= 1e-9
    verdict(1, "rotation oracle",
            ok, f"rot_err={rot_err:.2e} iso_err={iso_err:.2e} yaw_err={yaw_err:.2e}")


def test_02_extraction_covers_rides_without_false_positives(corpus):
    mode_model = pipeline.train_mode_model(corpus)
    w = pipeline.mode_window_size(corpus.network)

    covered = total = 0
    for trace in corpus.trips:
        series = coord.transform(trace)
        mask = np.zeros(len(series.hra), dtype=bool)
        for span in extract.extract_spans(series.hra, mode_model, w):
            mask[span.start:span.end] = True
        rate = trace.sample_rate
        for r in trace.truth_ranges("metro"):
            a, b = int(r.start * rate), min(int(r.end * rate), len(series.hra))
            covered += int(mask[a:b].sum())
            total += b - a
    coverage = covered / total

    false_spans = 0
    for trace in corpus.modes:
        series = coord.transform(trace)
        false_spans += len(extract.extract_spans(series.hra, mode_model, w))

    ok = coverage >= 0.99 and false_spans == 0
    verdict(2, "ride extraction",
            ok, f"coverage={coverage:.4f} false_positive_spans={false_spans}")


def _edit_distance_oracle(a: list[float], b: list[float], tol: float) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    same = abs(a[0] - b[0]) < tol
    return min(
        _edit_distance_oracle(a[1:], b, tol) + 1,
        _edit_distance_oracle(a, b[1:], tol) + 1,
        _edit_distance_oracle(a[1:], b[1:], tol) + (0 if same else 1),
    )


def test_03_segmentation_close_to_true_dwells(corpus):
    report = segmentation_evaluation(corpus)
    frac_close = float(np.mean([d <= 2 for d in report.distances]))

    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(200):
        la, lb = rng.integers(0, 7, size=2)
        a = sorted(rng.uniform(0.0, 600.0, size=la).tolist())
        b = sorted(rng.uniform(0.0, 600.0, size=lb).tolist())
        if edit_distance(a, b) != _edit_distance_oracle(a, b, 10.0):
            mismatches += 1

    ok = frac_close >= 0.90 and mismatches == 0
    verdict(3, "segmentation quality",
            ok,
            f"trips_within_2_edits={frac_close:.3f} "
            f"mean_distance={report.mean_distance:.3f} oracle_mismatches={mismatches}")


def test_04_confusion_diagonal_structure(corpus, loo_report):
    k = corpus.network.num_intervals
    conf = loo_report.confusion
    diag = np.diag(conf)
    dominant = 0
    for i in range(k):
        off = np.delete(conf[i], i)
        dominant += diag[i] > (off.max() if off.size else 0.0)

    dist = distinctive_intervals(corpus.profiles)
    rest = [i for i in range(k) if i not in dist]
    dist_floor = min(diag[i] for i in dist)
    rest_ceiling = max(diag[i] for i in rest) if rest else 0.0

    ok = dominant >= 8 and dist_floor >= rest_ceiling - 1e-9
    verdict(4, "interval confusion",
            ok,
            f"diagonally_dominant={dominant}/{k} distinctive_min={dist_floor:.1f} "
            f"others_max={rest_ceiling:.1f}")


def test_05_inference_exact_and_modes_agree(corpus, ensemble):
    rng = np.random.default_rng(505)
    disagreements = 0
    for _ in range(1000):
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, min(10, m) + 1))
        P = rng.random((n, m))
        P /= P.sum(axis=1, keepdims=True)
        hyp = rank_hypotheses(P)[0]
        start, direction, score = brute_force_best(P)
        if (hyp.start_interval, hyp.direction) != (start, direction):
            disagreements += 1
        elif abs(hyp.score - score) > 1e-9:
            disagreements += 1

    agreement = mode_agreement(corpus, ensemble, DEFAULT_LENGTHS)

    ok = disagreements == 0 and agreement >= 0.99
    verdict(5, "trace inference",
            ok, f"oracle_disagreements={disagreements}/1000 mode_agreement={agreement:.4f}")


def test_06_supervised_accuracy_floors(loo_report):
    acc = loo_report.accuracy_by_length
    seq = [acc[L] for L in (3, 5, 7)]
    monotone = all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    ok = acc[3] >= 0.75 and acc[7] >= 0.90 and monotone
    verdict(6, "supervised accuracy",
            ok, "by_length=" + " ".join(f"{L}:{acc[L]:.3f}" for L in (3, 5, 7)))


def test_07_bootstrap_reaches_coverage_and_accuracy(corpus, config, loo_report):
    semi = semisupervised_evaluation(corpus, config)
    coverage = semi.coverage_history[-1] if semi.coverage_history else 0.0
    acc = semi.eval.accuracy_by_length
    sup = loo_report.accuracy_by_length

    floors = {3: 0.55, 5: 0.75, 7: 0.80}
    meets_floor = all(acc[L] >= floors[L] for L in (3, 5, 7))
    near_supervised = all(sup[L] - acc[L] <= 0.15 for L in (3, 5, 7))

    ok = (not semi.stalled and semi.rounds <= 5 and coverage == 1.0
          and meets_floor and near_supervised)
    verdict(7, "semi-supervised bootstrap",
            ok,
            f"rounds={semi.rounds} coverage={coverage:.2f} "
            + "acc=" + " ".join(f"{L}:{acc[L]:.3f}" for L in (3, 5, 7))
            + " gap=" + " ".join(f"{L}:{sup[L] - acc[L]:+.3f}" for L in (3, 5, 7)))


def test_08_shake_robust_but_defense_effective(corpus, config, ensemble):
    shaken = paired_corpus(config, hand_shake_amp=2 * config.noise.hand_shake_amp)
    flips = prediction_flips(corpus, shaken, ensemble, lengths=(5,))

    base = evaluate_subtrips(corpus, lambda _: ensemble, lengths=(3,))
    guarded, amp = defended_corpus(corpus, config)
    defended = evaluate_subtrips(guarded, lambda _: ensemble, lengths=(3,))
    drop = base.accuracy_by_length[3] - defended.accuracy_by_length[3]

    ok = flips <= 0.10 and drop >= 0.20
    verdict(8, "robustness and defense",
            ok,
            f"shake_flips={flips:.4f} defense_amp={amp:.3f} "
            f"len3_accuracy {base.accuracy_by_length[3]:.3f}->"
            f"{defended.accuracy_by_length[3]:.3f} (drop={drop:.3f})")


def _run_cli_suite(root: Path, monkeypatch) -> dict[str, bytes]:
    """Run every subcommand with relative paths under root; collect all bytes."""
    root.mkdir()
    monkeypatch.chdir(root)
    cfg = Path("config.json")
    cfg.write_text(json.dumps(SMALL_CONFIG))

    out: dict[str, bytes] = {}
    assert cli.main(["generate", "--out", "corpus", "--config", "config.json"]) == 0
    for p in sorted(Path("corpus").rglob("*")):
        if p.is_file():
            out[str(p)] = p.read_bytes()

    assert cli.main(["train", "--corpus", "corpus", "--out", "model.json",
                     "--config", "config.json"]) == 0
    out["model.json"] = Path("model.json").read_bytes()

    assert cli.main(["attack", "--model", "model.json",
                     "--trace", "corpus/trips/trip_000.jsonl",
                     "--out", "attack.json"]) == 0
    out["attack.json"] = Path("attack.json").read_bytes()

    rc = cli.main(["bootstrap", "--corpus", "corpus", "--out", "boot_model.json",
                   "--report", "boot_report.json", "--config", "config.json"])
    out["bootstrap_rc"] = bytes([rc])
    out["boot_model.json"] = Path("boot_model.json").read_bytes()
    out["boot_report.json"] = Path("boot_report.json").read_bytes()

    for protocol in ("supervised", "semisupervised"):
        name = f"eval_{protocol}.json"
        assert cli.main(["evaluate", "--corpus", "corpus", "--protocol", protocol,
                         "--lengths", "3", "--config", "config.json",
                         "--out", name]) == 0
        out[name] = Path(name).read_bytes()
    return out


def test_09_cli_byte_determinism(tmp_path, monkeypatch):
    run_a = _run_cli_suite(tmp_path / "a", monkeypatch)
    run_b = _run_cli_suite(tmp_path / "b", monkeypatch)

    differing = sorted(
        name for name in set(run_a) | set(run_b)
        if run_a.get(name) != run_b.get(name)
    )
    ok = not differing
    verdict(9, "command-line determinism",
            ok,
            f"outputs_compared={len(run_a)} differing={differing if differing else 'none'}")
