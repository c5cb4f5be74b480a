"""Print a SHA-256 digest of every output of a short run of the command line.

The run uses the six-interval configuration the CLI tests use, in a
temporary directory, through the ``subtrace`` package in this checkout's
``src``: it generates a corpus, trains a model, attacks trips 0, 1 and 5 in
full and reduced mode, attacks in both modes a mixed day on the same line
that holds two rides (``write_two_ride_day``: stillness, a forward ride
over intervals 0-2, a walk, a reverse ride over intervals 5-3, stillness),
whose report holds several spans of one recording, in order, each with its
segmenter warning, bootstraps a model (printing its exit code) and
attacks with it, and runs the supervised and semisupervised evaluations.
Each output file is printed as ``sha256  path``. Those evaluation files
hold only rounded accuracies, so five more lines follow: the digest of
every decoded subtrip of ``evalharness.evaluate_subtrips`` at lengths 1, 2
and 3 with the trained model's ensemble, one ``trip start_leg length:
start direction length score`` line per subtrip with the score as
``float.hex``, on the generated corpus in full and in reduced mode, then in
full mode on that corpus under defense noise at factor 1.0
(``evalharness.defended_corpus``), on its hand-shake-16 twin
(``evalharness.paired_corpus`` with ``hand_shake_amp=16.0``), where re-cut
runs win some spans, and on that corpus with 16 m/s^2 hand shake added to
each recorded trip (``evalharness.perturbed_corpus`` with
``simgen.apply_hand_shake``, seeds ``(11, 10)``; the ``shake perturbation
16`` line), then one ``plan_span`` line: the digest of the ``repr`` of
every span plan, re-cut runs included, that the full-mode clean and
defended decodings planned, so the planner's output shows even for runs
that never win, and one ``extract_batch`` line: the digest of the
segments of every ``features.extract_batch`` call those same decodings
made, call by call, with the call and segment counts, so a change to what
a screening round featurises shows even where no decoded ride moves. Then
it prints every key path of ``model.json``, sorted, one ``model.json key``
line each, with list indices collapsed
(``ensemble.forest.trees[].probs``), so a change to the model format shows
by name. Then it attacks four malformed copies of trip 0 (line 401 cut in
half, given a 2-entry ``acc``, given a ``0xff`` byte, or repeating line
400's ``t``), attacks trip 0 with four damaged copies of ``model.json``
(``schema_version`` 3, no ``ensemble`` section, interval 0 shorter than the
shortest dwell, or null exceedance thresholds), and trains on two damaged copies of the corpus (a ``profiles.json`` in both
directions, as version-2 corpora stored it, or a ``network.json`` whose
interval 1 starts at a station interval 0 does not end at), and prints
each exit code with a digest of what the command printed, which is the
error message alone when it is refused. Nothing is written in
the checkout. To check that a change leaves every output
byte-identical, run the script on the parent and on the change and diff
what they print::

    python3 scripts/cli_digests.py > after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subtrace import cli, evalharness, features, infer, pipeline  # noqa: E402
from subtrace.model import save_trace  # noqa: E402
from subtrace.simgen import apply_hand_shake, gen_mixed_day, load_profiles, save_profiles  # noqa: E402

SMALL_CONFIG = {
    "seed": 11,
    "num_intervals": 6,
    "n_trips": 8,
    "mode_duration": 400.0,
    "boost_rounds": 4,
    "n_trees": 12,
    "enough_labels": 6,
}
TRIPS = (0, 1, 5)
EVAL_LENGTHS = (1, 2, 3)
# the decodings whose plans and featurisation batches the plan_span and extract_batch lines digest
PLAN_DIGESTED = (("full", ""), ("full", " defended 1.0"))
# each malformed copy of trip 0 rewrites its line 401 (a sample line), given
# line 400 before it
T_FIELD = re.compile(rb'^\{"t": [^,]+')
MALFORMED = {
    "bad_json": lambda prev, line: line[: len(line) // 2] + b"\n",
    "acc_2_entries": lambda prev, line: re.sub(rb'("acc": \[[^,]+, [^,]+), [^\]]+\]', rb"\1]", line),
    "not_utf8": lambda prev, line: line.replace(b'"t"', b'"\xff"'),
    "repeated_t": lambda prev, line: T_FIELD.sub(T_FIELD.match(prev).group(0), line),
}

# each damaged copy of model.json changes its decoded document in place
DAMAGED_MODELS = {
    "version_3": lambda doc: doc.update(schema_version=3),
    "no_ensemble": lambda doc: doc.pop("ensemble"),
    "interval_shorter_than_dwell": lambda doc: doc["network"]["intervals"][0].update(
        min_duration=doc["network"]["dwell"][0] - 1.0
    ),
    "null_thresholds": lambda doc: doc["ensemble"]["feature_config"].update(nvht_thresholds=None),
}


def _both_directions(corpus: Path) -> None:
    """Store every reverse profile too, under the reverse directed id k + i of interval k-1-i."""
    forward = load_profiles(corpus / "profiles.json")
    k = len(forward)
    reverse = [replace(p.reversed(), interval_id=2 * k - 1 - p.interval_id) for p in forward[::-1]]
    save_profiles(forward + reverse, corpus / "profiles.json")


def _broken_line(corpus: Path) -> None:
    doc = json.loads((corpus / "network.json").read_text())
    doc["intervals"][1]["from"] = "X"
    (corpus / "network.json").write_text(json.dumps(doc))


# each damaged copy of the corpus directory is changed in place
DAMAGED_CORPORA = {"profiles_both_directions": _both_directions, "broken_line": _broken_line}


def run(argv: list[str], stdout_file: str | None = None, ok=(cli.EXIT_OK,)) -> int:
    if stdout_file:
        with open(stdout_file, "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
    else:
        code = cli.main(argv)
    if code not in ok:
        raise SystemExit(f"subtrace {' '.join(argv)} exited {code}")
    return code


def write_two_ride_day(path: str) -> None:
    """Write a seed-57 day on the generated corpus's line: two three-interval rides, one each way."""
    corpus = pipeline.load_corpus("corpus")
    net = corpus.network
    day = gen_mixed_day(
        [
            ("static", 90.0),
            ("trip", {"start_interval": 0, "length": 3}),
            ("walk", 180.0),
            ("trip", {"start_interval": net.directed(5, "reverse"), "length": 3}),
            ("static", 90.0),
        ],
        pipeline.PipelineConfig(**SMALL_CONFIG).noise,
        seed=57,
        network=net,
        profiles=corpus.profiles,
    )
    save_trace(day, path)


def run_commands() -> int:
    """Run every command in the current directory; returns bootstrap's exit code."""
    Path("config.json").write_text(json.dumps(SMALL_CONFIG))
    cfg = ["--config", "config.json"]
    run(["generate", "--out", "corpus", *cfg], stdout_file="generate.out")
    run(["train", "--corpus", "corpus", "--out", "model.json", *cfg], stdout_file="train.out")
    write_two_ride_day("two_ride_day.jsonl")
    traces = {f"{i:03d}": f"corpus/trips/trip_{i:03d}.jsonl" for i in TRIPS}
    traces["two_ride_day"] = "two_ride_day.jsonl"
    for name, trace in traces.items():
        for mode in ("full", "reduced"):
            out = f"attack_{mode}_{name}.json"
            run(["attack", "--model", "model.json", "--trace", trace, "--mode", mode, "--out", out])
    code = run(
        ["bootstrap", "--corpus", "corpus", "--out", "boot.json",
         "--report", "boot_report.json", *cfg],
        ok=(cli.EXIT_OK, cli.EXIT_STALLED),
    )
    for i in TRIPS:
        trace = f"corpus/trips/trip_{i:03d}.jsonl"
        out = f"boot_attack_{i:03d}.json"
        run(["attack", "--model", "boot.json", "--trace", trace, "--out", out])
    for protocol in ("supervised", "semisupervised"):
        run(["evaluate", "--corpus", "corpus", "--protocol", protocol,
             "--out", f"eval_{protocol}.json", *cfg])
    return code


def decoded_subtrips() -> None:
    """Print a digest of every subtrip ``evaluate_subtrips`` decodes, per attack mode and corpus.

    Then print one digest of every ``infer.SpanPlan`` (its span, detected
    cuts and every re-cut run) that decoding the clean and the defended
    corpus in full mode planned, in planning order, so a change to the
    planner shows even where no re-cut run wins, and one digest of the
    segments of every ``features.extract_batch`` call of those decodings,
    call by call.
    """
    corpus = pipeline.load_corpus("corpus")
    ensemble = pipeline.AttackModel.load("model.json").ensemble
    config = pipeline.PipelineConfig(**SMALL_CONFIG)
    defended, _ = evalharness.defended_corpus(corpus, config, 1.0)
    shaken = evalharness.paired_corpus(config, hand_shake_amp=16.0)
    perturbed = evalharness.perturbed_corpus(corpus, apply_hand_shake, 16.0, (config.seed, 10))
    lengths = ",".join(map(str, EVAL_LENGTHS))
    plan_span, extract_batch = infer.plan_span, features.extract_batch
    planned, kept = [], []
    calls, batches = [], []  # each extract_batch call's segments, as bytes

    def recording_plan_span(*args):
        planned.append(plan_span(*args))
        return planned[-1]

    def recording_extract_batch(segments, config):
        calls.append([seg.tobytes() for seg in segments])
        return extract_batch(segments, config)

    infer.plan_span, features.extract_batch = recording_plan_span, recording_extract_batch
    for mode, which, decoded in (
        ("full", "", corpus),
        ("reduced", "", corpus),
        ("full", " defended 1.0", defended),
        ("full", " hand shake 16", shaken),
        ("full", " shake perturbation 16", perturbed),
    ):
        planned.clear()
        calls.clear()
        report = evalharness.evaluate_subtrips(decoded, lambda _: ensemble, EVAL_LENGTHS, mode=mode)
        if (mode, which) in PLAN_DIGESTED:
            kept.extend(planned)
            batches.extend(calls)
        lines = [
            f"{st.trip} {st.start_leg} {st.length}: "
            + ("none" if h is None else f"{h.start_interval} {h.direction} {h.length} {h.score.hex()}")
            for st, h in report.predictions
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{digest}  evaluate_subtrips {mode}{which} lengths {lengths}: {len(lines)} subtrips")
    infer.plan_span, features.extract_batch = plan_span, extract_batch
    digest = hashlib.sha256("\n".join(map(repr, kept)).encode()).hexdigest()
    print(f"{digest}  plan_span full clean and defended 1.0 lengths {lengths}: {len(kept)} plans")
    sha = hashlib.sha256()
    for call in batches:
        sha.update(f"call of {len(call)}\n".encode())
        for seg in call:
            sha.update(f"{len(seg)} bytes\n".encode() + seg)
    print(
        f"{sha.hexdigest()}  extract_batch full clean and defended 1.0 lengths {lengths}: "
        f"{len(batches)} calls, {sum(map(len, batches))} segments"
    )


def key_paths(doc, prefix: str = "") -> set[str]:
    """Every dict key's dotted path in ``doc``, a list's elements sharing one ``[]`` path."""
    if isinstance(doc, list):
        return set().union(*(key_paths(item, prefix + "[]") for item in doc))
    if not isinstance(doc, dict):
        return set()
    paths = set()
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        paths |= {path} | key_paths(value, path)
    return paths


def refused(argv: list[str], shown: Path) -> None:
    """Run ``argv`` and print its exit code and output digest under its command and ``shown``.

    The digest covers its stdout, then its stderr; a refused command writes
    only the error message, so a command that is not refused shows by a
    digest that changes, never by output between the digest lines.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    digest = hashlib.sha256((stdout.getvalue() + stderr.getvalue()).encode()).hexdigest()
    print(f"{digest}  {argv[0]} {shown} exit code {code}")


def attack_malformed() -> None:
    """Attack each malformed copy of trip 0, then trip 0 with each damaged model."""
    trip = "corpus/trips/trip_000.jsonl"
    lines = Path(trip).read_bytes().splitlines(keepends=True)
    Path("errors").mkdir()
    for name, rewrite in MALFORMED.items():
        path = Path("errors", f"{name}.jsonl")
        bad = rewrite(lines[399], lines[400])
        assert bad != lines[400], name
        path.write_bytes(b"".join(lines[:400] + [bad] + lines[401:]))
        refused(["attack", "--model", "model.json", "--trace", str(path)], path)
    for name, damage in DAMAGED_MODELS.items():
        path = Path("errors", f"model_{name}.json")
        doc = json.loads(Path("model.json").read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        refused(["attack", "--model", str(path), "--trace", trip], path)


def train_damaged() -> None:
    """Train on each damaged copy of the corpus; none may write a model."""
    for name, damage in DAMAGED_CORPORA.items():
        path = Path("errors", f"corpus_{name}")
        shutil.copytree("corpus", path)
        damage(path)
        out = Path("errors", f"model_from_{name}.json")
        refused(["train", "--corpus", str(path), "--out", str(out), "--config", "config.json"], path)
        assert not out.exists(), name


def main() -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code = run_commands()
            root = Path(tmp)
            print(f"bootstrap exit code {code}")
            for p in sorted(root.rglob("*")):
                if p.is_file() and p.name != "config.json":
                    digest = hashlib.sha256(p.read_bytes()).hexdigest()
                    print(f"{digest}  {p.relative_to(root)}")
            decoded_subtrips()
            for path in sorted(key_paths(json.loads(Path("model.json").read_text()))):
                print(f"model.json key {path}")
            attack_malformed()
            train_damaged()
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
