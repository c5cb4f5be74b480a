"""End-to-end checks for the command-line front end.

Every test drives ``cli.main`` in process with a small six-interval
configuration so the whole module stays fast. Determinism tests compare
raw output bytes between two same-seed invocations.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import subtrace
from subtrace import cli, pipeline, simgen
from subtrace.model import save_trace

SMALL_CONFIG = {
    "seed": 11,
    "num_intervals": 6,
    "n_trips": 8,
    "mode_duration": 400.0,
    "boost_rounds": 4,
    "n_trees": 12,
    "enough_labels": 6,
}


DEEP = "[" * 100000 + "]" * 100000


def _drop(key: str):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


# case -> (config document, the field its error message names)
BAD_CONFIG_VALUES = {
    "string_int": ({"n_trips": "8"}, "n_trips"),
    "float_seed": ({"seed": 1.5}, "seed"),
    "bool_int": ({"n_trees": True}, "n_trees"),
    "null_int": ({"boost_rounds": None}, "boost_rounds"),
    "zero_rate": ({"sample_rate": 0}, "sample_rate"),
    "negative_rate": ({"sample_rate": -10.0}, "sample_rate"),
    "nan_rate": ({"sample_rate": float("nan")}, "sample_rate"),
    "infinite_rate": ({"sample_rate": float("inf")}, "sample_rate"),
    "string_rate": ({"sample_rate": "10"}, "sample_rate"),
    "string_duration": ({"mode_duration": "x"}, "mode_duration"),
    "zero_duration": ({"mode_duration": 0.0}, "mode_duration"),
    "nan_duration": ({"mode_duration": float("nan")}, "mode_duration"),
    "negative_trips": ({"n_trips": -1}, "n_trips"),
    "zero_trips": ({"n_trips": 0}, "n_trips"),
    "negative_seed": ({"seed": -1}, "seed"),
    "zero_intervals": ({"num_intervals": 0}, "num_intervals"),
    "zero_trees": ({"n_trees": 0}, "n_trees"),
    "zero_boost_rounds": ({"boost_rounds": 0}, "boost_rounds"),
    "zero_labels": ({"enough_labels": 0}, "enough_labels"),
    "zero_rounds": ({"max_rounds": 0}, "max_rounds"),
}

BAD_NOISE_VALUES = {
    "string": ("hand_shake_amp", "2"),
    "nan": ("sensor_sigma", float("nan")),
    "infinite": ("defense_noise_amp", float("inf")),
    "negative": ("track_vibration_amp", -0.1),
    "bool": ("orientation_drift_rate", True),
    "null": ("hand_shake_freq", None),
}


# case -> (path of a field in the six-interval attack model, its bad value,
# what the error names); each used to load, crash or fail without a section
BAD_MODEL_FIELDS = {
    "t1 a string": (("segmenter", "t1"), "abc", ("'segmenter' section", "t1")),
    "fractional l_w": (("segmenter", "l_w"), 2.7, ("'segmenter' section", "l_w")),
    "fractional smooth_k": (
        ("ensemble", "feature_config", "smooth_k"), 2.5, ("'ensemble' section", "smooth_k")
    ),
    "negative mode window": (("mode_model", "window"), -5, ("'mode_model' section", "window")),
    "NaN feature rate": (
        ("ensemble", "feature_config", "sample_rate"), float("nan"),
        ("'ensemble' section", "sample_rate"),
    ),
    "feature rate other than the network's": (
        ("ensemble", "feature_config", "sample_rate"), 20.0,
        ("'ensemble' section (6 classes, 20 Hz)", "'network' section (6 intervals, 10 Hz)"),
    ),
    "ensemble classes other than its parts'": (
        ("ensemble", "n_classes"), 9,
        ("'ensemble' section", "n_classes 9 differs from its boost and forest's (6, 6)"),
    ),
}


def _set_field(doc: dict, path: tuple[str, ...], value) -> dict:
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


# case -> (file, damage to its decoded text); config.json is the --config file
MALFORMED_DOCUMENTS = {
    "config a list": ("config.json", lambda text: "[1]"),
    "config noise a number": ("config.json", lambda text: '{"noise": 5}'),
    "config deep nesting": ("config.json", lambda text: DEEP),
    "network deep nesting": ("network.json", lambda text: DEEP),
    "manifest deep nesting": ("manifest.json", lambda text: DEEP),
    "manifest without profiles": (
        "manifest.json", lambda text: json.dumps(_drop("profiles")(json.loads(text)))
    ),
    "profile without primitives": (
        "profiles.json",
        lambda text: json.dumps(
            {"profiles": [_drop("primitives")(p) for p in json.loads(text)["profiles"]]}
        ),
    ),
}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, cfg_file) -> str:
    out = tmp_path_factory.mktemp("corpus") / "c"
    assert cli.main(["generate", "--out", str(out), "--config", cfg_file]) == cli.EXIT_OK
    return str(out)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_dir, cfg_file) -> str:
    out = tmp_path_factory.mktemp("model") / "model.json"
    args = ["train", "--corpus", corpus_dir, "--out", str(out), "--config", cfg_file]
    assert cli.main(args) == cli.EXIT_OK
    return str(out)


class TestGenerate:
    def test_writes_loadable_corpus(self, corpus_dir):
        root = Path(corpus_dir)
        assert (root / "manifest.json").is_file()
        corpus = pipeline.load_corpus(corpus_dir)
        assert len(corpus.trips) == 8
        assert len(corpus.modes) == 4
        assert corpus.network.num_intervals == 6

    def test_stdout_summary(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "c"
        assert cli.main(["generate", "--out", str(out), "--config", cfg_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"corpus": str(out), "trips": 8, "modes": 4}

    def test_same_seed_byte_identical(self, tmp_path, cfg_file, corpus_dir):
        again = tmp_path / "again"
        assert cli.main(["generate", "--out", str(again), "--config", cfg_file]) == 0
        assert tree_bytes(again) == tree_bytes(Path(corpus_dir))

    def test_seed_flag_changes_data(self, tmp_path, cfg_file, corpus_dir):
        other = tmp_path / "other"
        args = ["generate", "--out", str(other), "--config", cfg_file, "--seed", "99"]
        assert cli.main(args) == 0
        a = (Path(corpus_dir) / "trips/trip_000.jsonl").read_bytes()
        b = (other / "trips/trip_000.jsonl").read_bytes()
        assert a != b


class TestTrain:
    def test_model_loads(self, model_file):
        model = pipeline.AttackModel.load(model_file)
        assert model.network.num_intervals == 6

    def test_stdout_summary(self, tmp_path, corpus_dir, cfg_file, capsys):
        out = tmp_path / "m.json"
        args = ["train", "--corpus", corpus_dir, "--out", str(out), "--config", cfg_file]
        assert cli.main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"model": str(out), "intervals": 6}

    def test_same_seed_byte_identical(self, tmp_path, corpus_dir, cfg_file, model_file):
        out = tmp_path / "m.json"
        args = ["train", "--corpus", corpus_dir, "--out", str(out), "--config", cfg_file]
        assert cli.main(args) == 0
        assert out.read_bytes() == Path(model_file).read_bytes()


class TestAttack:
    def test_full_trip_report(self, tmp_path, corpus_dir, model_file):
        out = tmp_path / "report.json"
        trace = str(Path(corpus_dir) / "trips/trip_000.jsonl")
        args = ["attack", "--model", model_file, "--trace", trace, "--out", str(out)]
        assert cli.main(args) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["mode"] == "full"
        assert doc["num_spans"] == 1
        span = doc["spans"][0]
        assert span["length"] == 6
        assert span["direction"] == "forward"
        assert len(span["stations"]) == 7

    def test_reduced_mode(self, corpus_dir, model_file, capsys):
        trace = str(Path(corpus_dir) / "trips/trip_001.jsonl")
        args = ["attack", "--model", model_file, "--trace", trace, "--mode", "reduced"]
        assert cli.main(args) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "reduced"
        assert doc["num_spans"] == 1

    def test_stdout_is_canonical_json(self, corpus_dir, model_file, capsys):
        trace = str(Path(corpus_dir) / "trips/trip_000.jsonl")
        assert cli.main(["attack", "--model", model_file, "--trace", trace]) == 0
        text = capsys.readouterr().out
        assert text == canonical(json.loads(text))

    def test_same_seed_byte_identical(self, tmp_path, corpus_dir, model_file):
        trace = str(Path(corpus_dir) / "trips/trip_002.jsonl")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            args = ["attack", "--model", model_file, "--trace", trace, "--out", str(out)]
            assert cli.main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBootstrap:
    def run(self, tmp_path, corpus_dir, cfg_file, tag):
        model = tmp_path / f"model_{tag}.json"
        report = tmp_path / f"report_{tag}.json"
        args = [
            "bootstrap", "--corpus", corpus_dir, "--out", str(model),
            "--report", str(report), "--config", cfg_file,
        ]
        return cli.main(args), model, report

    def test_stalls_on_small_corpus_but_writes_model(self, tmp_path, corpus_dir, cfg_file):
        # Eight trips feed only two of six interval pools past the label
        # threshold, so the bootstrap stalls and must exit 4 while still
        # leaving a usable partial model behind.
        code, model, report = self.run(tmp_path, corpus_dir, cfg_file, "x")
        assert code == cli.EXIT_STALLED
        loaded = pipeline.AttackModel.load(str(model))
        assert loaded.network.num_intervals == 6
        doc = json.loads(report.read_text())
        assert doc["stalled"] is True
        assert doc["coverage"] == pytest.approx(1 / 3)
        assert doc["sequences"] == 16
        assert doc["model"] == str(model)

    def test_same_seed_byte_identical(self, tmp_path, corpus_dir, cfg_file):
        code_a, model_a, report_a = self.run(tmp_path, corpus_dir, cfg_file, "a")
        code_b, model_b, report_b = self.run(tmp_path, corpus_dir, cfg_file, "b")
        assert code_a == code_b
        assert model_a.read_bytes() == model_b.read_bytes()
        assert report_a.read_text().replace("_a", "_b") == report_b.read_text()


class TestEvaluate:
    def test_supervised(self, tmp_path, corpus_dir, cfg_file):
        out = tmp_path / "eval.json"
        args = [
            "evaluate", "--corpus", corpus_dir, "--protocol", "supervised",
            "--lengths", "3,5", "--config", cfg_file, "--out", str(out),
        ]
        assert cli.main(args) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["protocol"] == "supervised"
        assert set(doc["accuracy_by_length"]) == {"3", "5"}
        assert doc["segmentation"]["within_one"] == 1.0
        assert out.read_text() == canonical(doc)

    def test_semisupervised(self, corpus_dir, cfg_file, capsys):
        args = [
            "evaluate", "--corpus", corpus_dir, "--protocol", "semisupervised",
            "--lengths", "3", "--config", cfg_file,
        ]
        assert cli.main(args) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "semisupervised"
        assert doc["stalled"] is True
        assert "3" in doc["accuracy_by_length"]

    def test_bad_lengths_is_data_error(self, corpus_dir, cfg_file, capsys):
        args = [
            "evaluate", "--corpus", corpus_dir, "--protocol", "supervised",
            "--lengths", "3,five", "--config", cfg_file,
        ]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("subtrace:")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["generate"],
            ["attack", "--model", "m", "--trace", "t", "--mode", "sideways"],
            ["evaluate", "--corpus", "c", "--protocol", "psychic"],
        ],
    )
    def test_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE


class TestDataErrors:
    def test_train_on_non_corpus_dir(self, tmp_path, capsys):
        args = ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.json")]
        assert cli.main(args) == cli.EXIT_DATA
        assert "manifest.json" in capsys.readouterr().err

    def test_attack_missing_model(self, tmp_path, corpus_dir, capsys):
        trace = str(Path(corpus_dir) / "trips/trip_000.jsonl")
        args = ["attack", "--model", str(tmp_path / "nope.json"), "--trace", trace]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("subtrace:")

    def test_attack_garbage_trace(self, tmp_path, model_file, capsys):
        trace = tmp_path / "junk.jsonl"
        trace.write_text("this is not a trace\n")
        args = ["attack", "--model", model_file, "--trace", str(trace)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("subtrace:")

    def test_attack_non_finite_trace(self, tmp_path, corpus_dir, model_file, capsys):
        lines = (Path(corpus_dir) / "trips/trip_000.jsonl").read_text().splitlines()
        row = json.loads(lines[500])
        row["acc"][2] = float("nan")
        lines[500] = json.dumps(row)
        trace = tmp_path / "nan.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        args = ["attack", "--model", model_file, "--trace", str(trace)]
        assert cli.main(args) == cli.EXIT_DATA
        # the sample at offset 499 sits on line 501, after the meta line
        assert "nan.jsonl:501: non-finite acc value\n" in capsys.readouterr().err

    def test_attack_other_sample_rate(self, tmp_path, model_file, capsys):
        noise = pipeline.PipelineConfig().noise
        walk = simgen.gen_other_mode("walk", 120.0, noise, seed=9, sample_rate=20.0)
        trace = tmp_path / "walk20.jsonl"
        save_trace(walk, trace)
        args = ["attack", "--model", model_file, "--trace", str(trace)]
        assert cli.main(args) == cli.EXIT_DATA
        assert "rate 20 Hz differs from the model's 10 Hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, lineno",
        [
            ("5", 4),
            ('{"meta": 5}', 1),
            ('{"truth": [{"start": 0.0, "label": "metro"}]}', 4),
            ('{"t": 1%s, "acc": [0, 0, 0], "orient": [0, 0, 0]}' % ("0" * 400), 4),
            ("[" * 100000 + "]" * 100000, 4),
        ],
        ids=["bare number", "meta not an object", "truth without end", "huge t", "deep nesting"],
    )
    def test_attack_malformed_trace_names_line(
        self, tmp_path, corpus_dir, model_file, capsys, bad, lineno
    ):
        lines = (Path(corpus_dir) / "trips/trip_000.jsonl").read_text().splitlines()[:3]
        if lineno == 1:
            lines[0] = bad
        else:
            lines.append(bad)
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        args = ["attack", "--model", model_file, "--trace", str(trace)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"subtrace: bad.jsonl:{lineno}: ")

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "segmenter"}, "'segmenter' section"),
            (lambda doc: {**doc, "ensemble": {**doc["ensemble"], "forest": 5}}, "'ensemble' section"),
            (lambda doc: [doc], "not a version-1 attack model document"),
        ],
        ids=["no segmenter", "forest a number", "top-level list"],
    )
    def test_attack_malformed_model(self, tmp_path, corpus_dir, model_file, capsys, damage, named):
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(damage(json.loads(Path(model_file).read_text()))))
        self._attack_with_model(model, corpus_dir, named, capsys)

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_FIELDS))
    def test_attack_model_bad_field(self, tmp_path, corpus_dir, model_file, capsys, case):
        path, value, named = BAD_MODEL_FIELDS[case]
        doc = _set_field(json.loads(Path(model_file).read_text()), path, value)
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(doc))
        trace = str(Path(corpus_dir) / "trips/trip_000.jsonl")
        assert cli.main(["attack", "--model", str(model), "--trace", trace]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert all(part in err for part in named), err

    def test_attack_model_classes_other_than_the_network(
        self, tmp_path, corpus_dir, model_file, capsys
    ):
        doc = json.loads(Path(model_file).read_text())
        for path in (("n_classes",), ("boost", "n_classes"), ("forest", "n_classes")):
            _set_field(doc["ensemble"], path, 9)
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(doc))
        named = "'ensemble' section (9 classes, 10 Hz) does not fit its 'network' section"
        self._attack_with_model(model, corpus_dir, named, capsys)

    def test_attack_deeply_nested_model(self, tmp_path, corpus_dir, capsys):
        model = tmp_path / "deep_model.json"
        model.write_text("[" * 100000 + "]" * 100000)
        self._attack_with_model(model, corpus_dir, "nested too deeply", capsys)

    @staticmethod
    def _attack_with_model(model, corpus_dir, named, capsys):
        trace = str(Path(corpus_dir) / "trips/trip_000.jsonl")
        args = ["attack", "--model", str(model), "--trace", trace]
        assert cli.main(args) == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [-10.0, float("nan")], ids=["negative", "nan"])
    def test_attack_bad_declared_rate(self, tmp_path, corpus_dir, model_file, capsys, rate):
        lines = (Path(corpus_dir) / "trips/trip_000.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        meta["meta"]["sample_rate"] = rate
        lines[0] = json.dumps(meta)
        trace = tmp_path / "rate.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        args = ["attack", "--model", model_file, "--trace", str(trace)]
        assert cli.main(args) == cli.EXIT_DATA
        assert "is negative or not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document_names_file(self, tmp_path, corpus_dir, cfg_file, capsys, case):
        name, damage = MALFORMED_DOCUMENTS[case]
        corpus = tmp_path / "c"
        shutil.copytree(corpus_dir, corpus)
        config = tmp_path / "config.json"
        shutil.copy(cfg_file, config)
        target = config if name == "config.json" else corpus / name
        target.write_text(damage(target.read_text()))
        args = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
                "--config", str(config)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"subtrace: {name}: ")

    def test_generate_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        args = ["generate", "--out", str(tmp_path / "c"), "--config", str(cfg)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("subtrace:")

    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
    def test_generate_bad_config_value_names_field(self, tmp_path, capsys, case):
        doc, field = BAD_CONFIG_VALUES[case]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        args = ["generate", "--out", str(tmp_path / "c"), "--config", str(cfg)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"subtrace: config field {field} ")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("case", sorted(BAD_NOISE_VALUES))
    def test_generate_bad_noise_value_names_field(self, tmp_path, capsys, case):
        field, value = BAD_NOISE_VALUES[case]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"noise": {field: value}}))
        args = ["generate", "--out", str(tmp_path / "c"), "--config", str(cfg)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"subtrace: noise field {field} ")
        assert not (tmp_path / "c").exists()

    def test_generate_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        args = ["generate", "--out", str(tmp_path / "c"), "--config", str(cfg)]
        assert cli.main(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("subtrace:")


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["subtrace", "subtrace.cli"])
    def test_help_runs_without_runpy_warning(self, module):
        src = str(Path(subtrace.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: subtrace")
        assert "RuntimeWarning" not in done.stderr
