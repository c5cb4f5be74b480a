"""The benchmark tracer still names real library functions and the metrics BENCHMARK.json lists.

``bench/spans.py`` patches ``subtrace`` functions by module and attribute
name, so a library rename breaks the traced benchmark. Building its
``Tracer`` resolves every such name; nothing is patched until a recording
opens, and nothing under ``bench/`` is written.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer(spans):
    # a name that no longer exists raises AttributeError here
    tracer = spans.Tracer()
    # and every traced or counted function has at least one place to patch
    originals = {id(orig) for _, _, orig, _ in tracer._patches}
    assert len(originals) == len(spans.LAYERS) + len(spans.COUNTED)


def test_per_layer_metrics_are_benchmark_jsons(spans):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert spans.per_layer_metrics() == declared
