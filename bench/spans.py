"""In-memory span tracer that wraps ``subtrace`` layer functions from outside.

While a recording is open, each listed function is replaced at every
``subtrace`` module attribute that names it (``pipeline`` and ``evalharness``
import names directly, ``infer`` imports ``extract_features`` at call time,
which reads the patched ``features`` attribute). Each call becomes a span:
name, start, end, parent span and op id. Spans stay in memory and are written
out once at the end of the run. A few hot functions are only counted.

A span's self time is its duration minus its direct children's durations and
minus the tracer's own bookkeeping done for those children, so for every op
the layers' self times, the benchmark glue (the op root span's self time) and
the bookkeeping add up to the op's wall time.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PKG = "subtrace"


# (module, attribute path, count names, counter) for every layer that gets a
# span; the counter maps a call's arguments and result to the counts' values
LAYERS = (
    ("model", "load_trace", ("model.load_trace.samples",), lambda a, r: (r.n_samples,)),
    ("model", "save_trace", (), None),
    ("simgen", "gen_mixed_day", (), None),
    ("pipeline", "build_corpus", (), None),
    ("pipeline", "train_attack_model", (), None),
    ("pipeline", "attack_trace", (), None),
    ("pipeline", "interval_training_rows", (), None),
    ("pipeline", "train_ensemble_on", (), None),
    ("coord", "transform", ("coord.transform.samples",), lambda a, r: (a[0].n_samples,)),
    ("extract", "extract_spans", ("extract.spans_found",), lambda a, r: (len(r),)),
    ("segment", "find_final_segment_points", (), None),
    ("features", "extract_features", ("features.extract_features.samples",),
     lambda a, r: (len(a[0]),)),
    ("features", "fit_nvht_thresholds", (), None),
    ("classify", "IntervalEnsemble.predict_matrix", ("classify.predict_matrix.rows",),
     lambda a, r: (len(r),)),
    ("classify", "train_adaboost_nb", (), None),
    ("classify", "train_random_forest", ("classify.tree_nodes",),
     lambda a, r: (sum(len(t["feature"]) for t in r.trees),)),
    ("infer", "infer_with_segment_tolerance", (), None),
    ("infer", "rank_hypotheses", (), None),
    ("evalharness", "evaluate_subtrips", (), None),
    ("evalharness", "predict_subtrip", (), None),
)

# called too often for a span each; only their calls are counted
COUNTED = (("segment", "find_seg_points"), ("infer", "score_run"))

# layers whose work happens in set-up; reported per set-up, not per op
SETUP_LAYERS = (
    "pipeline.build_corpus",
    "pipeline.train_attack_model",
    "pipeline.train_ensemble_on",
    "model.save_trace",
    "simgen.gen_mixed_day",
    "coord.transform",
    "features.extract_features",
    "features.fit_nvht_thresholds",
    "classify.train_adaboost_nb",
    "classify.train_random_forest",
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def segment_key(segment) -> bytes:
    """Identity of a segment's content: its shape and raw float bytes."""
    h = hashlib.blake2b(repr(segment.shape).encode(), digest_size=16)
    h.update(segment.tobytes())
    return h.digest()


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []

    def add(name, unit, better="lower"):
        out.append({"name": name, "unit": unit, "better": better})

    for module, attr, count_names, _ in LAYERS:
        name = layer_name(module, attr)
        add(f"{name}.calls", "count")
        add(f"{name}.self_s", "s")
        for c in count_names:
            add(c, "count")
        if name == "features.extract_features":
            add("features.distinct_frac", "fraction", "higher")
    for module, attr in COUNTED:
        add(f"{layer_name(module, attr)}.calls", "count")
    add("segment.escalation_scans", "count")
    for name in ("op_wall_s", "layers_self_s", "glue_s", "tracer_s"):
        add(f"bench.{name}", "s")
    add("bench.traced_ops", "count", "higher")
    add("bench.op_p50_ms_traced", "ms")
    add("bench.op_p50_ms_untraced", "ms")
    add("bench.trace_overhead_frac", "fraction")
    add("setup.wall_s", "s")
    add("setup.glue_s", "s")
    for name in SETUP_LAYERS:
        add(f"setup.{name}.calls", "count")
        add(f"setup.{name}.self_s", "s")
    return out


class Tracer:
    """Records spans while a recording is open; patches nothing otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, bookkeeping_s]
        self.stack: list[int] = []
        self.op = None
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.keys: dict = defaultdict(list)  # op -> segment keys, in call order
        self._patches = self._plan()

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every place a layer is named."""
        for sub in {m for m, *_ in LAYERS} | {m for m, _ in COUNTED}:
            importlib.import_module(f"{PKG}.{sub}")
        modules = [m for n, m in list(sys.modules.items()) if n == PKG or n.startswith(PKG + ".")]
        plan = []
        targets = [(m, a, n, c, True) for m, a, n, c in LAYERS]
        targets += [(m, a, (), None, False) for m, a in COUNTED]
        for module, attr, count_names, counter, span in targets:
            owner = sys.modules[f"{PKG}.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            name = layer_name(module, attr)
            wrapper = self._wrap(name, orig, count_names, counter) if span else self._count(name, orig)
            if path:  # a method: patch the class only
                plan.append((owner, leaf, orig, wrapper))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        plan.append((mod, key, orig, wrapper))
        return plan

    def _wrap(self, name, fn, count_names, counter):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        keyed = name == "features.extract_features"

        def wrapper(*args, **kwargs):
            me = len(spans)
            rec = [name, 0.0, 0.0, stack[-1], self.op, 0.0]
            spans.append(rec)
            stack.append(me)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            counts = self.counts[self.op]
            counts[f"{name}.calls"] += 1
            if counter is not None:
                t0 = perf()
                for k, v in zip(count_names, counter(args, result)):
                    counts[k] += v
                if keyed:
                    self.keys[self.op].append(segment_key(args[0]))
                spans[stack[-1]][5] += perf() - t0
            return result

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.op][f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def recording(self, op):
        """Patch every layer, open the op's root span, and undo both on exit."""
        self.op = op
        root = len(self.spans)
        rec = ["bench.setup" if op == "setup" else "bench.op", 0.0, 0.0, -1, op, 0.0]
        self.spans.append(rec)
        self.stack.append(root)
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            for owner, key, orig, _ in self._patches:
                setattr(owner, key, orig)
            self.stack.pop()
            self.op = None

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] - book for i, (_, start, end, _, _, book) in enumerate(self.spans)]

    def summary(self, traced_ms: list[float], untraced_ms: list[float]) -> dict:
        """Per-layer metrics: means per traced op, and totals of the traced set-up."""
        ops = sorted({rec[4] for rec in self.spans} - {"setup"})
        n_ops = max(len(ops), 1)
        self_s = {"op": defaultdict(float), "setup": defaultdict(float)}
        wall = {"op": 0.0, "setup": 0.0}
        tracer = {"op": 0.0, "setup": 0.0}
        for (name, start, end, parent, op, book), st in zip(self.spans, self.self_times()):
            phase = "setup" if op == "setup" else "op"
            self_s[phase][name] += st
            tracer[phase] += book
            if parent < 0:
                wall[phase] += end - start
        counts: dict = defaultdict(float)
        for op in ops:
            for k, v in self.counts[op].items():
                counts[k] += v
        keys = [k for op in ops for k in self.keys[op]]

        values = {}
        for m in per_layer_metrics():
            name = m["name"]
            if name.endswith(".self_s"):
                values[name] = self_s["op"][name[: -len(".self_s")]] / n_ops
            else:
                values[name] = counts[name] / n_ops
        values["features.distinct_frac"] = len(set(keys)) / len(keys) if keys else 0.0
        values["segment.escalation_scans"] = (
            counts["segment.find_seg_points.calls"]
            - counts["segment.find_final_segment_points.calls"]
        ) / n_ops
        glue = self_s["op"]["bench.op"]
        values["bench.op_wall_s"] = wall["op"] / n_ops
        values["bench.layers_self_s"] = (wall["op"] - glue - tracer["op"]) / n_ops
        values["bench.glue_s"] = glue / n_ops
        values["bench.tracer_s"] = tracer["op"] / n_ops
        values["bench.traced_ops"] = float(len(ops))
        p50_t, p50_u = _median(traced_ms), _median(untraced_ms)
        values["bench.op_p50_ms_traced"] = p50_t
        values["bench.op_p50_ms_untraced"] = p50_u
        values["bench.trace_overhead_frac"] = (p50_t - p50_u) / p50_u if p50_u else 0.0
        values["setup.wall_s"] = wall["setup"]
        values["setup.glue_s"] = self_s["setup"]["bench.setup"]
        for name in SETUP_LAYERS:
            values[f"setup.{name}.calls"] = self.counts["setup"][f"{name}.calls"]
            values[f"setup.{name}.self_s"] = self_s["setup"][name]
        return values

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "tracer_s": b}
            for n, s, e, p, op, b in self.spans
        ]


def _median(xs: list[float]) -> float:
    if not xs:
        return 0.0
    ys = sorted(xs)
    mid = len(ys) // 2
    return ys[mid] if len(ys) % 2 else 0.5 * (ys[mid - 1] + ys[mid])
