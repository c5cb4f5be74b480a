"""Benchmark of the subtrace attack, subtrip evaluation and fold training.

Runs one workload in this single process as a closed loop with one client:
the next op starts only after the previous one has been checked. Set-up runs
SETUPS times. Ops then run until their summed wall time reaches
``--seconds``. Each op's output is checked against the simulator's ground
truth outside the timed region.

Every set-up and op is timed in pieces between runs of the reference kernel
in ``speed.py``, and the reported times are scaled to that kernel's nominal
speed, because the host's own speed drifts by up to 2x. ``setup_s`` is the
median of the scaled import-plus-set-up times and ``op_p50_norm_ms`` the
median scaled op time. The record keeps the raw wall times next to them.
Traced set-ups and ops are timed in one piece, so that the kernel does not
run inside their spans.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the set-up runs once under the span tracer, ops alternate
between traced and untraced, and the last line carries the per-layer metrics.
A full record (environment, config, per-op times and output digests) is
written to ``.bench_out/`` at the repository root.

    python3 bench/run.py --workload attack-day --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload train-folds --heldout --seconds 18 --trace 1
    python3 bench/run.py --workload evaluate-subtrips --size smoke --seed 1 --seconds 5 --trace 0
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread per pool, set before numpy loads its BLAS
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A workload seed never used while the benchmark or a change is tuned; a claim
# must also hold when every workload is re-run with --heldout.
HELDOUT_SEED = 4099

SETUPS = 3
MIN_OPS = 3  # the outputs digest covers the first MIN_OPS timed ops
MIN_TRACED_OPS = 4  # two traced and two untraced
SMOKE_OPS = 2
WALL_CAP_S = 140.0  # stop starting ops after this long, to exit within 180 s

# Share of checked answers that must be right at full size. They sit well
# below what the default corpus reaches, so only a broken attack trips them;
# a smoke run has too few ops to estimate accuracy and checks only that every
# output was produced and scored.
ACCURACY_FLOOR = {"attack-day": 0.4, "evaluate-subtrips": 0.8, "train-folds": 0.8}
WORKLOAD_NAMES = ("attack-day", "evaluate-subtrips", "train-folds")
# End-to-end metrics on the last line. accuracy varies with the seed's inputs
# more than a bound allows, failed_frac reads 0, op_tail_norm_ms needs 20 ops,
# ops_per_s, the inverse mean op time, moves with single slow ops on a shared
# host, and the raw wall times drift with the host's speed, so those appear in
# the record only.
REPORTED = ("setup_s", "op_p50_norm_ms", "peak_rss_mb")
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    seed = p.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", type=int, help="workload seed")
    seed.add_argument("--heldout", action="store_true", help=f"use the held-out seed {HELDOUT_SEED}")
    p.add_argument("--seconds", type=float, required=True, help="summed op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--corpus-seed", type=int, default=None, help="default: the size's own seed")
    return p.parse_args(argv)


class Unrunnable(Exception):
    """The checkout lacks what the benchmark measures."""


def import_library():
    """Import numpy and subtrace from this checkout's src/, never from elsewhere."""
    if not (SRC / "subtrace" / "__init__.py").is_file():
        raise Unrunnable(f"bench: no subtrace sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import subtrace

    if Path(subtrace.__file__).resolve().parent != (SRC / "subtrace").resolve():
        raise Unrunnable(f"bench: subtrace imported from {subtrace.__file__}, not {SRC}")
    return numpy


def tail(ms: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(ms)
    if n < 20:
        return None
    p = max(q for q in TAIL_PERCENTILES if n * (1.0 - q / 100.0) >= 10)
    ys = sorted(ms)
    return {"value": ys[math.ceil(p / 100.0 * n) - 1], "percentile": p, "samples": n}


def environment(numpy) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": tree_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every source file."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def run(args, numpy) -> tuple[dict, dict]:
    import spans
    import speed
    import workloads

    import_s = time.perf_counter() - T_START
    load_before = os.getloadavg()
    config = workloads.make_config(args.size, args.corpus_seed)
    seed = HELDOUT_SEED if args.heldout else args.seed
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    traced_run = bool(args.trace)
    tracer = spans.Tracer() if traced_run else None
    if args.size == "smoke":
        min_ops = max_ops = SMOKE_OPS
    else:
        min_ops, max_ops = (MIN_TRACED_OPS if traced_run else MIN_OPS), 10**6
    try:
        wl = workloads.WORKLOADS[args.workload](config, seed, workdir)
        speed.reference_s()  # first calls into numpy stay out of the reference
        setups, setups_scaled = [], []
        for _ in range(1 if traced_run else SETUPS):
            meter = speed.Meter()
            meter.mark()
            with tracer.recording("setup") if traced_run else nullcontext():
                wl.setup(speed.no_mark if traced_run else meter.mark)
            meter.stop()
            setups.append(meter.raw_s)
            setups_scaled.append(meter.scaled_s)

        # op 0 warms up: first-call costs such as growing the heap stay out
        # of the timings, while its output is still checked
        ops, errors, check_errors = [], [], []
        busy = 0.0
        for i in range(max_ops + 1):
            inp = wl.prepare(i)
            traced = traced_run and i % 2 == 1
            out = None
            meter = speed.Meter()
            meter.mark()
            try:
                with tracer.recording(i) if traced else nullcontext():
                    out = wl.op(inp, speed.no_mark if traced else meter.mark)
            except Exception:
                errors.append({"op": i, "error": traceback.format_exc(limit=3)})
            meter.stop()
            dt = meter.raw_s
            rec = {"op": i, "ms": dt * 1e3, "norm_ms": meter.scaled_s * 1e3,
                   "ref_ms": [k * 1e3 for k in meter.kernel_s], "warmup": i == 0,
                   "traced": traced, "failed": out is None}
            if out is not None:
                try:
                    c = wl.check(inp, out)
                    rec.update(items=c.items, correct=c.correct, failed=c.failed, digest=c.digest)
                except Exception:
                    check_errors.append({"op": i, "error": traceback.format_exc(limit=3)})
            ops.append(rec)
            busy += 0.0 if i == 0 else dt
            if i >= min_ops and (busy >= args.seconds or time.perf_counter() - T_START > WALL_CAP_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = ops[1:]
    untraced = [o["ms"] for o in timed if not o["traced"]]
    untraced_norm = [o["norm_ms"] for o in timed if not o["traced"]]
    items = sum(o.get("items", 0) for o in ops)
    correct_items = sum(o.get("correct", 0) for o in ops)
    failed = sum(bool(o["failed"]) for o in ops)
    accuracy = correct_items / items if items else 0.0
    digest = hashlib.sha256(
        "".join(o.get("digest", "-") for o in timed[:MIN_OPS]).encode()
    ).hexdigest()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # import ran before the first kernel run; it is scaled like the set-up after it
    setup_s = statistics.median((1 + import_s / s) * n for s, n in zip(setups, setups_scaled))
    floor = ACCURACY_FLOOR[args.workload] if args.size == "full" else 0.0
    ok = not check_errors and failed == 0 and accuracy >= floor

    op_tail = tail(untraced_norm)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "setup_raw_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        "op_p50_norm_ms": {"value": statistics.median(untraced_norm), "unit": "ms"},
        "op_p50_ms": {"value": statistics.median(untraced), "unit": "ms"},
        "ops_per_s": {"value": 1e3 * len(untraced) / sum(untraced), "unit": "1/s"},
        "accuracy": {"value": accuracy, "unit": "fraction"},
        "failed_frac": {"value": failed / len(ops), "unit": "fraction"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if op_tail is not None:
        end_to_end["op_tail_norm_ms"] = {**op_tail, "unit": "ms"}
    if traced_run:
        per_layer = tracer.summary([o["norm_ms"] for o in timed if o["traced"]], untraced_norm)
        units = {m["name"]: m["unit"] for m in spans.per_layer_metrics()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: end_to_end[k] for k in REPORTED}
    result = {"correct": ok, "attempted": len(ops), "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "size": args.size,
        "workload_seed": seed,
        "heldout": args.heldout,
        "corpus_seed": config.seed,
        "config": {**config.to_dict(), "subtrip_lengths": list(workloads.SUBTRIP_LENGTHS),
                   "attack_mode": workloads.ATTACK_MODE},
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, one client, one thread",
        "environment": environment(numpy),
        "load_avg_before": load_before,
        "load_avg_after": os.getloadavg(),
        "threads_at_end": thread_count(),
        "import_s": import_s,
        "setups_s": setups,
        "setups_scaled_s": setups_scaled,
        "reference_nominal_s": speed.NOMINAL_S,
        "end_to_end": end_to_end,
        "accuracy_floor": floor,
        "items_checked": items,
        "outputs_sha256": digest,
        "outputs_sha256_ops": len(timed[:MIN_OPS]),
        "errors": errors,
        "check_errors": check_errors,
        "ops": ops,
        "result": result,
    }
    if traced_run:
        record["spans_file"] = str(write_spans(args, seed, tracer).relative_to(ROOT))
    return record, result


def write_spans(args, seed, tracer) -> Path:
    path = OUT / f"spans-{args.workload}-{args.size}-seed{seed}.json"
    path.write_text(json.dumps(tracer.dump()))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        numpy = import_library()
    except Unrunnable as exc:
        print(exc, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record, result = run(args, numpy)
    seed = record["workload_seed"]
    path = OUT / f"{args.workload}-{args.size}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    for name, m in sorted(record["end_to_end"].items()):
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"outputs_sha256: {record['outputs_sha256']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
