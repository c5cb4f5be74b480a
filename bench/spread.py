"""Run workloads over several seeds, one process at a time, and report spreads.

For every end-to-end metric of BENCHMARK.json this prints the median, the
quartiles and the spread (interquartile distance over the median) of its
per-run values, next to the metric's bound. A spread at or above a third of
the bound, for any metric but setup_s, makes the exit code 1.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-5 --workloads evaluate-subtrips --seconds 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    summary, unsteady = {}, []
    for wl in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 2
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: incorrect run {result}", file=sys.stderr)
                return 2
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in sorted(result["metrics"].items())), flush=True)
        summary[wl] = {}
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[wl][metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "bound": metric["bound"],
                                           "values": xs}
            flag = ""
            if metric["name"] != "setup_s" and spread >= metric["bound"] / 3:
                flag = "  <- above a third of the bound"
                unsteady.append((wl, metric["name"]))
            print(f"  {wl:18} {metric['name']:12} median={med:.4g} q1={q1:.4g} q3={q3:.4g} "
                  f"spread={spread:.3f} bound={metric['bound']}{flag}")
    out = ROOT / ".bench_out" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "summary": summary}, indent=2) + "\n")
    print(f"summary: {out.relative_to(ROOT)}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
