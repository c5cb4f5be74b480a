"""Print a SHA-256 digest of every output of a short run of the command line.

The run uses the six-interval configuration the CLI tests use, in a
temporary directory, through the ``subtrace`` package in this checkout's
``src``: it generates a corpus, trains a model, attacks trips 0, 1 and 5 in
full and reduced mode, bootstraps a model (printing its exit code) and
attacks with it, and runs the supervised and semisupervised evaluations.
Each output file is printed as ``sha256  path``. Then it attacks four
malformed copies of trip 0 (line 401 cut in half, given a 2-entry ``acc``,
given a ``0xff`` byte, or repeating line 400's ``t``) and prints each exit
code with a digest of the error message. Nothing is written in the
checkout. To check that a change leaves every output byte-identical, run
the script on the parent and on the change and diff what they print::

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
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subtrace import cli  # noqa: E402

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
# each malformed copy of trip 0 rewrites its line 401 (a sample line), given
# line 400 before it
T_FIELD = re.compile(rb'^\{"t": [^,]+')
MALFORMED = {
    "bad_json": lambda prev, line: line[: len(line) // 2] + b"\n",
    "acc_2_entries": lambda prev, line: re.sub(rb'("acc": \[[^,]+, [^,]+), [^\]]+\]', rb"\1]", line),
    "not_utf8": lambda prev, line: line.replace(b'"t"', b'"\xff"'),
    "repeated_t": lambda prev, line: T_FIELD.sub(T_FIELD.match(prev).group(0), line),
}


def run(argv: list[str], stdout_file: str | None = None, ok=(cli.EXIT_OK,)) -> int:
    if stdout_file:
        with open(stdout_file, "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
    else:
        code = cli.main(argv)
    if code not in ok:
        raise SystemExit(f"subtrace {' '.join(argv)} exited {code}")
    return code


def run_commands() -> int:
    """Run every command in the current directory; returns bootstrap's exit code."""
    Path("config.json").write_text(json.dumps(SMALL_CONFIG))
    cfg = ["--config", "config.json"]
    run(["generate", "--out", "corpus", *cfg], stdout_file="generate.out")
    run(["train", "--corpus", "corpus", "--out", "model.json", *cfg], stdout_file="train.out")
    for i in TRIPS:
        trace = f"corpus/trips/trip_{i:03d}.jsonl"
        for mode in ("full", "reduced"):
            out = f"attack_{mode}_{i:03d}.json"
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


def attack_malformed() -> None:
    """Attack each malformed copy of trip 0 and print its exit code and error digest."""
    lines = Path("corpus/trips/trip_000.jsonl").read_bytes().splitlines(keepends=True)
    Path("errors").mkdir()
    for name, rewrite in MALFORMED.items():
        path = Path("errors", f"{name}.jsonl")
        bad = rewrite(lines[399], lines[400])
        assert bad != lines[400], name
        path.write_bytes(b"".join(lines[:400] + [bad] + lines[401:]))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["attack", "--model", "model.json", "--trace", str(path)])
        digest = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
        print(f"{digest}  attack {path} exit code {code}")


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
            attack_malformed()
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
