"""Command-line front end.

Subcommands mirror the library workflow: generate a corpus, train a model,
attack a trace, bootstrap a model from seed intervals, and run the
evaluation protocols. All outputs are canonical JSON (sorted keys, no
timestamps) so identical seeds produce byte-identical files.

Exit codes: 0 success, 2 usage, 3 malformed input data or an unusable path,
4 bootstrap stalled before reaching full coverage (a partial model is still
written).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import evalharness, infer, pipeline
from .model import dump_json, load_json, load_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_STALLED = 4

log = logging.getLogger("subtrace.cli")


def _setup_logging() -> None:
    level = os.environ.get("SUBTRACE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


def _emit(doc: dict, out: str | None) -> None:
    text = dump_json(doc)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> pipeline.PipelineConfig:
    if getattr(args, "config", None):
        config = load_json(args.config, pipeline.PipelineConfig.from_dict)
    else:
        config = pipeline.PipelineConfig()
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    return config


def _cmd_generate(args) -> int:
    config = _load_config(args)
    corpus = pipeline.build_corpus(config, out_dir=args.out)
    log.info("corpus written to %s", args.out)
    _emit({"corpus": args.out, "trips": len(corpus.trips), "modes": len(corpus.modes)},
          None)
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_config(args)
    corpus = pipeline.load_corpus(args.corpus)
    model = pipeline.train_attack_model(corpus, config)
    model.save(args.out)
    _emit({"model": args.out, "intervals": model.network.num_intervals}, None)
    return EXIT_OK


def _cmd_attack(args) -> int:
    model = pipeline.AttackModel.load(args.model)
    trace = load_trace(args.trace)
    report = pipeline.attack_trace(trace, model, mode=args.mode)
    _emit(report, args.out)
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    config = _load_config(args)
    corpus = pipeline.load_corpus(args.corpus)
    result, ensemble, n_sequences = evalharness.bootstrap_from_corpus(corpus, config)
    pipeline.bundle_attack_model(corpus, ensemble).save(args.out)
    report = result.report(corpus.network, threshold=config.enough_labels)
    report["sequences"] = n_sequences
    report["model"] = args.out
    _emit(report, args.report)
    if result.stalled:
        log.warning("bootstrap stalled at %.0f%% coverage", 100 * report["coverage"])
        return EXIT_STALLED
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    corpus = pipeline.load_corpus(args.corpus)
    if args.protocol == "supervised":
        report = evalharness.loo_supervised(corpus, config, args.lengths)
        doc = {
            "protocol": "supervised",
            "segmentation": evalharness.segmentation_evaluation(corpus).to_dict(),
            **report.to_dict(),
        }
    else:
        report = evalharness.semisupervised_evaluation(corpus, config, args.lengths)
        doc = {"protocol": "semisupervised", **report.to_dict()}
    _emit(doc, args.out)
    return EXIT_OK


def _lengths(text: str) -> tuple[int, ...]:
    try:
        return evalharness.check_lengths(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtrace",
        description="Accelerometer-only metro ride inference toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a corpus directory")
    p.add_argument("--out", required=True, help="corpus directory to create")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON file of config overrides")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("train", help="train an attack model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("attack", help="infer rides hidden in one trace")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", choices=infer.DECODE_MODES, default="full")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("bootstrap", help="build a model from seed intervals only")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", help="bootstrap report path (stdout when omitted)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(fn=_cmd_bootstrap)

    p = sub.add_parser("evaluate", help="run an evaluation protocol")
    p.add_argument("--corpus", required=True)
    p.add_argument("--protocol", choices=("supervised", "semisupervised"), required=True)
    p.add_argument(
        "--lengths", type=_lengths, default=evalharness.DEFAULT_LENGTHS,
        help="comma-separated subtrip lengths",
    )
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(fn=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # every format error is a ValueError; a path that cannot be read or written is an OSError
    except (ValueError, OSError) as exc:
        print(f"subtrace: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
