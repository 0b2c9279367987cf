"""Command-line interface: measure, analyze, plot and run-all subcommands."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .config import RunConfig, apply_overrides, load_config
from .pipeline import run_analyze, run_measure, run_plot

EXIT_OK = 0
EXIT_PARTIAL = 2

log = logging.getLogger("morphcomplex")


def _add_options(parser: argparse.ArgumentParser, measures: bool):
    """``--config`` and ``--out``, plus the run overrides when the command measures."""
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", help="override the output directory")
    if measures:
        parser.add_argument("--seed", help="override the run seed")
        parser.add_argument("--jobs", help="worker processes for the measure stage")
        parser.add_argument("--target-tokens", help="override sample size")
        parser.add_argument("--repetitions", help="override repetition count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphcomplex",
        description="Morphological complexity measures over CoNLL-U treebanks",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("measure", "sample treebanks and compute all measures"),
        ("analyze", "correlations, PCA and WALS regression over measure output"),
        ("plot", "render SVG figures from analysis output"),
        ("run-all", "measure, analyze and plot in sequence"),
    ):
        _add_options(sub.add_parser(name, help=help_text), name in ("measure", "run-all"))
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in names}
    return apply_overrides(load_config(args.config), **overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    status = EXIT_OK
    try:
        config = _load(args)
        if args.command in ("measure", "run-all"):
            outcomes = run_measure(config)
            n_failed = sum(bool(o.error) for o in outcomes)
            if n_failed:
                status = EXIT_PARTIAL
            log.info(
                "measure stage: %d ok, %d failed; outputs in %s",
                len(outcomes) - n_failed,
                n_failed,
                config.out,
            )
        if args.command in ("analyze", "run-all"):
            run_analyze(config.out, config)
        if args.command in ("plot", "run-all"):
            written = run_plot(config.out)
            log.info("plot stage: wrote %s", ", ".join(written))
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
