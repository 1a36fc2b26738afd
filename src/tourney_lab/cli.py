"""Command-line entry point: run sweeps and summarize their CSV output.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    MalformedCsvError,
    SweepConfig,
    load_config_file,
    run_sweep,
    summarize,
    write_summary,
)
from .recovery import TIE_RULE

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourney-lab",
        description="Planted-ranking tournament experiments: sweeps and summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte Carlo sweep from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON sweep config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=None, help="override the worker count")
    run_p.add_argument("--out", default=None, help="override the config output path")

    sum_p = sub.add_parser("summarize", help="aggregate a sweep CSV per (n, gamma, statistic)")
    sum_p.add_argument("--in", dest="in_path", required=True, help="sweep CSV to aggregate")
    sum_p.add_argument("--out", dest="out_path", required=True, help="where to write the summary")
    return parser


def _run(args: argparse.Namespace) -> int:
    raw = load_config_file(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.out is not None:
        raw["output_path"] = args.out
    config = SweepConfig.from_dict(raw)
    result = run_sweep(config)
    print(f"wrote {result.row_count} rows to {config.output_path}")
    if EXPERIMENTS[config.experiment].prints_tie_rule:
        print(f"tie rule: {TIE_RULE}")
    return EXIT_OK


def _summarize(args: argparse.Namespace) -> int:
    summary = summarize(args.in_path)
    write_summary(summary, args.out_path)
    print(f"wrote {len(summary)} summary rows to {args.out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _summarize(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (MalformedCsvError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
