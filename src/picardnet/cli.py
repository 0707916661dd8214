"""Command-line driver: run experiment suites and write CSV reports."""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, load_config
from .suites import _SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picardnet",
        description="Mean-field estimator / network synthesis experiments")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured master seed")
    parser.add_argument("--out", default=None,
                        help="output directory for CSV reports")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = args.out if args.out is not None else cfg.out
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = run_suite(cfg, args.suite, out_dir)
    print("PASS" if code == 0 else "FAIL")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
