"""Command-line entry point.

    adgnn <subcommand> [--config file.json] [--out path]
                       [--seed N | --seeds 0,1,2] [--format csv|json]

Subcommands map one-to-one onto the experiment drivers.  The JSON config
file supplies driver parameters (and optionally "seeds"); command-line
seed flags override it.  Exit codes: 0 success, 2 configuration error,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .drivers import KINDS, ExperimentSpec, execute, format_table

_CONFIG_ERROR = 2
_RUNTIME_ERROR = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adgnn",
        description="Adaptive-depth GNN experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (kind.replace("_", "-") for kind in KINDS):
        p = sub.add_parser(name, help=f"run the {name} driver")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with driver parameters")
        p.add_argument("--out", type=Path, default=None,
                       help="output file (dataset directory for generate)")
        seeds = p.add_mutually_exclusive_group()
        seeds.add_argument("--seed", type=int, default=None,
                           help="single seed (overrides config)")
        seeds.add_argument("--seeds", type=str, default=None,
                           help="comma-separated seed list (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       dest="output_format", help="result table format")
    return parser


def _parse_seeds(args, config: dict) -> tuple[int, ...]:
    """The seeds a run asked for, or () for the driver's defaults.  A seed
    list that names no seed is an error, not a request for the defaults."""
    if args.seeds is not None:
        source = "--seeds"
        try:
            seeds = tuple(int(tok) for tok in args.seeds.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"--seeds must be comma-separated integers, got "
                             f"{args.seeds!r}") from None
    elif args.seed is not None:
        return (args.seed,)
    elif "seeds" in config:
        source = 'config "seeds"'
        seeds = config["seeds"]
        # bool is a subclass of int, and JSON true must not run seed 1
        if not isinstance(seeds, list) or any(type(s) is not int for s in seeds):
            raise ValueError(f'config "seeds" must be a list of integers, got '
                             f'{seeds!r}')
        seeds = tuple(seeds)
    else:
        return ()
    if not seeds:
        raise ValueError(f"{source} names no seed")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize unknown input to 2
        return _CONFIG_ERROR if exc.code not in (0, None) else 0

    config: dict = {}
    if args.config is not None:
        if not args.config.is_file():
            print(f"error: config file not found: {args.config}",
                  file=sys.stderr)
            return _CONFIG_ERROR
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"error: invalid JSON in {args.config}: {exc}",
                  file=sys.stderr)
            return _CONFIG_ERROR
        if not isinstance(config, dict):
            print(f"error: config root must be a JSON object: {args.config}",
                  file=sys.stderr)
            return _CONFIG_ERROR

    try:
        seeds = _parse_seeds(args, config)
        parameters = {k: v for k, v in config.items() if k != "seeds"}
        spec = ExperimentSpec(
            kind=args.command.replace("-", "_"),
            parameters=parameters,
            out=args.out,
            seeds=seeds,
            output_format=args.output_format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR

    try:
        header, rows = execute(spec)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - boundary: report, don't crash
        print(f"runtime failure: {exc}", file=sys.stderr)
        return _RUNTIME_ERROR

    if spec.out is None:
        sys.stdout.write(format_table(header, rows, spec.output_format))
    else:
        print(f"wrote {spec.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
