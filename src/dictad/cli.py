"""Command-line entry point.

Verbs: pretrain, toddler, addl, popularity, synth, eval. Parameters come
from an optional JSON config file (--config) and are overridable by flags;
both are built from and checked against experiments.PARAMS.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
A warning raised as an error exits 4 if it is a RuntimeWarning, else 3.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .errors import ConfigError, DataError, NumericalError
from .experiments import PARAMS, run_experiment

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


VERBS = {
    "pretrain": "LC-KSVD offline pretraining",
    "toddler": "semi-supervised online run (pretrain + stream)",
    "addl": "error-threshold unsupervised filter",
    "popularity": "atom-popularity unsupervised filter",
    "synth": "generate a planted-anomaly dataset CSV",
    "eval": "confusion report for a predictions file",
}


def _help(row) -> str:
    bounds = f" in {row.domain}" if isinstance(row.domain, str) else ""
    default = "" if row.default is None else f"; default {row.default}"
    return f"{row.help} ({row.type.__name__}{bounds}{default})"


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ConfigError line, not a usage dump."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dictad", description="dictionary-learning anomaly detection experiments")
    sub = ap.add_subparsers(dest="method", required=True)
    for verb, text in VERBS.items():
        p = sub.add_parser(verb, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file with experiment parameters")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        for row in (r for r in PARAMS if verb in r.verbs):
            flag = "--" + row.name.replace("_", "-")
            if row.type is bool:
                p.add_argument(flag, action="store_const", const=True, help=row.help)
            else:
                p.add_argument(flag, type=row.type, help=_help(row),
                               choices=row.domain if isinstance(row.domain, tuple) else None)
    return ap


def _collect_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if args.config:
        try:
            # JSON is UTF-8 (RFC 8259); Windows tools may start it with a byte-order mark
            with open(args.config, encoding="utf-8-sig") as f:
                params = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config}: {e.strerror}") from None
        except ValueError as e:
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from None
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("config", "out", "method")}
    # a config that is not an object is reported by run_experiment
    return {**params, **flags} if isinstance(params, dict) else params


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():  # restores showwarning; the filters stay as they are
            warnings.showwarning = _show_warning
            args = build_parser().parse_args(argv)
            result = run_experiment(args.method, _collect_params(args), args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, RuntimeWarning) as e:  # RuntimeWarning: numpy floating point
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Warning as e:  # another warning raised as an error, e.g. under -W error
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    metrics = json.dumps(result["metrics"], sort_keys=True)
    print(f"{args.method}: done in {result['wall_time_s']:.2f}s metrics={metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
