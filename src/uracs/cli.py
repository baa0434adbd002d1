"""Command-line entry point: ura siso|mimo|predict --config FILE [...].

The BLAS runs on one thread unless the user says otherwise: each of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS that is unset is set
to 1 before numpy is first imported (the BLAS reads them then), so that
NNLS's bits at large n do not depend on the core count. Worker processes
inherit the setting."""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

# imported after the thread default, since they import numpy
from .errors import ConfigError, ResourceRefusalError  # noqa: E402
from .harness import load_config, run_experiment  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ura",
        description="Unsourced random access link simulations and predictors; "
                    "emits CSV to --out or stdout.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, blurb in (("siso", "scalar-channel Monte Carlo"),
                        ("mimo", "block-fading MIMO Monte Carlo"),
                        ("predict", "closed-form complexity predictors")):
        s = sub.add_parser(name, help=blurb)
        s.add_argument("--config", required=True, help="JSON config file")
        s.add_argument("--out", help="output CSV path (default: stdout)")
        s.add_argument("--seed", type=int, dest="master_seed",
                       help="override master_seed")
        s.add_argument("--trials", type=int, help="override trial count")
        s.add_argument("--workers", type=int, help="override worker count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each override replaces its config key before the config is validated
    overrides = {key: getattr(args, key) for key in
                 ("out", "master_seed", "trials", "workers")
                 if getattr(args, key) is not None}
    try:
        cfg = load_config(args.config, **overrides)
        if cfg.scenario != args.scenario:
            raise ConfigError(f"scenario: config says {cfg.scenario!r} but the "
                              f"command is {args.scenario!r}")
        text = run_experiment(cfg)
        if not cfg.out:
            sys.stdout.write(text)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ResourceRefusalError as e:
        print(f"resource refusal: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
