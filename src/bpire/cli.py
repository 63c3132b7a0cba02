"""Command-line experiment runner.

One experiment per invocation: `bpire <experiment> --config FILE`.  Exit
codes: 0 all metrics pass, 1 a metric failed, 2 the standing condition is
violated, 3 the config could not be parsed or validated, its output
directory could not be created (checked before the run starts), an
estimator got too few replicas, an offspring moment series did not converge
within its iteration cap (a law with a huge spread, such as geometric0:1e-7,
where E[m^kappa] < 1 still holds) or does not fit in float64, the power
iteration of `oracle` did not converge, or the results could not be written
there, 4 a sampled value exceeded the 2^62 guard of the int64 samplers, a
survival level is not reached below 2^62, found before sampling, or a
binomial x-fold sum of the exact kernel has x n >= 2^62 trials, 5 the run
ran out of memory or a worker process died.
"""

from __future__ import annotations

import argparse
import os
import sys
# BrokenProcessPool's base: importing it skips multiprocessing
from concurrent.futures import BrokenExecutor

from .config import EXPERIMENTS, load_config
from .errors import BpireError, NotSubcritical, ParseError, ValidationError
from .experiments import emit_report, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpire",
        description="Tail-asymptotics experiments for branching processes "
        "with immigration in a random environment.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_line in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--workers", type=int, default=None, help="worker processes")
        sp.add_argument("--out", default=None, help="output directory for reports")
    return parser


def _metric_line(m: dict) -> str:
    theory = "-" if m["theory"] is None else f"{m['theory']:.6g}"
    verdict = "pass" if m["pass"] else "FAIL"
    return (
        f"{m['name']}: estimate={m['estimate']:.6g} theory={theory} "
        f"tolerance={m['tolerance']:.3g} ({m['kind']}) -> {verdict}"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.experiment, seed=args.seed, workers=args.workers, out_dir=args.out)
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    try:
        report = run_experiment(cfg)
    except NotSubcritical as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2
    except BpireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory; lower replicas or workers", file=sys.stderr)
        return 5
    except BrokenExecutor as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 5

    try:
        files = emit_report(report, cfg.out_dir)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    for m in report.metrics:
        print(_metric_line(m))
    print(f"wrote {len(files)} files to {cfg.out_dir}")
    if report.passed:
        print("PASS")
        return 0
    if cfg.experiment == "check":
        print("FAIL (standing condition violated)")
        return 2
    print("FAIL")
    return 1


if __name__ == "__main__":
    sys.exit(main())
