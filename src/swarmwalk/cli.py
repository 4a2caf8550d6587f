"""Command-line interface: run experiment sweeps, print tables, dump traces."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from swarmwalk.harness import (
    ALGORITHMS,
    ExperimentSpec,
    _read_config,
    format_table,
    read_results,
    run_experiment,
    run_single,
    write_results,
)
from swarmwalk.objectives import FUNCTION_NAMES

__all__ = ["build_parser", "cli_main", "main"]

# The config key each flag sets.  A flag for one of the cell axes sets it to
# a one-item list.
_CONFIG_KEYS = {
    "function": "functions", "algo": "algorithms", "pop": "population_sizes",
    "dim": "dimensions", "max_iter": "max_iterations", "seed": "base_seed",
    "runs": "runs_per_cell", "workers": "workers",
}
_CELL_AXES = ("functions", "algorithms", "population_sizes", "dimensions")


def _add_run_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare the flags `run` and `trace` share, with the command's defaults.

    Not argparse's `parents=`: its commands share Action objects, so one
    command's defaults would become the other's.
    """
    parser.add_argument("--function", choices=FUNCTION_NAMES,
                        help="run only this benchmark function")
    parser.add_argument("--algo", choices=ALGORITHMS, help="run only this algorithm")
    parser.add_argument("--pop", type=int, help="single population size")
    parser.add_argument("--dim", type=int, help="single dimension of sphere, rosenbrock "
                        "and rastrigin; binh4 and schaffer_n1 run 2-D and 1-D")
    parser.add_argument("--max-iter", type=int, help="iteration budget per run")
    parser.add_argument("--seed", type=int, help="base seed")
    # argparse reads a negative number in exponent form, such as "-1e-3", as
    # a flag of its own, so such a value (binh4's fitness is negative over
    # much of its box) needs the "=" form.
    parser.add_argument("--threshold", type=float,
                        help="success threshold of --function, or of every function, in place "
                             "of fitness_thresholds; a run stops once its best fitness reaches "
                             "it; a negative value in exponent form needs '=': --threshold=-1e-3")
    parser.add_argument("--out", metavar="PATH", help="output file (stdout when omitted)")
    parser.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmwalk",
        description="Benchmark harness for the random-walk particle swarm "
                    "optimizer and its inertia-weight baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment sweep")
    run.add_argument("--config", metavar="PATH",
                     help="JSON experiment config; flags override its values")
    _add_run_flags(run)
    run.add_argument("--runs", type=int, help="runs per cell")
    run.add_argument("--workers", type=int, help="parallel worker processes")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    table = sub.add_parser("table", help="pretty-print a results file")
    table.add_argument("results_path", metavar="RESULTS",
                       help="CSV or JSON results file, printed in its row order")

    trace = sub.add_parser("trace",
                           help="emit one run's best-fitness-per-iteration series")
    _add_run_flags(trace, function="sphere", algo="rwpso", pop=20, dim=10,
                   max_iter=500, seed=0)
    return parser


def _spec_from_args(args: argparse.Namespace, config: dict) -> ExperimentSpec:
    """The spec of `config` once the given flags are written into it.

    `--threshold` replaces `fitness_thresholds` with one threshold for
    `--function`, or for every function.
    """
    for flag, key in _CONFIG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            config[key] = [value] if key in _CELL_AXES else value
    if args.threshold is not None:
        config["fitness_thresholds"] = dict.fromkeys(
            FUNCTION_NAMES if args.function is None else [args.function], args.threshold)
    return ExperimentSpec.from_dict(config)


def _check_out(path) -> None:
    """Refuse an output path that cannot be written, before any run starts.

    The file itself is neither created nor truncated, so an existing
    results file survives a sweep that fails later.
    """
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    reason = OSError(code, os.strerror(code), str(path))
    raise OSError(f"cannot write results to {path}: {reason}")


def _write_out(text: str, path) -> None:
    """Write `text` to the file `path`, or to stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, _read_config(args.config) if args.config else {})
    _check_out(args.out)
    outcome = run_experiment(spec)
    # the failed cells first, so that a failed write cannot hide them
    for failure in outcome.failures:
        print(f"error: {failure}", file=sys.stderr)
    _write_out(write_results(outcome.aggregates, outcome.runs, args.format), args.out)
    return 1 if outcome.failures else 0


def _cmd_table(args: argparse.Namespace) -> int:
    sys.stdout.write(format_table(read_results(args.results_path)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, {"fitness_thresholds": {args.function: None}})
    _check_out(args.out)
    result = run_single(spec, spec.cells()[0], 0)
    # iteration 0 is the start swarm's best, so a run whose start swarm
    # already meets the threshold still has a row
    lines = ["iteration,best_fitness"]
    lines += [f"{i},{repr(float(v))}"
              for i, v in enumerate([result.initial_best_fitness, *result.trace])]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    handlers = {"run": _cmd_run, "table": _cmd_table, "trace": _cmd_trace}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
