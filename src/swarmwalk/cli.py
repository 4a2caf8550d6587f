"""Command-line interface: run experiment sweeps, print tables, dump traces."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from swarmwalk.harness import (
    ALGORITHMS,
    ExperimentSpec,
    _write_text,
    format_table,
    load_spec,
    read_results,
    run_experiment,
    run_single,
    write_results,
)
from swarmwalk.objectives import FUNCTION_NAMES

__all__ = ["build_parser", "cli_main", "main"]

# argparse reads a negative number in exponent form, such as "-1e-3", as a
# flag of its own, so such a value (binh4's fitness is negative over much of
# its box) needs the "=" form.
_NEGATIVE_THRESHOLD_HELP = "a negative value in exponent form needs '=', as in --threshold=-1e-3"


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
    run.add_argument("--function", choices=FUNCTION_NAMES,
                     help="restrict the sweep to one benchmark function")
    run.add_argument("--algo", choices=ALGORITHMS,
                     help="restrict the sweep to one algorithm")
    run.add_argument("--pop", type=int, help="single population size")
    run.add_argument("--dim", type=int, help="single dimension")
    run.add_argument("--runs", type=int, help="runs per cell")
    run.add_argument("--max-iter", type=int, help="iteration budget per run")
    run.add_argument("--seed", type=int, help="base seed for the sweep")
    run.add_argument("--threshold", type=float,
                     help="success threshold applied to every selected function; "
                          f"{_NEGATIVE_THRESHOLD_HELP}")
    run.add_argument("--workers", type=int, help="parallel worker processes")
    run.add_argument("--out", metavar="PATH",
                     help="output file (stdout when omitted)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    table = sub.add_parser("table", help="pretty-print a results file")
    table.add_argument("results_path", metavar="RESULTS",
                       help="CSV or JSON results file, printed in its row order")

    trace = sub.add_parser("trace",
                           help="emit one run's best-fitness-per-iteration series")
    trace.add_argument("--algo", choices=ALGORITHMS, default="rwpso")
    trace.add_argument("--function", choices=FUNCTION_NAMES, default="sphere")
    trace.add_argument("--pop", type=int, default=20)
    trace.add_argument("--dim", type=int, default=10)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--max-iter", type=int, default=500)
    trace.add_argument("--threshold", type=float,
                       help=f"stop once the best fitness reaches it; {_NEGATIVE_THRESHOLD_HELP}")
    trace.add_argument("--out", metavar="PATH",
                       help="output file (stdout when omitted)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_spec(args.config) if args.config else ExperimentSpec()
    overrides: dict = {}
    if args.function is not None:
        overrides["functions"] = (args.function,)
    if args.algo is not None:
        overrides["algorithms"] = (args.algo,)
    if args.pop is not None:
        overrides["population_sizes"] = (args.pop,)
    if args.dim is not None:
        overrides["dimensions"] = (args.dim,)
    if args.runs is not None:
        overrides["runs_per_cell"] = args.runs
    if args.max_iter is not None:
        overrides["max_iterations"] = args.max_iter
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.threshold is not None:
        thresholds = dict(spec.fitness_thresholds)
        selected = overrides.get("functions", spec.functions)
        for function in selected:
            thresholds[function] = args.threshold
        overrides["fitness_thresholds"] = thresholds
    return replace(spec, **overrides) if overrides else spec


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
    else:
        return
    reason = OSError(code, os.strerror(code), str(path))
    raise OSError(f"cannot write results to {path}: {reason}")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    _check_out(args.out)
    outcome = run_experiment(spec)
    text = write_results(outcome.aggregates, outcome.runs, args.out, args.format)
    if args.out is None:
        sys.stdout.write(text)
    for failure in outcome.failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if outcome.failures else 0


def _cmd_table(args: argparse.Namespace) -> int:
    sys.stdout.write(format_table(read_results(args.results_path)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        functions=(args.function,),
        algorithms=(args.algo,),
        population_sizes=(args.pop,),
        dimensions=(args.dim,),
        runs_per_cell=1,
        max_iterations=args.max_iter,
        base_seed=args.seed,
        fitness_thresholds={args.function: args.threshold},
    )
    _check_out(args.out)
    result = run_single(spec, args.algo, args.function, args.pop, args.dim, 0)
    # iteration 0 is the start swarm's best, so a run whose start swarm
    # already meets the threshold still has a row
    lines = ["iteration,best_fitness"]
    lines += [f"{i},{repr(float(v))}"
              for i, v in enumerate([result.initial_best_fitness, *result.trace])]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
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
