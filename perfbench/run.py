"""Layered benchmark of swarmwalk: end-to-end metrics untraced, per-layer traced.

    python3 perfbench/run.py --workload rastrigin-n80-d10 --seed 0 --seconds 55 --trace 0

Run from the repository root.  Each workload is an ExperimentSpec built from
`--seed` (its `base_seed`) and handed to the program as a JSON config through
`swarmwalk.cli.cli_main(["run", ...])`, the path a user takes.  swarmwalk is a
batch optimiser driven as a closed loop by one client: passes run back to
back, with no request rate.

With `--trace 0` the run measures set-up (a fresh interpreter that imports
the package and loads the spec, several times), warms up on a tiny copy of
the workload, then repeats untraced passes for about `--seconds` seconds and
reports medians; wall times are scaled by a reference kernel timed around
each pass (see REFERENCE_PROBE_S).  With `--trace 1` it makes one untraced pass and one traced
pass, and reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the result; the line before it holds
machine facts and the sha256 of the workload's CSV, and a JSON report with
every span and every run's time is written under perfbench/out/.

Every run of every pass is checked: trace length and monotonicity, best
fitness against the trace and against a fresh evaluation of the best
position, the position inside the box, exit code 0, and the JSON output read
back through `harness.read_results` equal to the aggregates the program
returned.  All passes of one run must write the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, layer_points, patched, run_timer_points

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Each workload stresses a different layer; BENCHMARK.json says why.
WORKLOADS = {
    # Criterion-7 cell: evaluation-bound, fixed budget, both algorithms.
    "rastrigin-n80-d10": {
        "functions": ["rastrigin"], "algorithms": ["rwpso", "pso"],
        "population_sizes": [80], "dimensions": [10], "runs_per_cell": 10,
        "max_iterations": 300, "fitness_thresholds": {"rastrigin": None},
        "workers": 1,
    },
    # Largest default cell: graph-bound (N^2 D distance temporaries); runs
    # stop at the 1e-2 threshold, so run time is time to that accuracy.
    "sphere-n160-d30": {
        "functions": ["sphere"], "algorithms": ["rwpso", "pso"],
        "population_sizes": [160], "dimensions": [30], "runs_per_cell": 4,
        "max_iterations": 1000, "workers": 1,
    },
}

# Same shapes at a size that runs in well under a second; used for the
# warm-up pass and by the smoke tests.
TINY = {
    "rastrigin-n80-d10": {"population_sizes": [8], "dimensions": [3],
                          "runs_per_cell": 2, "max_iterations": 10},
    "sphere-n160-d30": {"population_sizes": [10], "dimensions": [4],
                        "runs_per_cell": 2, "max_iterations": 20},
}

SETUP_REPEATS = 7

# The speed of a shared 2-vCPU VM drifts: a fixed kernel runs 30% slower for
# seconds, and whole workloads 40% slower (or faster) for minutes.  Over ten
# seeds raw wall times spread by up to 0.39 of their median, more than any
# bound allows.  So a fixed reference kernel (reference_probe) is timed right
# before and right after every pass, and wall_s is the pass wall scaled to a
# host on which that kernel takes REFERENCE_PROBE_S (about its time on the
# Xeon VM this was written on): wall * REFERENCE_PROBE_S / probe.  Raw walls
# and probe times are in the info line.
REFERENCE_PROBE_S = 0.2
_PROBE_X = np.linspace(-5.0, 5.0, 10)
_PROBE_P = np.linspace(-1.0, 1.0, 80 * 10).reshape(80, 10)
SETUP_CODE = (
    "import sys\n"
    "import swarmwalk.cli\n"
    "from swarmwalk.harness import load_spec, make_objective\n"
    "spec = load_spec(sys.argv[1])\n"
    "for f in spec.functions:\n"
    "    for d in spec.dimensions:\n"
    "        make_objective(f, d, **spec.objective_options.get(f, {}))\n"
)

# Spans whose self time is reported; together with trace.remainder_s they
# add up to the traced wall time.
SPANS = (
    "cli.cli_main", "harness.run_experiment", "harness.run_single",
    "harness.make_objective", "harness.derive_seed", "harness.write_results",
    "rwpso.rwpso_run", "rwpso.init_state", "rwpso.rwpso_step",
    "rwpso.resolve_sigma", "graph.build_swarm_graph",
    "graph.build_distance_matrix", "graph.compute_ranks",
    "pso.pso_run", "pso.init_state", "pso.pso_step",
    "objectives.evaluate", "objectives.clamp", "results.mean_best_fitness",
)
COUNTED_SPANS = ("graph.build_distance_matrix", "objectives.evaluate",
                 "rwpso.rwpso_step", "pso.pso_step")


def workload_config(name: str, seed: int, tiny: bool = False) -> dict:
    config = {**WORKLOADS[name], "base_seed": seed}
    if tiny:
        config.update(TINY[name])
    return config


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _usage() -> tuple[float, float, int]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime,
            own.ru_minflt + kids.ru_minflt)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import swarmwalk and load the spec."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


@dataclass
class Pass:
    wall_s: float
    cpu_user_s: float
    cpu_sys_s: float
    minor_faults: int
    output_sha256: str
    output_bytes: int
    csv_sha256: str
    runs: list
    aggregates: list
    run_times: dict[str, dict[int, float]]
    attempted: int
    failed: int
    probe_s: float
    problems: list[str] = field(default_factory=list)

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * REFERENCE_PROBE_S / self.probe_s


def run_problems(spec, run) -> list[str]:
    """What is wrong with one run's record; empty when it passes every check."""
    from swarmwalk.objectives import make_objective

    objective = make_objective(run.function, run.dimension,
                               **spec.objective_options.get(run.function, {}))
    trace = np.asarray(run.trace, dtype=float)
    position = np.asarray(run.best_position, dtype=float)
    found = []
    if len(trace) != run.iterations_used:
        found.append(f"trace has {len(trace)} entries for {run.iterations_used} iterations")
    if np.any(np.diff(trace) > 0):
        found.append("best-fitness trace increases")
    if run.iterations_used and run.best_fitness != trace[-1]:
        found.append("best_fitness differs from the last trace entry")
    if position.shape != (objective.dim,) or not np.all(np.isfinite(position)):
        found.append("best_position is not a finite point of the domain")
    elif np.any(position < objective.domain.lower) or np.any(position > objective.domain.upper):
        found.append("best_position lies outside the box")
    elif objective.evaluate(position) != run.best_fitness:
        found.append("best_fitness differs from evaluating best_position")
    label = f"{run.algorithm}/{run.function}/{run.population}/{run.dimension}/{run.seed}"
    return [f"{label}: {problem}" for problem in found]


def reference_probe() -> float:
    """Seconds for a fixed numpy kernel of the kind swarmwalk runs: small-array
    calls from Python, then N^2*D distance temporaries.

    Its arrays are no larger than the workloads' own, so it leaves
    peak_rss_mb alone.
    """
    start = perf_counter()
    for i in range(12000):
        x = _PROBE_X * (1.0 + i * 1e-6)
        float(np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))
    for _ in range(100):
        diff = _PROBE_P[:, None, :] - _PROBE_P[None, :, :]
        np.sqrt(np.sum(diff * diff, axis=-1))
    return perf_counter() - start


def run_pass(config: dict, workdir: Path, tag: str, tracer=None) -> Pass:
    """One untraced (or, with `tracer`, traced) pass through the CLI, checked."""
    from swarmwalk import cli
    from swarmwalk.harness import ExperimentSpec, read_results, write_results

    spec = ExperimentSpec.from_dict(config)
    config_path = workdir / f"{tag}.config.json"
    out_path = workdir / f"{tag}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    outcomes = []
    run_times: dict[str, dict[int, float]] = {"rwpso": {}, "pso": {}}

    def capture(fn):
        def run_experiment(*args, **kwargs):
            outcomes.append(fn(*args, **kwargs))
            return outcomes[-1]
        return run_experiment

    points = [("swarmwalk.cli", "run_experiment", capture), *run_timer_points(run_times)]
    main = cli.cli_main
    if tracer is not None:
        points += layer_points(tracer)
        main = tracer.wrap("cli.cli_main", main)
    argv = ["run", "--config", str(config_path), "--format", "json", "--out", str(out_path)]

    probe = reference_probe()
    with patched(points):
        before = _usage()
        start = perf_counter()
        code = main(argv)
        wall = perf_counter() - start
        after = _usage()
    probe = (probe + reference_probe()) / 2

    expected = len(spec.cells()) * spec.runs_per_cell
    problems = [] if code == 0 else [f"exit code {code}"]  # these fail the whole pass
    runs, aggregates = [], []
    if len(outcomes) != 1:
        problems.append(f"run_experiment was called {len(outcomes)} times")
    else:
        runs, aggregates = outcomes[0].runs, outcomes[0].aggregates
        problems += outcomes[0].failures
        if len(runs) != expected:
            problems.append(f"{len(runs)} runs for {expected} expected")
    text = out_path.read_bytes() if out_path.exists() else b""
    if not text:
        problems.append("no JSON output")
    else:
        if read_results(out_path) != aggregates:
            problems.append("aggregates read back differ from those returned")
        if json.loads(text).get("runs") != [run.to_dict() for run in runs]:
            problems.append("runs read back differ from those returned")
    pass_failed = bool(problems)
    failed = expected if pass_failed else 0
    for run in runs:
        found = run_problems(spec, run)
        failed += bool(found) and not pass_failed
        problems += found

    for algorithm, times in run_times.items():
        made = sum(run.algorithm == algorithm for run in runs)
        if len(times) != made and not problems:  # failed cells return no runs
            raise RuntimeError(f"run timer saw {len(times)} {algorithm} runs of {made}")

    return Pass(
        wall_s=wall,
        cpu_user_s=after[0] - before[0],
        cpu_sys_s=after[1] - before[1],
        minor_faults=after[2] - before[2],
        output_sha256=hashlib.sha256(text).hexdigest(),
        output_bytes=len(text),
        csv_sha256=hashlib.sha256(write_results(aggregates).encode()).hexdigest(),
        runs=runs,
        aggregates=aggregates,
        run_times=run_times,
        attempted=expected,
        failed=failed,
        problems=problems,
        probe_s=probe,
    )


def iteration_metrics(aggregates) -> dict[str, float]:
    """Mean iterations per run of each algorithm, from the harness aggregates."""
    return {
        f"{algorithm}.mean_iterations": statistics.fmean(
            a.mean_iterations for a in aggregates if a.algorithm == algorithm)
        for algorithm in ("rwpso", "pso")
    }


def quality_metrics(aggregates, runs) -> dict[str, float]:
    """Seeded output quality over the cells whose function has a success threshold.

    mean_best_fitness is the geometric mean of the harness aggregate over
    those cells (for a one-cell workload, the aggregate itself).
    success_rate counts runs whose best fitness reached the function's
    default threshold, so the fixed-budget rastrigin cell, whose aggregate
    success rate is 0, has one.  Both are deterministic for a seed, but a
    10-run mean on rastrigin moves by 40% from one seed to the next, so they
    are per-layer metrics, without a bound.
    """
    from swarmwalk.harness import DEFAULT_THRESHOLDS

    def scored(entry):
        return DEFAULT_THRESHOLDS[entry.function] is not None

    metrics = {
        f"{algorithm}.mean_best_fitness": math.exp(statistics.fmean(
            math.log(a.mean_best_fitness)
            for a in aggregates if a.algorithm == algorithm and scored(a)))
        for algorithm in ("rwpso", "pso")
    }
    metrics["rwpso.success_rate"] = statistics.fmean(
        r.best_fitness <= DEFAULT_THRESHOLDS[r.function]
        for r in runs if r.algorithm == "rwpso" and scored(r))
    return metrics


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """End-to-end metrics; wall time is scaled to the reference host speed."""
    wall = statistics.median(p.scaled_wall_s for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "swarm_iters_per_s": sum(r.iterations_used for r in passes[0].runs) / wall,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    metrics.update(iteration_metrics(passes[0].aggregates))
    return metrics


def per_layer(base: Pass, traced: Pass, tracer) -> dict[str, float]:
    """Spans and counters of the traced pass; rusage of the untraced one.

    The per-run medians come from the untraced pass too.  Their spread across
    seeds (up to 0.28 of the median on a 2-vCPU VM whose speed drifts) is too
    wide for a bound, so they are not end-to-end metrics.
    """
    spans = tracer.spans
    counters = tracer.counters
    metrics = quality_metrics(base.aggregates, base.runs)
    for algorithm in ("rwpso", "pso"):
        metrics[f"{algorithm}.run_s.p50"] = statistics.median(base.run_times[algorithm].values())
    for name in SPANS:
        metrics[f"{name}.self_s"] = spans[name].self_s if name in spans else 0.0
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = spans[name].calls if name in spans else 0
    evaluate = spans.get("objectives.evaluate")
    metrics.update({
        "graph.build_distance_matrix.temp_bytes":
            counters.get("graph.build_distance_matrix.temp_bytes", 0),
        "objectives.evaluate.us_per_point":
            1e6 * evaluate.self_s / evaluate.calls if evaluate and evaluate.calls else 0.0,
        "objectives.points_evaluated":
            sum(r.population * (r.iterations_used + 1) for r in traced.runs),
        "rwpso.moved_fraction":
            counters.get("rwpso.useful_evaluations", 0) / counters.get("rwpso.evaluations", 1),
        "proc.minor_faults": base.minor_faults,
        "proc.cpu_user_s": base.cpu_user_s,
        "proc.cpu_sys_s": base.cpu_sys_s,
        "harness.output_bytes": base.output_bytes,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_frac": traced.scaled_wall_s / base.scaled_wall_s - 1.0,
        "trace.remainder_s": traced.wall_s - sum(s.self_s for s in spans.values()),
    })
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, informational record)."""
    config = workload_config(workload, seed, tiny)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    info: dict = {"workload": workload, "seed": seed, "trace": int(trace),
                  "config": config, "machine": machine_facts()}
    try:
        run_pass(workload_config(workload, seed, tiny=True), workdir, "warmup")
        if trace:
            base = run_pass(config, workdir, "base")
            tracer = Tracer()
            traced = run_pass(config, workdir, "traced", tracer)
            passes = [base, traced]
            metrics = per_layer(base, traced, tracer)
            info["spans"] = tracer.to_dict()
            info["run_samples"] = {a: len(base.run_times[a]) for a in ("rwpso", "pso")}
        else:
            (workdir / "setup.config.json").write_text(json.dumps(config), encoding="utf-8")
            setup = measure_setup(workdir / "setup.config.json", 1 if tiny else SETUP_REPEATS)
            passes = []
            start = perf_counter()
            while True:
                passes.append(run_pass(config, workdir, f"pass{len(passes)}"))
                elapsed = perf_counter() - start
                if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
                    break
            metrics = end_to_end(passes, setup)
            info["setup_s"] = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [problem for p in passes for problem in p.problems]
    if len({p.output_sha256 for p in passes}) != 1:
        problems.append("passes of one spec wrote different output")
    info.update({
        "csv_sha256": passes[0].csv_sha256,
        "output_sha256": [p.output_sha256 for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_probe_s": [p.probe_s for p in passes],
        "problems": problems[:20],
    })

    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} "
                           "are not both measured and declared in BENCHMARK.json")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed if not problems else max(failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    info["run_s"] = [p.run_times for p in passes]
    report.write_text(json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import swarmwalk.cli
    except ImportError as exc:
        print(f"error: cannot import swarmwalk from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(swarmwalk.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: swarmwalk was imported from outside {SRC}", file=sys.stderr)
        return 2

    result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": {k: v for k, v in info.items() if k not in ("spans", "run_s")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
