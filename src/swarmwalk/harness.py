"""Experiment sweeps: seeded runs, per-cell aggregates, CSV/JSON output.

A sweep is the full factorial product algorithm x function x population x
dimension.  Every run's seed derives from a stable hash of the base seed and
its cell coordinates, so any row of the output can be re-created in
isolation, and the whole output is a pure function of the experiment spec
regardless of worker parallelism.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from swarmwalk.objectives import FUNCTION_NAMES, make_objective
from swarmwalk.pso import pso_run
from swarmwalk.results import (AggregateStats, RunConfig, RunResult, _is_finite_real,
                               check_field_types)
from swarmwalk.rwpso import RwpsoConfig, rwpso_run

__all__ = [
    "ALGORITHMS",
    "DEFAULT_THRESHOLDS",
    "RWPSO_TUNING",
    "CSV_COLUMNS",
    "ExperimentSpec",
    "ExperimentOutcome",
    "derive_seed",
    "run_single",
    "run_cell",
    "run_experiment",
    "write_results",
    "read_results",
    "format_table",
]

ALGORITHMS = ("rwpso", "pso")

# Per-function success thresholds on the best-so-far fitness.  The two
# scalarized two-objective functions run for the fixed iteration budget
# instead (no threshold).
DEFAULT_THRESHOLDS: dict[str, float | None] = {
    "sphere": 1e-2,
    "rosenbrock": 100.0,
    "rastrigin": 50.0,
    "binh4": None,
    "schaffer_n1": None,
}

# The walker's fixed per-function tuning, under `rwpso_options`.  On
# rastrigin the walker does best when its noise factor sits just under the
# settling edge, so the swarm keeps basin-hopping for most of the budget and
# still collapses before it ends; the global defaults favor unimodal
# refinement instead.  PSO runs its textbook constants on every function.
RWPSO_TUNING: dict[str, dict] = {"rastrigin": {"gaussian_sigma": 0.52}}

CSV_COLUMNS = tuple(f.name for f in fields(AggregateStats))

Cell = tuple[str, str, int, int]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs; fully expressible as a JSON config file.

    `rwpso_options` overrides the walker's config defaults (anything except
    swarm size, dimension, iteration budget, threshold and seed, which the
    sweep owns) and wins over its fixed per-function tuning, `RWPSO_TUNING`;
    PSO has no options, as it runs the textbook constants of `swarmwalk.pso`,
    and the objectives have none, as each is one fixed problem.  A value
    listed twice in `functions`, `algorithms`, `population_sizes` or
    `dimensions` is refused, and so is a population or dimension whose
    N x N distance matrix or (N, D) swarm numpy cannot allocate.
    Construction builds every objective the sweep will use and a walker
    config, also when the sweep runs only PSO, so a bad dimension or a bad
    key or value in `rwpso_options` fails here rather than in the middle of
    a sweep.
    """

    functions: tuple[str, ...] = FUNCTION_NAMES
    algorithms: tuple[str, ...] = ALGORITHMS
    population_sizes: tuple[int, ...] = (20, 40, 80, 160)
    dimensions: tuple[int, ...] = (10, 20, 30)
    runs_per_cell: int = 50
    max_iterations: int = 1000
    base_seed: int = 0
    fitness_thresholds: dict[str, float | None] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS)
    )
    workers: int = 1
    rwpso_options: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        for key in ("population_sizes", "dimensions"):
            values = tuple(getattr(self, key))
            if not all(_is_finite_real(v) and float(v).is_integer() for v in values):
                raise ValueError(f"{key} must hold integers, got {list(values)!r}")
            object.__setattr__(self, key, tuple(int(v) for v in values))
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for key in ("functions", "algorithms", "population_sizes", "dimensions"):
            values = getattr(self, key)
            for index, value in enumerate(values):
                if value in values[:index]:
                    raise ValueError(f"{key} lists {value!r} twice")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
        if not self.functions:
            raise ValueError("functions must not be empty")
        for function in self.functions:
            if function not in FUNCTION_NAMES:
                raise ValueError(f"unknown function {function!r}; choose from {FUNCTION_NAMES}")
        for function, threshold in self.fitness_thresholds.items():
            if function not in FUNCTION_NAMES:
                raise ValueError(f"threshold for unknown function {function!r}")
            if threshold is not None and not _is_finite_real(threshold):
                raise ValueError(f"threshold for {function} must be a finite number "
                                 f"or null, got {threshold!r}")
        if self.runs_per_cell < 1:
            raise ValueError("runs_per_cell must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.population_sizes or any(p < 2 for p in self.population_sizes):
            raise ValueError("population sizes must be given and >= 2")
        if not self.dimensions or any(d < 1 for d in self.dimensions):
            raise ValueError("dimensions must be given and >= 1")
        # numpy allocates no array above intp's maximum bytes, so a swarm whose
        # N x N distances or (N, D) positions (8-byte floats) exceed it cannot run.
        population, dimension = max(self.population_sizes), max(self.dimensions)
        if 8 * population * max(population, dimension) > np.iinfo(np.intp).max:
            raise ValueError(f"a swarm of {population} particles in {dimension} dimensions "
                             f"is too large for numpy to allocate")
        for function in self.functions:
            try:
                for dimension in self.dimensions:
                    make_objective(function, dimension)
            except (ValueError, MemoryError) as exc:
                raise ValueError(f"bad objective for {function}: {exc}") from exc
        # `rwpso_options` must build a config, also when the sweep does not run
        # the walker.  One function suffices: every `RWPSO_TUNING` entry builds one.
        function = self.functions[0]
        try:
            _optimizer_config(self, "rwpso", function,
                              self.population_sizes[0], self.dimensions[0], seed=0)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad rwpso options for {function}: {exc}") from exc

    @property
    def objective_options(self) -> dict:
        """Always empty, and neither a field nor a config key.

        perfbench/run.py still reads `spec.objective_options.get(function, {})`
        and may change only in a benchmark change.  ROADMAP item 1, that
        change, deletes this attribute together with those reads.
        """
        return {}

    def threshold_for(self, function: str) -> float | None:
        if function in self.fitness_thresholds:
            return self.fitness_thresholds[function]
        return DEFAULT_THRESHOLDS[function]

    def cells(self) -> list[Cell]:
        """Factorial cell list in canonical (sorted) order."""
        return sorted(
            product(self.algorithms, self.functions,
                    self.population_sizes, self.dimensions)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError(f"an experiment config must be an object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        return cls(**data)


def load_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a JSON config file.

    A file that is not UTF-8 JSON, or nests too deeply to decode, raises
    ValueError naming the file.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # ValueError: JSON or UTF-8
            raise ValueError(f"config file {path}: {exc}") from exc
    return ExperimentSpec.from_dict(data)


def derive_seed(base_seed: int, algorithm: str, function: str,
                population: int, dimension: int, run_index: int) -> int:
    """Stable 64-bit run seed from the cell coordinates (SHA-256 based)."""
    key = f"{base_seed}|{algorithm}|{function}|{population}|{dimension}|{run_index}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _optimizer_config(spec: ExperimentSpec, algorithm: str, function: str,
                      population: int, dim: int, seed: int) -> RunConfig:
    """The config of one run: the sweep's run settings, and for the walker
    also `RWPSO_TUNING` overridden by `rwpso_options`.

    An option may not set a `RunConfig` field; the sweep sets those.
    """
    run_settings = dict(swarm_size=population, dim=dim, max_iterations=spec.max_iterations,
                        seed=seed, fitness_threshold=spec.threshold_for(function))
    if algorithm == "pso":
        return RunConfig(**run_settings)
    tunables = {**RWPSO_TUNING.get(function, {}), **spec.rwpso_options}
    for name in run_settings:
        if name in tunables:
            raise ValueError(f"{name} is set by the sweep")
    return RwpsoConfig(**run_settings, **tunables)


def run_single(spec: ExperimentSpec, algorithm: str, function: str,
               population: int, dimension: int, run_index: int) -> RunResult:
    """Execute one seeded run of one cell.

    The reported `dimension` is the cell's nominal dimension; the fixed-size
    functions (binh4, schaffer_n1) are evaluated in their own dimensionality
    regardless.
    """
    objective = make_objective(function, dimension)
    seed = derive_seed(spec.base_seed, algorithm, function,
                       population, dimension, run_index)
    config = _optimizer_config(spec, algorithm, function, population, objective.dim, seed)
    run = rwpso_run if algorithm == "rwpso" else pso_run
    return replace(run(objective, config), dimension=dimension)


def _aggregate_cell(spec: ExperimentSpec, cell: Cell,
                    results: list[RunResult]) -> AggregateStats:
    algorithm, function, population, dimension = cell
    threshold = spec.threshold_for(function)
    per_run_best = np.array([r.mean_best_80 for r in results])
    if threshold is None:
        success_rate = 0.0
    else:
        # Every objective minimizes: the threshold is a ceiling on the
        # best-so-far fitness.
        success_rate = float(np.mean([r.best_fitness <= threshold for r in results]))
    return AggregateStats(
        algorithm=algorithm,
        function=function,
        population=population,
        dimension=dimension,
        runs=len(results),
        mean_iterations=float(np.mean([r.iterations_used for r in results])),
        mean_best_fitness=float(per_run_best.mean()),
        std_best_fitness=float(per_run_best.std()),
        success_rate=success_rate,
    )


def run_cell(spec: ExperimentSpec, cell: Cell) -> tuple[AggregateStats, list[RunResult]]:
    """All runs of one cell plus their aggregate; any run error aborts the cell."""
    algorithm, function, population, dimension = cell
    results = []
    for run_index in range(spec.runs_per_cell):
        try:
            results.append(
                run_single(spec, algorithm, function, population, dimension, run_index)
            )
        except Exception as exc:
            seed = derive_seed(spec.base_seed, algorithm, function,
                               population, dimension, run_index)
            raise RuntimeError(
                f"cell {cell} run {run_index} (seed {seed}) failed: {exc}"
            ) from exc
    return _aggregate_cell(spec, cell, results), results


@dataclass
class ExperimentOutcome:
    """Everything a sweep produced, in canonical cell order."""

    aggregates: list[AggregateStats]
    runs: list[RunResult]
    failures: list[str] = field(default_factory=list)


def _run_cell_task(args: tuple[ExperimentSpec, Cell]):
    spec, cell = args
    try:
        stats, results = run_cell(spec, cell)
        return cell, stats, results, None
    except Exception as exc:
        return cell, None, [], str(exc)


def _run_in_pool(spec: ExperimentSpec, cells: list[Cell], workers: int) -> list:
    """Each cell's task result from a pool of `workers` processes, or one per
    cell when the sweep has fewer cells.

    When a worker process dies, its pool loses every cell still pending in
    it.  Each lost cell then reruns alone in a fresh one-worker pool, so
    only a cell whose own rerun crashes fails; the others produce the same
    output as an uninterrupted sweep, since seeds depend only on the cell.
    The pool is imported here, so a serial sweep never loads
    `concurrent.futures` or `multiprocessing`.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def run(batch: list[Cell], max_workers: int) -> list:
        """Each task's result, or the `BrokenProcessPool` that lost it."""
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(_run_cell_task, (spec, cell)) for cell in batch]
            raw = []
            for future in futures:
                try:
                    raw.append(future.result())
                except BrokenProcessPool as exc:
                    raw.append(exc)
        return raw

    raw = run(cells, min(workers, len(cells)))
    for i, cell in enumerate(cells):
        if isinstance(raw[i], BrokenProcessPool):
            (raw[i],) = run([cell], 1)
            if isinstance(raw[i], BrokenProcessPool):
                raw[i] = (cell, None, [], f"cell {cell} lost: worker process "
                          f"crashed (BrokenProcessPool: {raw[i]})")
    return raw


def run_experiment(spec: ExperimentSpec) -> ExperimentOutcome:
    """Run every cell; failed cells are reported and the rest still run.

    With one worker the cells run in this process, one after another;
    with more they run in a process pool that survives a dead worker
    (see `_run_in_pool`).
    """
    cells = spec.cells()
    if spec.workers > 1:
        raw = _run_in_pool(spec, cells, spec.workers)
    else:
        raw = [_run_cell_task((spec, cell)) for cell in cells]

    outcome = ExperimentOutcome(aggregates=[], runs=[])
    for _, stats, results, error in raw:  # in canonical cell order on both paths
        if error is not None:
            outcome.failures.append(error)
            continue
        outcome.aggregates.append(stats)
        outcome.runs.extend(results)
    return outcome


def write_results(stats, runs=None, out_path=None, fmt: str = "csv") -> str:
    """Serialize aggregates (and optionally per-run records) to CSV or JSON.

    Returns the rendered text; writes it to `out_path` when given.  CSV holds
    one aggregate row per cell with full-precision numbers.  JSON mirrors the
    aggregate records verbatim under "aggregates", plus the per-run records
    under "runs" when provided.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for entry in stats:
            # csv writes a float as its repr, which round-trips exactly
            writer.writerow([getattr(entry, c) for c in CSV_COLUMNS])
        text = buffer.getvalue()
    elif fmt == "json":
        document: dict = {"aggregates": [entry.to_dict() for entry in stats]}
        if runs is not None:
            document["runs"] = [run.to_dict() for run in runs]
        text = json.dumps(document, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if out_path is not None:
        _write_text(out_path, text)
    return text


def _write_text(out_path, text: str) -> None:
    """Write `text` to `out_path`; a failure names the path."""
    try:
        Path(out_path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write results to {out_path}: {exc}") from exc


def read_results(path) -> list[AggregateStats]:
    """Load aggregate rows back from a CSV or JSON results file.

    Rows keep the file's order.  A malformed file, one that holds a cell
    twice included, raises ValueError naming the file, and the row and
    field or cell at fault.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    try:
        if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
            document = json.loads(text)
            rows = document.get("aggregates") if isinstance(document, dict) else None
            if not isinstance(rows, list):
                raise ValueError('no "aggregates" list')
        else:
            rows = csv.DictReader(io.StringIO(text))
            missing = set(CSV_COLUMNS) - set(rows.fieldnames or ())
            if missing:
                raise ValueError(f"lacks columns: {sorted(missing)}")
        stats: dict[Cell, AggregateStats] = {}
        for number, row in enumerate(rows, 1):
            try:
                entry = AggregateStats.from_dict(row)
                if entry.cell_key in stats:
                    raise ValueError(f"cell {entry.cell_key} appears twice")
            except ValueError as exc:
                raise ValueError(f"row {number}: {exc}") from None
            stats[entry.cell_key] = entry
        return list(stats.values())
    except (ValueError, RecursionError, csv.Error) as exc:
        raise ValueError(f"results file {path}: {exc}") from exc


# format() spec of each numeric table column; the other columns print as is.
_TABLE_FORMATS = {"mean_iterations": ".1f", "mean_best_fitness": ".6g",
                  "std_best_fitness": ".6g", "success_rate": ".2f"}


def format_table(stats) -> str:
    """Aligned plain-text comparison table of aggregate rows."""
    rows = [list(CSV_COLUMNS)]
    rows += [[format(getattr(entry, c), _TABLE_FORMATS.get(c, "")) for c in CSV_COLUMNS]
             for entry in stats]
    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_COLUMNS))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"
