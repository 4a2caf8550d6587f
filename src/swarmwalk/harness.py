"""Experiment sweeps: seeded runs, per-cell aggregates, CSV/JSON output.

A sweep is the full factorial product algorithm x function x population x
dimension, except that a fixed-dimension function (binh4, schaffer_n1) runs
once per algorithm and population, at its own dimension.  Every run's seed
derives from a stable hash of the base seed and its cell coordinates, so
any row of the output can be re-created in isolation, and the whole output
is a pure function of the experiment spec regardless of worker parallelism.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from pathlib import Path

import numpy as np

from swarmwalk.objectives import (_FIXED_DIMS, DEFAULT_THRESHOLDS, FUNCTION_NAMES, ObjectiveSpec,
                                  make_objective)
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
    "load_spec",
    "derive_seed",
    "run_single",
    "run_cell",
    "run_experiment",
    "write_results",
    "read_results",
    "format_table",
]

ALGORITHMS = ("rwpso", "pso")

# The walker's fixed per-function `gaussian_sigma`, where it differs from
# `RwpsoConfig`'s default.  On rastrigin the walker does best when its noise
# factor sits just under the settling edge, so the swarm keeps basin-hopping
# for most of the budget and still collapses before it ends; the default
# favors unimodal refinement instead.  PSO runs its textbook constants on
# every function.
RWPSO_TUNING: dict[str, float] = {"rastrigin": 0.52}

CSV_COLUMNS = tuple(f.name for f in fields(AggregateStats))

Cell = tuple[str, str, int, int]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs; fully expressible as a JSON config file.

    `fitness_thresholds` holds only overrides: a function it does not name
    runs to its `DEFAULT_THRESHOLDS` entry (see `threshold_for`).
    `gaussian_sigma`, when set, is the walker's noise factor on every
    function, in place of its fixed per-function tuning, `RWPSO_TUNING`, and
    of `RwpsoConfig`'s default; PSO has no settings, as it runs the textbook
    constants of `swarmwalk.pso`, and the objectives have none, as each is
    one fixed problem.  A value listed twice in `functions`, `algorithms`,
    `population_sizes` or `dimensions` is refused.  Construction checks
    every cell, for both algorithms also when the sweep runs only one: numpy
    must be able to allocate the N x N distance matrix and (N, D) swarm of
    the cell's own population N and dimension D (binh4's D is 2 whatever
    `dimensions` lists), and the objective and config of its run 0 must
    build.  So a swarm too large to allocate, a bad dimension or a bad
    `gaussian_sigma` fails here rather than in the middle of a sweep.  At
    every D the rest of a run's memory grows with N, not with N * N * D: the
    distance kernel holds one (M, N) gap plane beside its (M, N) result
    (see `graph.build_distance_matrix`).
    """

    functions: tuple[str, ...] = FUNCTION_NAMES
    algorithms: tuple[str, ...] = ALGORITHMS
    population_sizes: tuple[int, ...] = (20, 40, 80, 160)
    dimensions: tuple[int, ...] = (10, 20, 30)
    runs_per_cell: int = 50
    max_iterations: int = 1000
    base_seed: int = 0
    fitness_thresholds: dict[str, float | None] = field(default_factory=dict)
    workers: int = 1
    gaussian_sigma: float | None = None

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
        for key, known in (("algorithms", ALGORITHMS), ("functions", FUNCTION_NAMES)):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")
            for value in getattr(self, key):
                if value not in known:
                    raise ValueError(f"unknown {key[:-1]} {value!r}; choose from {known}")
        for function, threshold in self.fitness_thresholds.items():
            if function not in FUNCTION_NAMES:
                raise ValueError(f"threshold for unknown function {function!r}")
            if threshold is not None and not _is_finite_real(threshold):
                raise ValueError(f"threshold for {function} must be a finite number "
                                 f"or null, got {threshold!r}")
        if self.runs_per_cell < 1:
            raise ValueError("runs_per_cell must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.population_sizes or any(p < 2 for p in self.population_sizes):
            raise ValueError("population sizes must be given and >= 2")
        if not self.dimensions or any(d < 1 for d in self.dimensions):
            raise ValueError("dimensions must be given and >= 1")
        for cell in self._cells_of(ALGORITHMS):
            _, _, population, dimension = cell
            # A run holds N x N distances and (N, D) positions.  numpy refuses
            # at once, without touching memory, an array above intp's maximum
            # bytes (ValueError) or one it cannot map (MemoryError).
            try:
                np.empty((population, max(population, dimension)))
            except (ValueError, MemoryError):
                raise ValueError(f"a swarm of {population} particles in {dimension} "
                                 f"dimensions is too large for numpy to allocate") from None
            _run_setup(self, cell, 0)

    @property
    def objective_options(self) -> dict:
        """Always empty, and neither a field nor a config key.

        perfbench/run.py still reads `spec.objective_options.get(function, {})`
        and may change only in a benchmark change.  ROADMAP item 1, that
        change, deletes this attribute together with those reads.
        """
        return {}

    def threshold_for(self, function: str) -> float | None:
        """The spec's threshold for `function`, else its `DEFAULT_THRESHOLDS` entry."""
        return self.fitness_thresholds.get(function, DEFAULT_THRESHOLDS[function])

    def _cells_of(self, algorithms) -> dict[Cell, None]:
        """Each cell of `algorithms` x the spec's other axes once, in product
        order; binh4's and schaffer_n1's cells hold their own dimension."""
        return dict.fromkeys((a, f, p, _FIXED_DIMS.get(f, d)) for a, f, p, d in product(
            algorithms, self.functions, self.population_sizes, self.dimensions))

    def cells(self) -> list[Cell]:
        """The sweep's cells (see `_cells_of`) in canonical (sorted) order."""
        return sorted(self._cells_of(self.algorithms))

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


def _read_config(path) -> dict:
    """The JSON object in a config file.

    A file that is not UTF-8 JSON (a byte order mark may lead), nests too
    deeply to decode, or holds a non-object raises ValueError naming it.
    """
    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # ValueError: JSON or UTF-8
            raise ValueError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: an experiment config must be an object, "
                         f"got {type(data).__name__}")
    return data


def load_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a JSON config file (see `_read_config`)."""
    return ExperimentSpec.from_dict(_read_config(path))


def derive_seed(base_seed: int, algorithm: str, function: str,
                population: int, dimension: int, run_index: int) -> int:
    """Stable 64-bit run seed from the cell coordinates (SHA-256 based)."""
    key = f"{base_seed}|{algorithm}|{function}|{population}|{dimension}|{run_index}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _run_setup(spec: ExperimentSpec, cell: Cell, run_index: int
               ) -> tuple[ObjectiveSpec, RunConfig, Callable[..., RunResult]]:
    """The objective, config and run function of one run of `cell`, or
    ValueError for an algorithm outside `ALGORITHMS`.  The config holds the
    sweep's run settings, the seed from `derive_seed`, and the walker's
    `gaussian_sigma`: the spec's if set, else the function's in
    `RWPSO_TUNING`, else `RwpsoConfig`'s default.  The run function is this
    module's global at call time, so a wrapper set in its place runs."""
    algorithm, function, population, dimension = cell
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    try:
        objective = make_objective(function, dimension)
    except ValueError as exc:
        raise ValueError(f"bad objective for {function}: {exc}") from exc
    run_settings = dict(swarm_size=population, max_iterations=spec.max_iterations,
                        seed=derive_seed(spec.base_seed, *cell, run_index),
                        fitness_threshold=spec.threshold_for(function))
    if algorithm == "pso":
        return objective, RunConfig(**run_settings), pso_run
    sigma = spec.gaussian_sigma
    if sigma is None:
        sigma = RWPSO_TUNING.get(function, RwpsoConfig.gaussian_sigma)
    return objective, RwpsoConfig(**run_settings, gaussian_sigma=sigma), rwpso_run


def run_single(spec: ExperimentSpec, cell: Cell, run_index: int) -> RunResult:
    """Execute one seeded run of one cell."""
    objective, config, run = _run_setup(spec, cell, run_index)
    return run(objective, config)


def _aggregate_cell(spec: ExperimentSpec, cell: Cell,
                    results: list[RunResult]) -> AggregateStats:
    threshold = spec.threshold_for(cell[1])
    per_run_best = np.array([r.mean_best_80 for r in results])
    if threshold is None:
        success_rate = 0.0
    else:
        # Every objective minimizes: the threshold is a ceiling on the
        # best-so-far fitness.
        success_rate = float(np.mean([r.best_fitness <= threshold for r in results]))
    return AggregateStats(
        *cell,  # the cell's coordinates are the first four fields
        runs=len(results),
        mean_iterations=float(np.mean([r.iterations_used for r in results])),
        mean_best_fitness=float(per_run_best.mean()),
        std_best_fitness=float(per_run_best.std()),
        success_rate=success_rate,
    )


def run_cell(spec: ExperimentSpec, cell: Cell) -> tuple[AggregateStats, list[RunResult]]:
    """All runs of one cell plus their aggregate; any run error aborts the cell."""
    results = []
    for run_index in range(spec.runs_per_cell):
        try:
            results.append(run_single(spec, cell, run_index))
        except Exception as exc:
            seed = derive_seed(spec.base_seed, *cell, run_index)
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


def _run_cell_task(spec: ExperimentSpec, cell: Cell):
    """`run_cell`'s (aggregate, runs), or the text of the failure that ended the cell."""
    try:
        return run_cell(spec, cell)
    except Exception as exc:
        return str(exc)


def _run_in_pool(spec: ExperimentSpec, cells: list[Cell], workers: int) -> list:
    """Each cell's `_run_cell_task` result from a pool of `workers`
    processes, or one per cell when the sweep has fewer cells.

    When a worker process dies, its pool loses every cell still pending in
    it, and every cell it never received because it broke while the batch
    was being submitted.  Each lost cell then reruns alone in a fresh
    one-worker pool, so only a cell whose own rerun crashes fails; the
    others produce the same output as an uninterrupted sweep, since seeds
    depend only on the cell.
    The pool is imported here, so a serial sweep never loads
    `concurrent.futures` or `multiprocessing`.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def run(batch: list[Cell], max_workers: int) -> list:
        """Each cell's task result, or the `BrokenProcessPool` that lost it."""
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures, unsent = [], []
            try:
                for cell in batch:
                    futures.append(pool.submit(_run_cell_task, spec, cell))
            except BrokenProcessPool as exc:  # the pool broke before it had them all
                unsent = [exc] * (len(batch) - len(futures))
            raw = []
            for future in futures:
                try:
                    raw.append(future.result())
                except BrokenProcessPool as exc:
                    raw.append(exc)
        return raw + unsent

    raw = run(cells, min(workers, len(cells)))
    for i, cell in enumerate(cells):
        if isinstance(raw[i], BrokenProcessPool):
            (raw[i],) = run([cell], 1)
            if isinstance(raw[i], BrokenProcessPool):
                raw[i] = f"cell {cell} lost: worker process crashed (BrokenProcessPool: {raw[i]})"
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
        raw = [_run_cell_task(spec, cell) for cell in cells]

    outcome = ExperimentOutcome(aggregates=[], runs=[])
    for result in raw:  # in canonical cell order on both paths
        if isinstance(result, str):
            outcome.failures.append(result)
        else:
            outcome.aggregates.append(result[0])
            outcome.runs.extend(result[1])
    return outcome


def write_results(stats, runs=None, fmt: str = "csv") -> str:
    """Render aggregates (and optionally per-run records) as CSV or JSON text.

    Writes nothing.  CSV holds one aggregate row per cell with full-precision
    numbers.  JSON is `json.dumps(document, indent=2)` and a newline: the
    aggregates under "aggregates", and the run records, if given, under "runs".
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes a float as its repr, which round-trips exactly
        writer.writerows([getattr(entry, c) for c in CSV_COLUMNS] for entry in stats)
        return buffer.getvalue()
    if fmt == "json":
        # run records one at a time, as an indenting encoder lists all chunks first
        encode = json.JSONEncoder(indent=2).encode
        text = encode({"aggregates": [entry.to_dict() for entry in stats]})
        if runs is None:
            return text + "\n"
        pieces, separator = [text[:-2], ',\n  "runs": ['], "\n    "  # text less its "\n}"
        for run in runs:  # each record two levels deep
            pieces += separator, encode(run.to_dict()).replace("\n", "\n    ")
            separator = ",\n    "
        pieces.append("]\n}\n" if len(pieces) == 2 else "\n  ]\n}\n")
        return "".join(pieces)
    raise ValueError(f"unknown output format {fmt!r}")


def read_results(path) -> list[AggregateStats]:
    """Load aggregate rows back from a CSV or JSON results file.

    Rows keep the file's order; a leading byte order mark is skipped.  A
    malformed file, one that is not UTF-8, holds a cell twice, has a row
    with a missing, unknown or unparsable field, a CSV header that repeats a
    column or a CSV row longer than its header included, raises ValueError
    naming the file, and the row and field, column or cell at fault.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
        if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
            document = json.loads(text)
            rows = document.get("aggregates") if isinstance(document, dict) else None
            if not isinstance(rows, list):
                raise ValueError('no "aggregates" list')
        else:
            rows = csv.DictReader(io.StringIO(text))
            header = rows.fieldnames or []
            missing = set(CSV_COLUMNS) - set(header)
            if missing:
                raise ValueError(f"lacks columns: {sorted(missing)}")
            # DictReader would keep only the last cell of a repeated column
            for index, column in enumerate(header):
                if column in header[:index]:
                    raise ValueError(f"column {column!r} appears twice")
        stats: dict[Cell, AggregateStats] = {}
        for number, row in enumerate(rows, 1):
            try:
                # DictReader files a row's cells past its header under the key None
                if isinstance(row, dict) and None in row:
                    raise ValueError(f"has more cells than the {len(rows.fieldnames)} columns")
                entry = AggregateStats.from_dict(row)
                if entry.cell_key in stats:
                    raise ValueError(f"cell {entry.cell_key} appears twice")
            except ValueError as exc:
                raise ValueError(f"row {number}: {exc}") from None
            stats[entry.cell_key] = entry
        return list(stats.values())
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    except (ValueError, RecursionError, csv.Error) as exc:  # ValueError: UTF-8 too
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
