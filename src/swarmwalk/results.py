"""Run-level and cell-level result records shared by the optimizers and harness."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

__all__ = ["RunResult", "AggregateStats", "check_field_types", "mean_best_fitness", "run_loop"]


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# Declared annotation (its text, as `from __future__ import annotations`
# leaves it; containers by their outer type) -> the check a value must pass
# and how an error names the type.  A bool is never a number.
_TYPE_RULES = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (_is_real, "a number"),
    "float | None": (lambda v: v is None or _is_real(v), "a number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "tuple": (lambda v: isinstance(v, (list, tuple)), "a list"),
}


def check_field_types(record) -> None:
    """Raise ValueError naming the first field of the dataclass `record` whose
    value does not have its declared type (of a container, only the outer one)."""
    for f in fields(record):
        check, kind = _TYPE_RULES[f.type.split("[")[0]]
        value = getattr(record, f.name)
        if not check(value):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")


def mean_best_fitness(fitnesses, fraction: float = 0.8) -> float:
    """Average of the best ceil(fraction * N) fitness values.

    This is the per-run swarm statistic reported by the benchmark tables:
    sort the final swarm best-first and average the top fraction.
    """
    f = np.atleast_1d(np.asarray(fitnesses, dtype=float))
    if f.ndim != 1 or f.size == 0:
        raise ValueError("fitnesses must be a non-empty vector")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    count = math.ceil(fraction * f.size)
    return float(np.sort(f)[:count].mean())


@dataclass(frozen=True)
class RunResult:
    """One seeded optimizer run.

    `trace` holds the best-so-far fitness after each completed iteration, so
    its length equals `iterations_used` and it never increases.
    `mean_best_80` is the mean fitness of the best fraction of the *final*
    swarm (fraction 0.8 by default, hence the name).
    """

    algorithm: str
    function: str
    population: int
    dimension: int
    seed: int
    iterations_used: int
    best_fitness: float
    best_position: np.ndarray
    trace: np.ndarray
    mean_best_80: float

    def to_dict(self) -> dict:
        return {**asdict(self),
                "best_position": np.asarray(self.best_position, dtype=float).tolist(),
                "trace": np.asarray(self.trace, dtype=float).tolist()}


def run_loop(algorithm: str, objective, config, best_fraction: float,
             init_state, step) -> RunResult:
    """One seeded run of either optimizer: `init_state`, then `step` until the
    iteration budget or the fitness threshold is met.

    States carry `positions`, `fitnesses`, `iteration`, `best_fitness` and
    `best_position`.
    """
    if config.dim != objective.domain.dim:
        raise ValueError(
            f"config dim {config.dim} does not match objective dim {objective.domain.dim}"
        )
    rng = np.random.default_rng(config.seed)
    state = init_state(objective, config, rng)
    threshold = config.fitness_threshold
    trace = []
    while state.iteration < config.max_iterations and (
        threshold is None or state.best_fitness > threshold
    ):
        state = step(state, objective, config, rng)
        trace.append(state.best_fitness)
    return RunResult(
        algorithm=algorithm,
        function=objective.name,
        population=config.swarm_size,
        dimension=config.dim,
        seed=config.seed,
        iterations_used=state.iteration,
        best_fitness=state.best_fitness,
        best_position=state.best_position,
        trace=np.asarray(trace),
        mean_best_80=mean_best_fitness(state.fitnesses, best_fraction),
    )


@dataclass(frozen=True)
class AggregateStats:
    """Aggregates over all runs of one (algorithm, function, population, dimension) cell.

    `mean_best_fitness` / `std_best_fitness` summarize the per-run
    mean_best_80 statistic (std is the population standard deviation, so a
    single-run cell reports 0).  `success_rate` is the fraction of runs whose
    best-so-far fitness reached the cell's threshold; cells without a
    threshold report 0.0.
    """

    algorithm: str
    function: str
    population: int
    dimension: int
    runs: int
    mean_iterations: float
    mean_best_fitness: float
    std_best_fitness: float
    success_rate: float

    @property
    def cell_key(self) -> tuple[str, str, int, int]:
        return (self.algorithm, self.function, self.population, self.dimension)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateStats":
        """One row of a results file: a JSON object or a CSV record.

        Each field holds a value of its declared type or the text of one (a
        CSV cell); a missing or unparsable field raises ValueError naming it.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a row must be an object, got {data!r}")
        values = {}
        for f in fields(cls):
            check, kind = _TYPE_RULES[f.type]
            value = data.get(f.name)
            if value is None:
                raise ValueError(f"missing field {f.name!r}")
            if not (isinstance(value, str) or check(value)):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            try:
                values[f.name] = {"str": str, "int": int, "float": float}[f.type](value)
            except ValueError:
                raise ValueError(f"{f.name} must be {kind}, got {value!r}") from None
        return cls(**values)
