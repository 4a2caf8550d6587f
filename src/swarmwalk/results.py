"""The optimizers' shared run loop, start swarm included, and the run and cell records."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

__all__ = ["RunConfig", "RunResult", "AggregateStats", "check_field_types",
           "init_positions", "mean_best_fitness", "run_loop"]


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A real number that is not nan or infinite and fits a float; an int
    too large for a float is refused here, before `float()` would overflow."""
    return _is_real(value) and abs(value) <= sys.float_info.max


# Declared annotation (its text, as `from __future__ import annotations`
# leaves it, or a type's name; containers by their outer type) -> the check
# a value must pass and how an error names the type.  A bool is never a number.
_TYPE_RULES = {
    "int": (_is_integer, "an integer"),
    "float": (_is_real, "a number"),
    "float | None": (lambda v: v is None or _is_real(v), "a number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "tuple": (lambda v: isinstance(v, (list, tuple)), "a list"),
}


def check_field_types(record) -> None:
    """Raise ValueError naming the first field of the dataclass `record` whose
    value does not have its declared type (given as text or as a type object;
    of a container, only the outer one), or is no finite float in a float field."""
    for f in fields(record):
        text = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", str(f.type))
        check, kind = _TYPE_RULES[text.split("[")[0]]
        value = getattr(record, f.name)
        if not check(value):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if text.startswith("float") and value is not None and not _is_finite_real(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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

    `initial_best_fitness` is the best fitness of the start swarm, before
    any iteration.  `trace` holds the best-so-far fitness after each
    completed iteration, so its length equals `iterations_used` and it
    never increases.
    `mean_best_80` is the mean fitness of the best 80% of the *final* swarm.
    """

    algorithm: str
    function: str
    population: int
    dimension: int
    seed: int
    iterations_used: int
    initial_best_fitness: float
    best_fitness: float
    best_position: np.ndarray
    trace: np.ndarray
    mean_best_80: float

    def to_dict(self) -> dict:
        return {**asdict(self),
                "best_position": np.asarray(self.best_position, dtype=float).tolist(),
                "trace": np.asarray(self.trace, dtype=float).tolist()}


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run that a sweep owns; each optimizer's config
    extends it with that optimizer's own tunables.

    A config refuses a nan or infinite value in any float field, the
    extension's included, and a negative seed.
    """

    swarm_size: int
    max_iterations: int
    seed: int = 0
    fitness_threshold: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def _swarm_best(state) -> tuple[float, np.ndarray]:
    """The lowest fitness of a state and (a copy of) the first position holding it."""
    best = int(np.argmin(state.fitnesses))
    return float(state.fitnesses[best]), state.positions[best].copy()


def init_positions(domain, n_particles: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (N, dim) array of starting positions, uniform over the domain's init range."""
    if n_particles < 2:
        raise ValueError("a swarm needs at least 2 particles")
    return rng.uniform(domain.init_lower, domain.init_upper, size=(n_particles, domain.dim))


def run_loop(algorithm: str, objective, config: RunConfig, init_state, step) -> RunResult:
    """One seeded run of either optimizer until the iteration budget or the
    fitness threshold is met.

    The start swarm is the run Generator's first draw, scored by one
    `evaluate_batch` call; `init_state(positions, fitnesses)` adds only the
    optimizer's own memory, and `step` advances the state.  States need carry
    only the swarm's `positions` and their `fitnesses`; anything else in them
    is the step's own.  The loop keeps the run's bookkeeping itself: the
    best-so-far fitness and position, taken from each state and replaced only
    on a strict improvement (ties go to the lowest index), and the iteration
    count, which is the length of its trace.  The result's `dimension` is the
    objective's, and its `mean_best_80` is the mean of the best 80% of the
    final swarm.
    """
    rng = np.random.default_rng(config.seed)
    positions = init_positions(objective.domain, config.swarm_size, rng)
    state = init_state(positions, objective.evaluate_batch(positions))
    best_fitness, best_position = _swarm_best(state)
    initial_best_fitness = best_fitness
    threshold = config.fitness_threshold
    trace = []
    while len(trace) < config.max_iterations and (
        threshold is None or best_fitness > threshold
    ):
        state = step(state, objective, config, rng)
        fitness, position = _swarm_best(state)
        if fitness < best_fitness:
            best_fitness, best_position = fitness, position
        trace.append(best_fitness)
    return RunResult(
        algorithm=algorithm,
        function=objective.name,
        population=config.swarm_size,
        dimension=objective.dim,
        seed=config.seed,
        iterations_used=len(trace),
        initial_best_fitness=initial_best_fitness,
        best_fitness=best_fitness,
        best_position=best_position,
        trace=np.asarray(trace),
        mean_best_80=mean_best_fitness(state.fitnesses),
    )


# The closed range of each numeric field of a results row that has one.
_ROW_RANGES = {"population": (1, math.inf), "dimension": (1, math.inf),
               "runs": (1, math.inf), "mean_iterations": (0.0, math.inf),
               "std_best_fitness": (0.0, math.inf), "success_rate": (0.0, 1.0)}


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
        CSV cell); a missing, unknown or unparsable field raises ValueError
        naming it, and so does an impossible value: a count below 1, a float
        that is not finite, a negative mean iteration count or standard
        deviation, or a success rate outside [0, 1].
        """
        if not isinstance(data, dict):
            raise ValueError(f"a row must be an object, got {data!r}")
        names = [f.name for f in fields(cls)]
        for key in data:
            if key not in names:
                raise ValueError(f"unknown field {key!r}")
        values = {}
        for f in fields(cls):
            check, kind = _TYPE_RULES[f.type]
            value = data.get(f.name)
            if value is None:
                raise ValueError(f"missing field {f.name!r}")
            if not (isinstance(value, str) or check(value)):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            try:
                parsed = {"str": str, "int": int, "float": float}[f.type](value)
            except (ValueError, OverflowError):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}") from None
            if isinstance(parsed, float) and not math.isfinite(parsed):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in _ROW_RANGES:
                low, high = _ROW_RANGES[f.name]
                if not low <= parsed <= high:
                    raise ValueError(f"{f.name} must lie in [{low}, {high}], got {value!r}")
            values[f.name] = parsed
        return cls(**values)
