"""Run-level and cell-level result records shared by the optimizers and harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RunResult", "AggregateStats", "mean_best_fitness", "run_loop"]


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
        return {
            "algorithm": self.algorithm,
            "function": self.function,
            "population": self.population,
            "dimension": self.dimension,
            "seed": self.seed,
            "iterations_used": self.iterations_used,
            "best_fitness": self.best_fitness,
            "best_position": np.asarray(self.best_position, dtype=float).tolist(),
            "trace": np.asarray(self.trace, dtype=float).tolist(),
            "mean_best_80": self.mean_best_80,
        }


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
        return {
            "algorithm": self.algorithm,
            "function": self.function,
            "population": self.population,
            "dimension": self.dimension,
            "runs": self.runs,
            "mean_iterations": self.mean_iterations,
            "mean_best_fitness": self.mean_best_fitness,
            "std_best_fitness": self.std_best_fitness,
            "success_rate": self.success_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateStats":
        return cls(
            algorithm=str(data["algorithm"]),
            function=str(data["function"]),
            population=int(data["population"]),
            dimension=int(data["dimension"]),
            runs=int(data["runs"]),
            mean_iterations=float(data["mean_iterations"]),
            mean_best_fitness=float(data["mean_best_fitness"]),
            std_best_fitness=float(data["std_best_fitness"]),
            success_rate=float(data["success_rate"]),
        )
