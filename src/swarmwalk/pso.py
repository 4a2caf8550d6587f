"""Inertia-weight particle swarm optimizer (the comparison baseline).

Classic formulation: each particle keeps a velocity and its own best
position, and the swarm shares a global best: the best personal best, the
lowest index on ties.  The inertia weight decays linearly from w_start to
w_end across the run.  R1/R2 are drawn per particle per dimension; the
historical scalar-per-particle draw collapses the swarm onto a line on
corner-initialized problems.  Positions clamp to the box; the velocity
component of a clamped coordinate is reflected and damped so the swarm
cannot wedge on a boundary with every attraction term zeroed out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmwalk.objectives import ObjectiveSpec, SearchDomain, init_positions
from swarmwalk.results import RunConfig, RunResult, run_loop

__all__ = [
    "PsoConfig",
    "PsoState",
    "inertia_weight",
    "pso_update_velocity",
    "pso_update_position",
    "init_state",
    "pso_step",
    "pso_run",
]


@dataclass(frozen=True)
class PsoConfig(RunConfig):
    """Tunables for one baseline run.

    `v_max`, when set, clamps each velocity component to that fraction of the
    domain width in its dimension.  `bounce_damping` scales the reflected
    velocity when a coordinate hits the box (0 absorbs, 1 bounces losslessly).
    """

    c1: float = 2.0
    c2: float = 2.0
    w_start: float = 0.9
    w_end: float = 0.4
    v_max: float | None = None
    bounce_damping: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("learning rates c1 and c2 must be >= 0")
        if not self.w_start >= self.w_end >= 0.0:
            raise ValueError("need w_start >= w_end >= 0")
        if self.v_max is not None and self.v_max <= 0.0:
            raise ValueError("v_max must be > 0 when set")
        if not 0.0 <= self.bounce_damping <= 1.0:
            raise ValueError("bounce_damping must be in [0, 1]")


def inertia_weight(config: PsoConfig, iteration: int) -> float:
    """Linear schedule hitting w_start at iteration 0 and w_end at the last one."""
    span = config.max_iterations - 1
    if span <= 0:
        return config.w_start
    fraction = min(max(iteration / span, 0.0), 1.0)
    return config.w_start + (config.w_end - config.w_start) * fraction


def pso_update_velocity(
    velocities,
    positions,
    personal_bests,
    global_best,
    w: float,
    config: PsoConfig,
    rng: np.random.Generator,
    domain: SearchDomain,
) -> np.ndarray:
    """New (N, D) velocities w*v + c1*R1*(pbest - x) + c2*R2*(gbest - x), v_max-clipped.

    Draws all R1 of the swarm, then all R2, one per coordinate.
    """
    x = np.asarray(positions, dtype=float)
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
    new_v = (
        w * np.asarray(velocities, dtype=float)
        + config.c1 * r1 * (personal_bests - x)
        + config.c2 * r2 * (global_best - x)
    )
    if config.v_max is not None:
        limit = config.v_max * domain.width
        new_v = np.clip(new_v, -limit, limit)
    return new_v


def pso_update_position(positions, velocities, domain: SearchDomain,
                        bounce_damping: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamped positions x + v, and velocities reflected and damped where x + v left the box."""
    v = np.asarray(velocities, dtype=float)
    raw = np.asarray(positions, dtype=float) + v
    hit = (raw < domain.lower) | (raw > domain.upper)
    return domain.clamp(raw), np.where(hit, -bounce_damping * v, v)


@dataclass
class PsoState:
    """The swarm after `iteration` steps; the count drives the inertia schedule."""

    positions: np.ndarray
    velocities: np.ndarray
    fitnesses: np.ndarray
    personal_best_positions: np.ndarray
    personal_best_fitnesses: np.ndarray
    iteration: int


def init_state(objective: ObjectiveSpec, config: PsoConfig,
               rng: np.random.Generator) -> PsoState:
    """Asymmetric-init positions, zero velocities, personal bests seeded from the start."""
    positions = init_positions(objective.domain, config.swarm_size, rng)
    fitnesses = objective.evaluate_batch(positions)
    return PsoState(
        positions=positions,
        velocities=np.zeros_like(positions),
        fitnesses=fitnesses,
        personal_best_positions=positions.copy(),
        personal_best_fitnesses=fitnesses.copy(),
        iteration=0,
    )


def pso_step(state: PsoState, objective: ObjectiveSpec, config: PsoConfig,
             rng: np.random.Generator) -> PsoState:
    """Advance the swarm one iteration (batched R1 draws, then batched R2)."""
    global_best = state.personal_best_positions[np.argmin(state.personal_best_fitnesses)]
    velocities = pso_update_velocity(
        state.velocities, state.positions, state.personal_best_positions,
        global_best, inertia_weight(config, state.iteration),
        config, rng, objective.domain,
    )
    positions, velocities = pso_update_position(
        state.positions, velocities, objective.domain, config.bounce_damping)
    fitnesses = objective.evaluate_batch(positions)

    improved = fitnesses < state.personal_best_fitnesses
    personal_best_positions = np.where(improved[:, None], positions,
                                       state.personal_best_positions)
    personal_best_fitnesses = np.where(improved, fitnesses,
                                       state.personal_best_fitnesses)
    return PsoState(
        positions=positions,
        velocities=velocities,
        fitnesses=fitnesses,
        personal_best_positions=personal_best_positions,
        personal_best_fitnesses=personal_best_fitnesses,
        iteration=state.iteration + 1,
    )


def pso_run(objective: ObjectiveSpec, config: PsoConfig) -> RunResult:
    """Full seeded baseline run with the same result contract as rwpso_run."""
    return run_loop("pso", objective, config, init_state, pso_step)
