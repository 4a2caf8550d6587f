"""Inertia-weight particle swarm optimizer (the comparison baseline).

Classic formulation: each particle keeps a velocity and its own best
position, and the swarm shares a global best: the best personal best, the
lowest index on ties.  It runs the textbook constants, c1 = c2 = 2 with the
inertia weight decaying linearly from 0.9 to 0.4 across the run, and has no
settings beyond the run's own (`RunConfig`).  R1/R2 are drawn per particle
per dimension; the historical scalar-per-particle draw collapses the swarm
onto a line on corner-initialized problems.  Positions clamp to the box;
the velocity component of a clamped coordinate is reflected and damped so
the swarm cannot wedge on a boundary with every attraction term zeroed out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmwalk.objectives import ObjectiveSpec, SearchDomain
from swarmwalk.results import RunConfig, RunResult, run_loop

__all__ = [
    "C1",
    "C2",
    "W_START",
    "W_END",
    "BOUNCE_DAMPING",
    "PsoState",
    "inertia_weight",
    "pso_update_velocity",
    "pso_update_position",
    "init_state",
    "pso_step",
    "pso_run",
]


# The textbook parameters: the cognitive and social rates, and the inertia
# weight's linear schedule across the run.
C1 = C2 = 2.0
W_START, W_END = 0.9, 0.4
# The share of its velocity that a coordinate keeps, reversed, when it hits
# the box.  Absorbing bounds (0) wedge ~20% of runs from the corner
# initialization on a box face where every attraction term vanishes.
BOUNCE_DAMPING = 0.5


def inertia_weight(config: RunConfig, iteration: int) -> float:
    """Linear schedule hitting W_START at iteration 0 and W_END at the run's last one."""
    span = config.max_iterations - 1
    if span <= 0:
        return W_START
    fraction = min(max(iteration / span, 0.0), 1.0)
    return W_START + (W_END - W_START) * fraction


def pso_update_velocity(
    velocities,
    positions,
    personal_bests,
    global_best,
    w: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """New (N, D) velocities w*v + C1*R1*(pbest - x) + C2*R2*(gbest - x).

    Draws all R1 of the swarm, then all R2, one per coordinate.
    """
    x = np.asarray(positions, dtype=float)
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
    return (
        w * np.asarray(velocities, dtype=float)
        + C1 * r1 * (personal_bests - x)
        + C2 * r2 * (global_best - x)
    )


def pso_update_position(positions, velocities,
                        domain: SearchDomain) -> tuple[np.ndarray, np.ndarray]:
    """Clamped positions x + v, and velocities reflected and damped where x + v left the box."""
    v = np.asarray(velocities, dtype=float)
    raw = np.asarray(positions, dtype=float) + v
    clamped = domain.clamp(raw)
    return clamped, np.where(clamped != raw, -BOUNCE_DAMPING * v, v)


@dataclass
class PsoState:
    """The swarm after `iteration` steps; the count drives the inertia schedule."""

    positions: np.ndarray
    velocities: np.ndarray
    fitnesses: np.ndarray
    personal_best_positions: np.ndarray
    personal_best_fitnesses: np.ndarray
    iteration: int = 0


def init_state(positions: np.ndarray, fitnesses: np.ndarray) -> PsoState:
    """The start swarm with zero velocities and personal bests seeded from it."""
    return PsoState(
        positions=positions,
        velocities=np.zeros_like(positions),
        fitnesses=fitnesses,
        personal_best_positions=positions.copy(),
        personal_best_fitnesses=fitnesses.copy(),
    )


def pso_step(state: PsoState, objective: ObjectiveSpec, config: RunConfig,
             rng: np.random.Generator) -> PsoState:
    """Advance the swarm one iteration (batched R1 draws, then batched R2)."""
    global_best = state.personal_best_positions[np.argmin(state.personal_best_fitnesses)]
    velocities = pso_update_velocity(
        state.velocities, state.positions, state.personal_best_positions,
        global_best, inertia_weight(config, state.iteration), rng,
    )
    positions, velocities = pso_update_position(state.positions, velocities, objective.domain)
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


def pso_run(objective: ObjectiveSpec, config: RunConfig) -> RunResult:
    """Full seeded baseline run with the same result contract as rwpso_run."""
    return run_loop("pso", objective, config, init_state, pso_step)
