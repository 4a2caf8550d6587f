"""Velocity-free particle mover driven by rank-biased random walks.

Each iteration brings the swarm graph up to date (only the distances of
particles that moved are recomputed), then every particle draws a uniform
r and hops: if r falls below the smallest entry of its hop distribution it
targets the particle holding that smallest probability (usually itself, so
good particles tend to stay put), otherwise it targets the particle holding
the largest probability.  Movement toward the target is the expected drift of
a constrained biased walk tuned to cover the displacement in `WALK_HORIZON`
= 2 steps, so each move covers half the gap, plus a zero-mean Gaussian
perturbation whose scale is `gaussian_sigma` times the mean absolute gap to
the target, one scale per particle, so the noise anneals as the swarm
contracts.  `gaussian_sigma` is the walker's one setting.  No velocities and
no personal/global best memory are kept; the run loop records the
best-so-far for reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmwalk.graph import build_distance_matrix, hop_probabilities, update_distance_matrix
from swarmwalk.objectives import ObjectiveSpec, SearchDomain, init_positions
from swarmwalk.results import RunConfig, RunResult, run_loop

__all__ = [
    "WALK_HORIZON",
    "RwpsoConfig",
    "RwpsoState",
    "select_target",
    "compute_delta",
    "displacement_vector",
    "resolve_sigma",
    "gaussian_term",
    "update_position",
    "init_state",
    "rwpso_step",
    "rwpso_run",
]

# Steps of the walk whose per-step drift moves a particle: each move covers
# 1 / WALK_HORIZON of the gap to its target.
WALK_HORIZON = 2


@dataclass(frozen=True)
class RwpsoConfig(RunConfig):
    """Tunables for one run of the random-walk mover.

    The one tunable is the Gaussian noise: its scale is `gaussian_sigma`
    (default 0.7) times the mean absolute gap to the target, beside a drift
    that covers the gap in `WALK_HORIZON` steps.  That pairing keeps the
    swarm's sampling radius proportional to how far particles still jump,
    so it crosses the search box early and anneals into a fine local search
    late.  Too small a factor freezes the swarm before it reaches
    the optimum and too large a one never lets it settle, but the workable
    window depends on the function and the cell: 0.60-0.75 on sphere N=20
    D=10, 0.52-0.53 on rastrigin N=80 D=10 (REPORT.md, "Tuning sensitivity").
    """

    gaussian_sigma: float = 0.7

    def __post_init__(self):
        super().__post_init__()
        if self.gaussian_sigma <= 0.0:
            raise ValueError("gaussian_sigma must be > 0")


def select_target(prob_rows, r) -> np.ndarray:
    """One target per source j from hop distribution prob_rows[j] and draw r[j].

    The argmin when r[j] falls below the row minimum, otherwise the argmax;
    ties resolve to the lowest index.
    """
    rows = np.asarray(prob_rows, dtype=float)
    r = np.asarray(r, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("probability rows must be a non-empty (N, M) array")
    if r.shape != rows.shape[:1]:
        raise ValueError("need one uniform draw per probability row")
    return np.where(r < rows.min(axis=1), rows.argmin(axis=1), rows.argmax(axis=1))


def compute_delta(displacement: float, n: int) -> float:
    """Step-split parameter (1 - d/n) / 2 of a walk covering d in n steps.

    For |d| <= n this is the probability of the walk's negative unit step;
    the complementary walk has expected drift d/n per step and lands on the
    target in expectation after n steps.  Outside that range no unit-step
    walk covers d in n steps, and the value leaves [0, 1]
    (`compute_delta(3.0, 2)` is -0.25).
    """
    if n < 1:
        raise ValueError("step count must be >= 1")
    return (1.0 - displacement / n) / 2.0


def displacement_vector(positions, targets) -> np.ndarray:
    """Movement term K, the walk's per-step drift: (targets - positions) / WALK_HORIZON."""
    p = np.asarray(positions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError("positions and targets must share one shape")
    return (t - p) / WALK_HORIZON


def resolve_sigma(config: RwpsoConfig, displacement) -> np.ndarray:
    """Gaussian scale of each particle: `gaussian_sigma` * mean(|displacement|).

    `displacement` is target minus position.  The scale is one isotropic
    value per particle (row), returned as an (N, 1) column for an (N, D)
    displacement so that it broadcasts over the coordinates.
    """
    gap = np.asarray(displacement, dtype=float)
    return config.gaussian_sigma * np.mean(np.abs(gap), axis=-1, keepdims=True)


def gaussian_term(config: RwpsoConfig, rng: np.random.Generator, displacement) -> np.ndarray:
    """One draw of zero-mean Gaussian perturbations shaped like `displacement`
    (targets - positions)."""
    # the values of rng.normal(0, sigma, size) up to the sign of a zero,
    # without its broadcasting
    return resolve_sigma(config, displacement) * rng.standard_normal(np.shape(displacement))


def update_position(positions, k, g, domain: SearchDomain) -> np.ndarray:
    """New positions = old + movement term + Gaussian term, clamped to the box."""
    return domain.clamp(np.asarray(positions, dtype=float) + k + g)


@dataclass
class RwpsoState:
    """Mutable-by-replacement snapshot of one run; steps return fresh states.

    `distances` is build_distance_matrix(positions), carried across steps.
    """

    positions: np.ndarray
    fitnesses: np.ndarray
    distances: np.ndarray


def init_state(objective: ObjectiveSpec, config: RwpsoConfig,
               rng: np.random.Generator) -> RwpsoState:
    positions = init_positions(objective.domain, config.swarm_size, rng)
    return RwpsoState(positions, objective.evaluate_batch(positions),
                      build_distance_matrix(positions))


def rwpso_step(state: RwpsoState, objective: ObjectiveSpec, config: RwpsoConfig,
               rng: np.random.Generator) -> RwpsoState:
    """Advance the whole swarm one iteration against a frozen graph snapshot.

    Per particle this draws one uniform for target selection and `dim`
    normals for the perturbation; the batch draw order (all uniforms, then
    the normal matrix) is part of the seeded-determinism contract.
    """
    prob_rows = hop_probabilities(state.distances, state.fitnesses).T
    r = rng.random(config.swarm_size)
    targets = state.positions[select_target(prob_rows, r)]
    k = displacement_vector(state.positions, targets)
    g = gaussian_term(config, rng, targets - state.positions)
    positions = update_position(state.positions, k, g, objective.domain)
    fitnesses = objective.evaluate_batch(positions)
    moved = np.any(positions != state.positions, axis=1)
    return RwpsoState(positions, fitnesses,
                      update_distance_matrix(state.distances, positions, moved))


def rwpso_run(objective: ObjectiveSpec, config: RwpsoConfig) -> RunResult:
    """Full seeded run: initialize, iterate until the budget or threshold."""
    return run_loop("rwpso", objective, config, init_state, rwpso_step)
