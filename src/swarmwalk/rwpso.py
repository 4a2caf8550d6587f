"""Velocity-free particle mover driven by rank-biased random walks.

Each iteration brings the swarm graph up to date (only the distances of
particles that moved are recomputed), then every particle draws a uniform
r and hops: if r falls below the smallest entry of its hop distribution it
targets the particle holding that smallest probability (usually itself, so
good particles tend to stay put), otherwise it targets the particle holding
the largest probability.  Movement toward the target is the expected drift of
a constrained biased walk tuned to cover the displacement in `walk_horizon`
steps, plus a Gaussian perturbation.  No velocities and no personal/global
best memory are kept; the best-so-far trace is recorded for reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmwalk.graph import build_distance_matrix, hop_probabilities, update_distance_matrix
from swarmwalk.objectives import ObjectiveSpec, SearchDomain, init_positions
from swarmwalk.results import RunResult, check_field_types, run_loop

__all__ = [
    "SIGMA_MODES",
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

# fixed: sigma is an absolute scale shared by every coordinate.
# range_scaled: sigma scales the domain width per coordinate.
# displacement_scaled: sigma scales the mean absolute per-coordinate gap to
# the chosen target, the same scale in every coordinate, so the perturbation
# anneals as the swarm contracts yet never freezes single coordinates.
SIGMA_MODES = ("fixed", "range_scaled", "displacement_scaled")


@dataclass(frozen=True)
class RwpsoConfig:
    """Tunables for one run of the random-walk mover.

    Defaults are the shipped configuration: a 2-step walk horizon (each move
    covers half the gap to the target) with displacement-scaled Gaussian
    noise at factor 0.7.  That pairing keeps the swarm's sampling radius
    proportional to how far particles still jump, so it crosses the search
    box early and anneals into a fine local search late; measured on the
    bundled benchmarks it is the stable region (factors below ~0.6 freeze
    the swarm before it reaches the optimum, above ~0.75 it never settles).
    """

    swarm_size: int
    dim: int
    max_iterations: int
    seed: int = 0
    walk_horizon: int = 2
    gaussian_mu: float = 0.0
    gaussian_sigma_mode: str = "displacement_scaled"
    gaussian_sigma: float = 0.7
    fitness_threshold: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.walk_horizon < 1:
            raise ValueError("walk_horizon must be >= 1")
        if self.gaussian_sigma_mode not in SIGMA_MODES:
            raise ValueError(f"unknown gaussian_sigma_mode {self.gaussian_sigma_mode!r}")
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


def compute_delta(displacement: float, walk_horizon: int) -> float:
    """Step-split parameter (1 - d/n) / 2 of a walk covering d in n steps.

    This is the probability of the walk's negative unit step; the
    complementary walk has expected drift d/n per step and lands on the
    target in expectation after n steps.
    """
    if walk_horizon < 1:
        raise ValueError("walk_horizon must be >= 1")
    return (1.0 - displacement / walk_horizon) / 2.0


def displacement_vector(positions, targets, config: RwpsoConfig) -> np.ndarray:
    """Movement term K, the walk's per-step drift: (targets - positions) / walk_horizon."""
    p = np.asarray(positions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError("positions and targets must share one shape")
    return (t - p) / config.walk_horizon


def resolve_sigma(config: RwpsoConfig, domain: SearchDomain, displacement=None) -> np.ndarray:
    """Per-dimension Gaussian scale for the configured sigma mode.

    `displacement` (target minus position) is required in displacement_scaled
    mode and ignored otherwise; that mode uses one isotropic scale per
    particle (row), factor * mean(|displacement|) over the coordinates,
    returned as an (N, 1) column for an (N, D) displacement so that it
    broadcasts over the coordinates.
    """
    if config.gaussian_sigma_mode == "fixed":
        return np.full(config.dim, config.gaussian_sigma)
    if config.gaussian_sigma_mode == "range_scaled":
        return config.gaussian_sigma * domain.width
    if displacement is None:
        raise ValueError("displacement_scaled sigma needs the displacement to the target")
    gap = np.asarray(displacement, dtype=float)
    return config.gaussian_sigma * np.mean(np.abs(gap), axis=-1, keepdims=True)


def gaussian_term(config: RwpsoConfig, domain: SearchDomain,
                  rng: np.random.Generator, displacement) -> np.ndarray:
    """One draw of Gaussian perturbations shaped like `displacement` (targets - positions)."""
    sigma = resolve_sigma(config, domain, displacement)
    # the same bits as rng.normal(mu, sigma, size), without its broadcasting
    return config.gaussian_mu + sigma * rng.standard_normal(np.shape(displacement))


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
    iteration: int
    best_fitness: float
    best_position: np.ndarray


def init_state(objective: ObjectiveSpec, config: RwpsoConfig,
               rng: np.random.Generator) -> RwpsoState:
    positions = init_positions(objective.domain, config.swarm_size, rng)
    fitnesses = objective.evaluate_batch(positions)
    best = int(np.argmin(fitnesses))
    return RwpsoState(
        positions=positions,
        fitnesses=fitnesses,
        distances=build_distance_matrix(positions),
        iteration=0,
        best_fitness=float(fitnesses[best]),
        best_position=positions[best].copy(),
    )


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
    k = displacement_vector(state.positions, targets, config)
    g = gaussian_term(config, objective.domain, rng, targets - state.positions)
    positions = update_position(state.positions, k, g, objective.domain)
    fitnesses = objective.evaluate_batch(positions)
    moved = np.any(positions != state.positions, axis=1)
    distances = update_distance_matrix(state.distances, positions, moved)

    best = int(np.argmin(fitnesses))
    best_fitness = state.best_fitness
    best_position = state.best_position
    if fitnesses[best] < best_fitness:
        best_fitness = float(fitnesses[best])
        best_position = positions[best].copy()

    return RwpsoState(
        positions=positions,
        fitnesses=fitnesses,
        distances=distances,
        iteration=state.iteration + 1,
        best_fitness=best_fitness,
        best_position=best_position,
    )


def rwpso_run(objective: ObjectiveSpec, config: RwpsoConfig,
              best_fraction: float = 0.8) -> RunResult:
    """Full seeded run: initialize, iterate until the budget or threshold."""
    return run_loop("rwpso", objective, config, best_fraction, init_state, rwpso_step)
