"""Velocity-free particle mover driven by rank-biased random walks.

Each iteration brings the swarm graph up to date (only the distances of
particles that moved are recomputed), then every particle j draws a uniform
r and hops: if r falls below the smallest entry of column j of the hop
matrix (its hop distribution) it targets the particle holding that smallest
probability, otherwise it targets the particle holding the largest
probability.  The first branch almost never fires, so particle j in
effect targets the argmax over i of rank_i * d_ij, its own entry
rank_j * 1 (the self-loop weight) among them.  A particle stays put when
that own entry wins: its gap to itself is 0, and so is its noise
(REPORT.md, "How often the coin fires", counts both).  Movement
toward the target is the walk's mean, not a sampled walk: the expected drift
K of a constrained biased walk tuned to cover the displacement in
`WALK_HORIZON` = 2 steps, which takes the particle to the midpoint toward
its target (REPORT.md, "Move ablation"), plus a zero-mean Gaussian
perturbation drawn from K, whose scale is `gaussian_sigma` times the mean
absolute gap to the target, one scale per particle, so the noise anneals as
the swarm contracts.  `gaussian_sigma` is the walker's one setting.  No
velocities and no personal/global best memory are kept; the run loop
records the best-so-far for reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmwalk.graph import build_distance_matrix, hop_probabilities, update_distance_matrix
from swarmwalk.objectives import ObjectiveSpec, SearchDomain
from swarmwalk.results import RunConfig, RunResult, _is_integer, run_loop

__all__ = [
    "WALK_HORIZON",
    "RwpsoConfig",
    "RwpsoState",
    "select_target",
    "compute_delta",
    "displacement_vector",
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
    late.  Too small a factor freezes the swarm before it reaches the
    optimum and too large a one never lets it settle; the workable window
    depends on the function and the cell (REPORT.md, "Tuning sensitivity").
    """

    gaussian_sigma: float = 0.7

    def __post_init__(self):
        super().__post_init__()
        if self.gaussian_sigma <= 0.0:
            raise ValueError(f"gaussian_sigma must be > 0, got {self.gaussian_sigma!r}")


def select_target(hops, r) -> np.ndarray:
    """One target per source j from its hop distribution hops[:, j] and draw r[j].

    `hops` is column-stochastic, as `hop_probabilities` returns it.  The
    argmin of column j when r[j] falls below the column minimum, otherwise
    the argmax; ties resolve to the lowest index.  In a run the column
    minimum is a small probability, so the argmin branch fires on well
    under 1% of draws, and a source that targets itself (and so does not
    move) almost always does so through the argmax: its self-loop entry is
    the largest of its column.
    """
    hops = np.asarray(hops, dtype=float)
    r = np.asarray(r, dtype=float)
    if hops.ndim != 2 or hops.shape[0] == 0:
        raise ValueError("hop matrix must be a non-empty (M, N) array")
    if r.shape != hops.shape[1:]:
        raise ValueError("need one uniform draw per hop-matrix column")
    return np.where(r < hops.min(axis=0), hops.argmin(axis=0), hops.argmax(axis=0))


def compute_delta(displacement: float, n: int) -> float:
    """Step-split parameter (1 - d/n) / 2 of a walk covering d in n steps.

    For |d| <= n this is the probability of the walk's negative unit step;
    the complementary walk has expected drift d/n per step and lands on the
    target in expectation after n steps.  Outside that range no unit-step
    walk covers d in n steps, and the value leaves [0, 1]
    (`compute_delta(3.0, 2)` is -0.25).
    """
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"step count must be an integer >= 1, got {n}")
    return (1.0 - displacement / n) / 2.0


def displacement_vector(positions, targets) -> np.ndarray:
    """Movement term K, the walk's per-step drift: (targets - positions) / WALK_HORIZON."""
    p = np.asarray(positions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError("positions and targets must share one shape")
    return (t - p) / WALK_HORIZON


def gaussian_term(config: RwpsoConfig, rng: np.random.Generator, k) -> np.ndarray:
    """One draw of zero-mean Gaussian perturbations shaped like the drift `k`.

    Each particle (row) has one isotropic scale, `gaussian_sigma` times its
    mean absolute gap to the target, `WALK_HORIZON * mean(|k|)`.
    """
    k = np.asarray(k, dtype=float)
    gap = WALK_HORIZON * np.mean(np.abs(k), axis=-1, keepdims=True)
    # the values of rng.normal(0, sigma, size) up to the sign of a zero,
    # without its broadcasting
    return config.gaussian_sigma * gap * rng.standard_normal(k.shape)


def update_position(positions, k, g, domain: SearchDomain) -> np.ndarray:
    """New positions = old + movement term + Gaussian term, clamped to the box.

    The movement term `k` and the Gaussian term `g` must have the positions'
    shape; another shape raises ValueError rather than broadcasting.
    """
    p = np.asarray(positions, dtype=float)
    if np.shape(k) != p.shape or np.shape(g) != p.shape:
        raise ValueError(f"movement and noise terms must have the positions' shape {p.shape}, "
                         f"got {np.shape(k)} and {np.shape(g)}")
    return domain.clamp(p + k + g)


@dataclass
class RwpsoState:
    """Mutable-by-replacement snapshot of one run; steps return fresh states.

    `distances` is build_distance_matrix(positions), carried across steps.
    """

    positions: np.ndarray
    fitnesses: np.ndarray
    distances: np.ndarray


def init_state(positions: np.ndarray, fitnesses: np.ndarray) -> RwpsoState:
    return RwpsoState(positions, fitnesses, build_distance_matrix(positions))


def rwpso_step(state: RwpsoState, objective: ObjectiveSpec, config: RwpsoConfig,
               rng: np.random.Generator) -> RwpsoState:
    """Advance the whole swarm one iteration against a frozen graph snapshot.

    Per particle this draws one uniform for target selection and
    `objective.dim` normals for the perturbation; the batch draw order (all
    uniforms, then the normal matrix) is part of the seeded-determinism
    contract.
    """
    r = rng.random(config.swarm_size)
    hops = hop_probabilities(state.distances, state.fitnesses)
    targets = state.positions[select_target(hops, r)]
    k = displacement_vector(state.positions, targets)
    positions = update_position(state.positions, k, gaussian_term(config, rng, k),
                                objective.domain)
    fitnesses = objective.evaluate_batch(positions)
    moved = np.any(positions != state.positions, axis=1)
    return RwpsoState(positions, fitnesses,
                      update_distance_matrix(state.distances, positions, moved))


def rwpso_run(objective: ObjectiveSpec, config: RwpsoConfig) -> RunResult:
    """Full seeded run: initialize, iterate until the budget or threshold."""
    return run_loop("rwpso", objective, config, init_state, rwpso_step)
