"""Target-choice and move ablations: the rank-biased target and the walk's
mean move are what earn the walker its speed.

Each variant is the walker step with only its target line or only its move
swapped; the rest, the target draw r, clamp and sigma included, is the
walker's own.  `paper` is the walker itself.  Target variants: `gbest`
sends every particle toward the swarm's best, and `random` sends each
particle toward a uniform other particle chosen with the same draw r.
Move variants, each a reading of the paper's "toss of a coin" or half of
the walker's move: `drift only` adds the drift K with the noise zeroed,
`noise only` adds the noise scaled from K but not K, and `coord` samples
one step of the walk per coordinate instead of taking its mean.
"""

import numpy as np
import pytest

from swarmwalk.graph import hop_probabilities, update_distance_matrix
from swarmwalk.objectives import make_objective
from swarmwalk.results import run_loop
from swarmwalk.rwpso import (
    WALK_HORIZON,
    RwpsoConfig,
    RwpsoState,
    compute_delta,
    displacement_vector,
    gaussian_term,
    init_state,
    rwpso_run,
    select_target,
    update_position,
)

THRESHOLD = 1e-2
SEEDS = range(5)


def paper_targets(state, r):
    return select_target(hop_probabilities(state.distances, state.fitnesses), r)


def gbest_targets(state, r):
    return np.full(r.shape, np.argmin(state.fitnesses))


def random_targets(state, r):
    # a uniform index among the N - 1 others: skip over the source itself
    n = r.size
    i = np.floor(r * (n - 1)).astype(int)
    return i + (i >= np.arange(n))


TARGETS = {"paper": paper_targets, "gbest": gbest_targets, "random": random_targets}


# A move maps the drift K to the (movement, noise) pair `update_position` adds.
def paper_move(config, rng, k):
    return k, gaussian_term(config, rng, k)


def drift_only_move(config, rng, k):
    return k, np.zeros_like(k)


def noise_only_move(config, rng, k):
    return np.zeros_like(k), gaussian_term(config, rng, k)


def coord_move(config, rng, k):
    # one step of length |gap_c| per coordinate, toward the target with the
    # walk's probability 1 - compute_delta(1, WALK_HORIZON) = 3/4, else away:
    # its mean is K
    gap = WALK_HORIZON * k
    toward = rng.random(k.shape) >= compute_delta(1, WALK_HORIZON)
    return np.where(toward, gap, -gap), np.zeros_like(k)


MOVES = {"paper": paper_move, "drift only": drift_only_move,
         "noise only": noise_only_move, "coord": coord_move}


def ablation_step(choose_targets, move):
    """`rwpso_step` with its target choice replaced by `choose_targets(state, r)`
    and its movement and noise by `move(config, rng, k)`."""
    def step(state, objective, config, rng):
        r = rng.random(config.swarm_size)
        targets = state.positions[choose_targets(state, r)]
        k = displacement_vector(state.positions, targets)
        positions = update_position(state.positions, *move(config, rng, k), objective.domain)
        fitnesses = objective.evaluate_batch(positions)
        moved = np.any(positions != state.positions, axis=1)
        return RwpsoState(positions, fitnesses,
                          update_distance_matrix(state.distances, positions, moved))
    return step


def sphere_cell(seed):
    """Sphere N=20 D=10, 500 iterations, stopping at the threshold."""
    return make_objective("sphere", 10), RwpsoConfig(swarm_size=20, max_iterations=500,
                                                     seed=seed, fitness_threshold=THRESHOLD)


def run_variant(seed, target="paper", move="paper"):
    step = ablation_step(TARGETS[target], MOVES[move])
    return run_loop("rwpso", *sphere_cell(seed), init_state, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_variant_is_the_walker(seed):
    assert run_variant(seed).to_dict() == rwpso_run(*sphere_cell(seed)).to_dict()


def test_only_the_rank_biased_target_reaches_the_threshold():
    reached = {target: [run_variant(seed, target=target).best_fitness <= THRESHOLD
                        for seed in SEEDS]
               for target in TARGETS}
    assert reached == {"paper": [True] * 5, "gbest": [False] * 5, "random": [False] * 5}


def test_only_the_walks_mean_reaches_the_threshold():
    reached = {move: [run_variant(seed, move=move).best_fitness <= THRESHOLD
                      for seed in SEEDS]
               for move in MOVES}
    assert reached == {"paper": [True] * 5, "drift only": [False] * 5,
                       "noise only": [False] * 5, "coord": [False] * 5}
