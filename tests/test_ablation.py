"""Target-choice ablation: the rank-biased target is what earns the walker
its speed.

Each variant is the walker step with only its target line swapped; the
draws, drift, noise, clamp and sigma are the walker's own.  `paper` is the
walker itself, `gbest` sends every particle toward the swarm's best, and
`random` sends each particle toward a uniform other particle chosen with
the same draw r.
"""

import numpy as np
import pytest

from swarmwalk.graph import hop_probabilities, update_distance_matrix
from swarmwalk.objectives import make_objective
from swarmwalk.results import run_loop
from swarmwalk.rwpso import (
    RwpsoConfig,
    RwpsoState,
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


def ablation_step(choose_targets):
    """`rwpso_step` with its target choice replaced by `choose_targets(state, r)`."""
    def step(state, objective, config, rng):
        r = rng.random(config.swarm_size)
        targets = state.positions[choose_targets(state, r)]
        k = displacement_vector(state.positions, targets)
        positions = update_position(state.positions, k, gaussian_term(config, rng, k),
                                    objective.domain)
        fitnesses = objective.evaluate_batch(positions)
        moved = np.any(positions != state.positions, axis=1)
        return RwpsoState(positions, fitnesses,
                          update_distance_matrix(state.distances, positions, moved))
    return step


def sphere_cell(seed):
    """Sphere N=20 D=10, 500 iterations, stopping at the threshold."""
    return make_objective("sphere", 10), RwpsoConfig(swarm_size=20, max_iterations=500,
                                                     seed=seed, fitness_threshold=THRESHOLD)


def run_variant(variant, seed):
    return run_loop("rwpso", *sphere_cell(seed), init_state, ablation_step(TARGETS[variant]))


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_variant_is_the_walker(seed):
    assert run_variant("paper", seed).to_dict() == rwpso_run(*sphere_cell(seed)).to_dict()


def test_only_the_rank_biased_target_reaches_the_threshold():
    reached = {variant: [run_variant(variant, seed).best_fitness <= THRESHOLD
                         for seed in SEEDS]
               for variant in TARGETS}
    assert reached == {"paper": [True] * 5, "gbest": [False] * 5, "random": [False] * 5}
