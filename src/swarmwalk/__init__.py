"""Swarm optimization by rank-biased random walks, with a PSO baseline.

The package bundles five benchmark objectives with asymmetric initialization,
standalone one-dimensional random-walk primitives, the per-iteration swarm
graph (distances, fitness ranks, hop probabilities), the velocity-free
random-walk optimizer built on top of it, a classic inertia-weight PSO
baseline, and an experiment harness with a CLI.
"""

from swarmwalk.graph import build_distance_matrix, compute_ranks, hop_probabilities
from swarmwalk.harness import (
    ALGORITHMS,
    DEFAULT_THRESHOLDS,
    ExperimentOutcome,
    ExperimentSpec,
    derive_seed,
    format_table,
    load_spec,
    read_results,
    run_cell,
    run_experiment,
    run_single,
    write_results,
)
from swarmwalk.objectives import (
    FUNCTION_NAMES,
    ObjectiveSpec,
    SearchDomain,
    eval_binh4,
    eval_rastrigin,
    eval_rosenbrock,
    eval_schaffer_n1,
    eval_sphere,
    make_objective,
)
from swarmwalk.pso import PsoState, pso_run, pso_step, pso_update_position, pso_update_velocity
from swarmwalk.results import AggregateStats, RunResult, init_positions, mean_best_fitness
from swarmwalk.rwpso import (
    RwpsoConfig,
    RwpsoState,
    compute_delta,
    displacement_vector,
    gaussian_term,
    rwpso_run,
    rwpso_step,
    select_target,
    update_position,
)
from swarmwalk.walk import biased_walk, constrained_biased_walk, simple_walk, walk_expectation

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AggregateStats",
    "DEFAULT_THRESHOLDS",
    "ExperimentOutcome",
    "ExperimentSpec",
    "FUNCTION_NAMES",
    "ObjectiveSpec",
    "PsoState",
    "RunResult",
    "RwpsoConfig",
    "RwpsoState",
    "SearchDomain",
    "biased_walk",
    "build_distance_matrix",
    "compute_delta",
    "compute_ranks",
    "constrained_biased_walk",
    "derive_seed",
    "displacement_vector",
    "eval_binh4",
    "eval_rastrigin",
    "eval_rosenbrock",
    "eval_schaffer_n1",
    "eval_sphere",
    "format_table",
    "gaussian_term",
    "hop_probabilities",
    "init_positions",
    "load_spec",
    "make_objective",
    "mean_best_fitness",
    "pso_run",
    "pso_step",
    "pso_update_position",
    "pso_update_velocity",
    "read_results",
    "run_cell",
    "run_experiment",
    "run_single",
    "rwpso_run",
    "rwpso_step",
    "select_target",
    "simple_walk",
    "update_position",
    "walk_expectation",
    "write_results",
]
