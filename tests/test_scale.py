"""The walker's graph measures length in absolute units; PSO does not.

Sphere N=20 D=10 on its box scaled by s: bounds +-100 s, start region
[50 s, 100 s] and threshold 1e-2 s^2 pose the same problem at every s up to
units.  s = 2**-7 is a power of two, so scaling is exact in floating point.
PSO's update is linear in the coordinates, so its runs at both scales agree
bit for bit.  The walker compares each rank-weighted distance with the
self-loop weight `graph.SELF_WEIGHT = 1`, an absolute length: a swarm
narrower than about 1/N freezes on its self-loops, so on the small box it
stalls before the threshold.  REPORT.md, "Units of length", has the table.

The same freeze bounds the walker inside sphere's own box: it leads PSO to
1e-2 but stalls near 5e-4, while PSO goes on down to 1e-8 and below.
REPORT.md, "Sphere convergence", has the level table.
"""

import pytest

from swarmwalk.objectives import ObjectiveSpec, SearchDomain, eval_sphere, make_objective
from swarmwalk.pso import pso_run
from swarmwalk.results import RunConfig
from swarmwalk.rwpso import RwpsoConfig, rwpso_run

SMALL = 2.0**-7


def scaled_run(run, config_class, scale, seed, max_iterations):
    objective = ObjectiveSpec(
        "sphere", SearchDomain(10, -100 * scale, 100 * scale, 50 * scale, 100 * scale),
        eval_sphere)
    config = config_class(swarm_size=20, max_iterations=max_iterations, seed=seed,
                          fitness_threshold=1e-2 * scale**2)
    return run(objective, config)


@pytest.mark.parametrize("seed", range(3))
def test_pso_is_the_same_at_every_scale(seed):
    unit, small = (scaled_run(pso_run, RunConfig, scale, seed, 1000) for scale in (1.0, SMALL))
    assert unit.iterations_used == small.iterations_used < 1000
    assert unit.best_fitness == small.best_fitness / SMALL**2


@pytest.mark.parametrize("seed", range(3))
def test_walker_freezes_on_a_small_box(seed):
    unit, small = (scaled_run(rwpso_run, RwpsoConfig, scale, seed, 500)
                   for scale in (1.0, SMALL))
    assert unit.iterations_used < 200 and unit.best_fitness <= 1e-2
    assert small.iterations_used == 500 and small.best_fitness > 1e-2 * SMALL**2


@pytest.mark.parametrize("seed", range(3))
def test_walker_stalls_above_where_pso_goes_on_sphere(seed):
    sphere = make_objective("sphere", 10)
    walker = rwpso_run(sphere, RwpsoConfig(swarm_size=20, max_iterations=1000, seed=seed))
    pso = pso_run(sphere, RunConfig(swarm_size=20, max_iterations=1000, seed=seed))
    assert walker.iterations_used == pso.iterations_used == 1000
    assert walker.best_fitness > 1e-4 > pso.best_fitness
