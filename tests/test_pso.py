import numpy as np
import pytest

from swarmwalk.objectives import ObjectiveSpec, SearchDomain, eval_sphere, make_objective
from swarmwalk.pso import (
    PsoState,
    inertia_weight,
    init_state,
    pso_run,
    pso_step,
    pso_update_position,
    pso_update_velocity,
)
from swarmwalk.results import RunConfig, init_positions


def config(**kwargs) -> RunConfig:
    defaults = dict(swarm_size=5, max_iterations=10, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def start_state(obj, cfg, rng):
    """The state `run_loop` starts from: a start swarm drawn from `rng` and scored."""
    positions = init_positions(obj.domain, cfg.swarm_size, rng)
    return init_state(positions, obj.evaluate_batch(positions))


class _FixedRng:
    """Stand-in random source returning scripted uniform draws."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        n = int(np.prod(size))
        out = np.array([self._values.pop(0) for _ in range(n)])
        return out.reshape(size)


class TestVelocityUpdate:
    def test_vanishes_at_consensus(self):
        x = np.array([[1.0, 2.0]])
        v = pso_update_velocity([[3.0, -1.0]], x, x, x[0], 0.0, _FixedRng([0.5, 0.5, 0.5, 0.5]))
        np.testing.assert_array_equal(v, [[0.0, 0.0]])

    def test_pure_inertia(self):
        # zero draws leave only the inertia term
        v0 = np.array([[2.0, -3.0]])
        v = pso_update_velocity(v0, [[0.0, 0.0]], [[5.0, 5.0]], [9.0, 9.0], 1.0,
                                _FixedRng([0.0] * 4))
        np.testing.assert_array_equal(v, v0)

    def test_hand_value_with_scripted_draw(self):
        # v=0, C1=2, R1=(0.5, 0.25) per coordinate, R2=0, pbest - x = (3, 4)
        # -> new velocity (3, 2)
        v = pso_update_velocity([[0.0, 0.0]], [[0.0, 0.0]], [[3.0, 4.0]], [9.0, 9.0], 0.0,
                                _FixedRng([0.5, 0.25, 0.0, 0.0]))
        np.testing.assert_array_equal(v, [[3.0, 2.0]])

    def test_draws_all_r1_then_all_r2(self):
        # two particles, one coordinate: the stream is R1 of both, then R2
        # (C1 = C2 = 2, and the other term's gap is zero)
        v = pso_update_velocity(np.zeros((2, 1)), np.zeros((2, 1)), np.ones((2, 1)),
                                [0.0], 0.0, _FixedRng([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(v, [[0.2], [0.4]])
        v = pso_update_velocity(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)),
                                [1.0], 0.0, _FixedRng([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(v, [[0.6], [0.8]])


class TestPositionUpdate:
    DOMAIN = SearchDomain(2, -10.0, 10.0, -1.0, 1.0)

    def test_zero_velocity_identity(self):
        p = np.array([[1.0, -1.0]])
        x, v = pso_update_position(p, np.zeros((1, 2)), self.DOMAIN)
        np.testing.assert_array_equal(x, p)
        np.testing.assert_array_equal(v, np.zeros((1, 2)))

    def test_hand_value(self):
        x, v = pso_update_position([[1.0, 1.0]], np.array([[0.5, -0.5]]), self.DOMAIN)
        np.testing.assert_array_equal(x, [[1.5, 0.5]])
        np.testing.assert_array_equal(v, [[0.5, -0.5]])

    def test_overshoot_clamps(self):
        # an overshooting coordinate's velocity is reflected and damped
        x, v = pso_update_position([[9.0, 0.0], [-9.0, 0.0]],
                                   np.array([[5.0, 1.0], [-4.0, -1.0]]), self.DOMAIN)
        np.testing.assert_array_equal(x, [[10.0, 1.0], [-10.0, -1.0]])
        np.testing.assert_array_equal(v, [[-2.5, 1.0], [2.0, -1.0]])


class TestInertiaSchedule:
    def test_endpoints(self):
        cfg = config(max_iterations=100)
        assert inertia_weight(cfg, 0) == 0.9
        assert inertia_weight(cfg, 99) == pytest.approx(0.4)

    def test_midpoint(self):
        cfg = config(max_iterations=101)
        assert inertia_weight(cfg, 50) == pytest.approx(0.65)

    def test_single_iteration_run_uses_w_start(self):
        assert inertia_weight(config(max_iterations=1), 0) == 0.9


class TestBallisticMotion:
    def test_position_is_linear_in_time_without_attraction(self):
        # zero draws and w = 1 leave each particle coasting at its velocity
        domain = SearchDomain(2, -1e6, 1e6, 0.0, 0.0)
        x0 = np.arange(10.0).reshape(5, 2)
        v0 = np.full((5, 2), 1.25)
        x, v = x0, v0
        for t in range(1, 8):
            v = pso_update_velocity(v, x, np.zeros((5, 2)), np.ones(2), 1.0,
                                    _FixedRng([0.0] * 20))
            x, v = pso_update_position(x, v, domain)
            np.testing.assert_allclose(x, x0 + t * v0)

    def test_step_coasts_at_the_scheduled_inertia(self):
        # zero draws leave the step only its inertia term: v_t = w(t - 1) v_(t-1)
        obj = ObjectiveSpec("sphere", SearchDomain(2, -1e6, 1e6, 0.0, 0.0), eval_sphere)
        cfg = config(max_iterations=7)
        state = start_state(obj, cfg, np.random.default_rng(0))
        state.velocities = np.full((cfg.swarm_size, 2), 1.25)
        for t in range(7):
            x, v = state.positions, state.velocities
            state = pso_step(state, obj, cfg, _FixedRng([0.0] * 20))
            np.testing.assert_array_equal(state.velocities, inertia_weight(cfg, t) * v)
            np.testing.assert_array_equal(state.positions, x + state.velocities)


class TestBestTracking:
    def test_personal_bests_never_worse_than_current(self):
        obj = make_objective("rastrigin", 3)
        cfg = config(swarm_size=8, max_iterations=30, seed=4)
        rng = np.random.default_rng(4)
        state = start_state(obj, cfg, rng)
        for _ in range(30):
            state = pso_step(state, obj, cfg, rng)
            assert np.all(state.personal_best_fitnesses <= state.fitnesses + 1e-15)
        # the run steps the same stream, and its best is the best personal best
        result = pso_run(obj, cfg)
        assert result.best_fitness == result.trace[-1] == state.personal_best_fitnesses.min()

    @pytest.mark.parametrize("first, second", [(-1.0, 1.0), (1.0, -1.0)])
    def test_global_best_ties_go_to_the_lowest_index(self, first, second):
        # Particles 1 and 2 hold personal bests of equal fitness at -1 and 1.
        # From rest, with only the social term (R1 = 0, C2 * R2 = 2 * 0.5),
        # every particle moves onto the global best, which must be particle 1's.
        obj = make_objective("sphere", 1)
        cfg = config(swarm_size=3)
        state = PsoState(
            positions=np.full((3, 1), 3.0),
            velocities=np.zeros((3, 1)),
            fitnesses=np.full(3, 9.0),
            personal_best_positions=np.array([[3.0], [first], [second]]),
            personal_best_fitnesses=np.array([9.0, 1.0, 1.0]),
            iteration=0,
        )
        state = pso_step(state, obj, cfg, _FixedRng([0.0] * 3 + [0.5] * 3))
        np.testing.assert_array_equal(state.positions, np.full((3, 1), first))

    def test_trace_is_monotone_non_increasing(self):
        obj = make_objective("rosenbrock", 4)
        result = pso_run(obj, config(swarm_size=10, max_iterations=50))
        assert np.all(np.diff(result.trace) <= 0.0)


class TestRun:
    def test_single_iteration_trace(self):
        obj = make_objective("sphere", 2)
        result = pso_run(obj, config(max_iterations=1))
        assert result.iterations_used == 1 and len(result.trace) == 1

    def test_bitwise_deterministic(self):
        obj = make_objective("sphere", 3)
        cfg = config(swarm_size=6, max_iterations=40, seed=21)
        assert pso_run(obj, cfg).to_dict() == pso_run(obj, cfg).to_dict()

    def test_best_decreases_over_the_run_on_sphere(self):
        obj = make_objective("sphere", 10)
        improved = 0
        for seed in range(50):
            cfg = config(swarm_size=20, max_iterations=200, seed=seed)
            result = pso_run(obj, cfg)
            improved += result.trace[-1] < result.trace[0]
        assert improved >= 48  # >= 95% of 50 seeds
