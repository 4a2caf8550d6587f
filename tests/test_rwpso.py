import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmwalk import graph
from swarmwalk import rwpso as rwpso_module
from swarmwalk.graph import COINCIDENT_DISTANCE, build_distance_matrix, hop_probabilities
from swarmwalk.harness import RWPSO_TUNING
from swarmwalk.objectives import (ObjectiveSpec, SearchDomain, eval_rastrigin, eval_sphere,
                                  make_objective)
from swarmwalk.results import init_positions
from swarmwalk.rwpso import (
    WALK_HORIZON,
    RwpsoConfig,
    compute_delta,
    displacement_vector,
    gaussian_term,
    init_state,
    rwpso_run,
    rwpso_step,
    select_target,
    update_position,
)
from swarmwalk.walk import constrained_biased_walk, walk_expectation

# hop distribution out of the first particle of the five-point swarm used
# as the graph-module oracle
FIVE_POINT_ROW = np.array([0.056, 0.236, 0.124, 0.260, 0.324])


def config(**kwargs) -> RwpsoConfig:
    defaults = dict(swarm_size=4, max_iterations=10, seed=0)
    defaults.update(kwargs)
    return RwpsoConfig(**defaults)


def start_state(obj, cfg, rng):
    """The state `run_loop` starts from: a start swarm drawn from `rng` and scored."""
    positions = init_positions(obj.domain, cfg.swarm_size, rng)
    return init_state(positions, obj.evaluate_batch(positions))


class TestSelectTarget:
    def test_small_draw_picks_minimum_holder(self):
        np.testing.assert_array_equal(select_target(FIVE_POINT_ROW[:, None], [0.03]), [0])

    def test_large_draw_picks_maximum_holder(self):
        np.testing.assert_array_equal(select_target(FIVE_POINT_ROW[:, None], [0.5]), [4])

    def test_one_target_per_row(self):
        rows = np.stack([FIVE_POINT_ROW, FIVE_POINT_ROW[::-1]], axis=1)
        np.testing.assert_array_equal(select_target(rows, [0.03, 0.03]), [0, 4])
        np.testing.assert_array_equal(select_target(rows, [0.5, 0.5]), [4, 0])

    def test_uniform_row_ties_break_low(self):
        rows = np.full((5, 1), 0.2)
        np.testing.assert_array_equal(select_target(rows, [0.1]), [0])
        np.testing.assert_array_equal(select_target(rows, [0.9]), [0])

    def test_empty_row(self):
        with pytest.raises(ValueError):
            select_target(np.empty((0, 1)), [0.5])

    def test_needs_one_draw_per_row(self):
        with pytest.raises(ValueError):
            select_target(np.full((2, 2), 0.5), [0.5])

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=30),
        st.floats(0.0, 0.999),
        st.floats(0.1, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_rescaling(self, weights, r, scale):
        row = np.array(weights) / np.sum(weights)
        # rescaling rounds, so entries an ulp apart can swap order; the
        # property holds for exact ties and for extremes set apart
        ordered = np.sort(row)
        gaps = np.array([ordered[1] - ordered[0], ordered[-1] - ordered[-2]])
        assume(np.all((gaps == 0.0) | (gaps > 1e-9)) and abs(r - ordered[0]) > 1e-9)
        rescaled = row * scale
        rescaled = rescaled / rescaled.sum()
        np.testing.assert_array_equal(select_target(row[:, None], [r]),
                                      select_target(rescaled[:, None], [r]))


class TestComputeDelta:
    def test_zero_displacement(self):
        assert compute_delta(0.0, 10) == 0.5

    def test_full_horizon_displacements(self):
        assert compute_delta(10.0, 10) == 0.0
        assert compute_delta(-10.0, 10) == 1.0

    def test_zero_horizon(self):
        with pytest.raises(ValueError):
            compute_delta(1.0, 0)

    @pytest.mark.parametrize("n", [2.5, True, float("nan")])
    def test_horizon_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=rf"step count must be an integer >= 1, got {n}"):
            compute_delta(1.0, n)

    @pytest.mark.parametrize("d", ["2", True, float("nan"), float("inf"), float("-inf")],
                             ids=["str", "bool", "nan", "inf", "-inf"])
    def test_displacement_must_be_a_finite_number(self, d):
        with pytest.raises(ValueError, match=rf"displacement must be a finite number, got {d!r}"):
            compute_delta(d, 2)

    @pytest.mark.parametrize("d", [3, np.float64(3.0), np.float32(3.0), np.int64(3)],
                             ids=["int", "float64", "float32", "int64"])
    def test_numeric_displacements_are_taken(self, d):
        assert compute_delta(d, 2) == -0.25
        assert compute_delta(-d, 2) == 1.25

    @given(st.floats(-1e6, 1e6), st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_mirror_identity(self, d, n):
        assert compute_delta(d, n) + compute_delta(-d, n) == pytest.approx(1.0, abs=1e-9)


class TestDisplacementVector:
    def test_toward_self_is_zero(self):
        p = np.array([[1.5, -2.0]])
        np.testing.assert_array_equal(displacement_vector(p, p), [[0.0, 0.0]])

    def test_toward_target_drift(self):
        # each move covers 1 / WALK_HORIZON = half of the gap
        k = displacement_vector([[0.0, 0.0], [1.0, 1.0]], [[10.0, -10.0], [1.0, 1.0]])
        np.testing.assert_array_equal(k, [[5.0, -5.0], [0.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            displacement_vector([[0.0, 0.0]], [[1.0, 2.0, 3.0]])


class TestWalkOracle:
    """The movement term is the expected drift of the corresponding walk."""

    @given(st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_drift_equals_walk_expectation(self, ratio):
        n = WALK_HORIZON
        d = ratio * n  # keep the step split a valid probability
        delta = compute_delta(d, n)
        k = displacement_vector([[0.0]], [[d]])
        assert walk_expectation(n, 1.0 - delta) == pytest.approx(n * k[0, 0], abs=1e-9)

    def test_monte_carlo_walk_reaches_displacement(self):
        n, d = 20, 7.0
        delta = compute_delta(d, n)
        rng = np.random.default_rng(123)
        finals = np.array([
            constrained_biased_walk(n, 1.0 - delta, 1.0, 1.0, rng)
            for _ in range(10_000)
        ])
        se = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean() - d) <= 4.0 * se


class TestGaussianTerm:
    def test_standard_moments(self):
        # the drift of a unit gap scales the noise by gaussian_sigma = 1
        cfg = config(gaussian_sigma=1.0)
        draws = gaussian_term(cfg, np.random.default_rng(1), np.full((100_000, 1), 0.5))
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.std() == pytest.approx(1.0, abs=0.02)

    def test_one_block_draw_equals_row_by_row_draws(self):
        # numpy fills the (N, D) block in row-major order, so drawing the
        # swarm at once consumes the stream like N single-particle draws
        cfg = config(gaussian_sigma=0.4)
        gap = np.random.default_rng(2).normal(size=(5, 3))
        block = gaussian_term(cfg, np.random.default_rng(3), gap)
        rng = np.random.default_rng(3)
        rows = [gaussian_term(cfg, rng, gap[j:j + 1]) for j in range(5)]
        np.testing.assert_array_equal(block, np.concatenate(rows))

    def test_displacement_scaled_is_isotropic_mean_gap(self):
        # drift [1.5, 0, -1.5] is gap [3, 0, -3]: its mean absolute gap 2
        # times sigma 0.5 scales the standard normals by exactly 1
        cfg = config(gaussian_sigma=0.5)
        got = gaussian_term(cfg, np.random.default_rng(4), np.array([[1.5, 0.0, -1.5]]))
        np.testing.assert_array_equal(got, np.random.default_rng(4).standard_normal((1, 3)))

    def test_invalid_sigma_rejected_at_config(self):
        with pytest.raises(ValueError):
            config(gaussian_sigma=0.0)


class TestUpdatePosition:
    DOMAIN = SearchDomain(2, -10.0, 10.0, -1.0, 1.0)

    def test_identity(self):
        p = np.array([[2.0, -3.0]])
        np.testing.assert_array_equal(
            update_position(p, np.zeros((1, 2)), np.zeros((1, 2)), self.DOMAIN), p
        )

    def test_sum_of_terms(self):
        got = update_position([[0.0, 0.0]], [[1.0, -1.0]], [[0.5, 0.5]], self.DOMAIN)
        np.testing.assert_array_equal(got, [[1.5, -0.5]])

    def test_clamps_overshoot(self):
        got = update_position([[9.0, 9.0], [-9.0, 0.0]], [[5.0, 5.0], [-5.0, 0.0]],
                              np.zeros((2, 2)), self.DOMAIN)
        np.testing.assert_array_equal(got, [[10.0, 10.0], [-10.0, 0.0]])

    @pytest.mark.parametrize("k, g", [
        pytest.param(np.full(2, 0.5), np.zeros((3, 2)), id="movement-row"),
        pytest.param(np.zeros((3, 2)), np.zeros((3, 1)), id="noise-column"),
        pytest.param(np.zeros((1, 2)), np.zeros((1, 2)), id="one-particle-terms"),
    ])
    def test_terms_must_match_the_positions(self, k, g):
        with pytest.raises(ValueError, match=r"positions' shape \(3, 2\)"):
            update_position(np.zeros((3, 2)), k, g, self.DOMAIN)


class TestStep:
    def test_swarm_at_optimum_is_a_fixed_point(self):
        obj = ObjectiveSpec("sphere", SearchDomain(2, -10, 10, 0, 0), eval_sphere)
        cfg = config(swarm_size=2, gaussian_sigma=1e-12)
        rng = np.random.default_rng(0)
        state = start_state(obj, cfg, rng)
        new = rwpso_step(state, obj, cfg, rng)
        np.testing.assert_allclose(new.positions, state.positions, atol=1e-6)

    def test_collapsed_swarm_stays_put(self):
        # every particle on one point: each gap is zero, and the noise scales
        # with the gap, so neither drift nor noise moves anyone
        obj = ObjectiveSpec("rastrigin", SearchDomain(3, -5.12, 5.12, 1.5, 1.5),
                            eval_rastrigin)
        cfg = config(swarm_size=6)
        rng = np.random.default_rng(11)
        state = start_state(obj, cfg, rng)
        off_diagonal = ~np.eye(6, dtype=bool)
        for _ in range(5):
            new = rwpso_step(state, obj, cfg, rng)
            assert new.positions.tobytes() == state.positions.tobytes()
            assert new.fitnesses.tobytes() == state.fitnesses.tobytes()
            distances = build_distance_matrix(new.positions)
            assert np.all(distances[off_diagonal] == COINCIDENT_DISTANCE)
            state = new

    def test_same_seed_same_successor(self):
        obj = make_objective("rastrigin", 3)
        cfg = config(swarm_size=6, seed=5)
        s1 = rwpso_step(start_state(obj, cfg, np.random.default_rng(5)),
                        obj, cfg, np.random.default_rng(77))
        s2 = rwpso_step(start_state(obj, cfg, np.random.default_rng(5)),
                        obj, cfg, np.random.default_rng(77))
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.fitnesses, s2.fitnesses)

    def test_step_composes_the_operators(self):
        # one step is target choice, drift, noise and clamp, drawing all
        # uniforms before the normal block
        obj = make_objective("sphere", 4)
        cfg = config(swarm_size=7)
        state = start_state(obj, cfg, np.random.default_rng(3))
        rng = np.random.default_rng(9)
        r = rng.random(7)
        hops = hop_probabilities(build_distance_matrix(state.positions), state.fitnesses)
        chosen = select_target(hops, r)
        # a single particle is a one-column input and gets the same target
        singles = [select_target(hops[:, j:j + 1], r[j:j + 1])[0] for j in range(7)]
        np.testing.assert_array_equal(singles, chosen)
        targets = state.positions[chosen]
        k = displacement_vector(state.positions, targets)
        g = gaussian_term(cfg, rng, k)
        expected = update_position(state.positions, k, g, obj.domain)
        new = rwpso_step(state, obj, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(new.positions, expected)
        np.testing.assert_array_equal(new.fitnesses, [obj.evaluate(p) for p in expected])

    def test_each_step_builds_its_graph_once_from_its_start_swarm(self, monkeypatch):
        # rastrigin's tuned sigma leaves some particles unmoved on most steps
        builds, starts = [], []
        build, step = graph.build_distance_matrix, rwpso_module.rwpso_step

        def recording_build(*args, **kwargs):
            builds.append((np.array(args[0]), args[1:], kwargs))
            return build(*args, **kwargs)

        def recording_step(state, *args):
            starts.append(state.positions.copy())
            return step(state, *args)

        monkeypatch.setattr(graph, "build_distance_matrix", recording_build)
        monkeypatch.setattr(rwpso_module, "rwpso_step", recording_step)
        cfg = config(swarm_size=24, max_iterations=20, gaussian_sigma=RWPSO_TUNING["rastrigin"])
        result = rwpso_run(make_objective("rastrigin", 10), cfg)
        assert result.iterations_used == len(builds) == len(starts) == 20
        for (positions, more_args, kwargs), start in zip(builds, starts):
            assert more_args == () and kwargs == {}
            assert positions.tobytes() == start.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_positions_stay_in_domain(self, seed, n, dim):
        obj = make_objective("sphere", dim)
        cfg = config(swarm_size=n, seed=seed)
        rng = np.random.default_rng(seed)
        state = start_state(obj, cfg, rng)
        for _ in range(3):
            state = rwpso_step(state, obj, cfg, rng)
            assert np.all(state.positions >= obj.domain.lower)
            assert np.all(state.positions <= obj.domain.upper)


class TestDriftTelescoping:
    def test_constant_drift_lands_on_frozen_target(self):
        target = np.array([4.0, -3.0, 0.5])
        start = np.array([-2.0, 5.0, 1.5])
        dom = SearchDomain(3, -100.0, 100.0, -1.0, 1.0)
        cfg = config(gaussian_sigma=1e-12)
        rng = np.random.default_rng(2)
        k = displacement_vector(start[None], target[None])
        p = start[None]
        for _ in range(WALK_HORIZON):
            p = update_position(p, k, gaussian_term(cfg, rng, k), dom)
        np.testing.assert_allclose(p[0], target, atol=1e-6)


class TestRun:
    def test_single_iteration_trace(self):
        obj = make_objective("sphere", 2)
        result = rwpso_run(obj, config(swarm_size=5, max_iterations=1))
        assert result.iterations_used == 1
        assert len(result.trace) == 1

    def test_without_threshold_runs_full_budget(self):
        obj = make_objective("sphere", 2)
        result = rwpso_run(obj, config(swarm_size=5, max_iterations=25))
        assert result.iterations_used == 25
        assert len(result.trace) == 25

    def test_trace_is_monotone_non_increasing(self):
        obj = make_objective("rastrigin", 4)
        result = rwpso_run(obj, config(swarm_size=8, max_iterations=60))
        assert np.all(np.diff(result.trace) <= 0.0)

    def test_threshold_stops_early(self):
        obj = make_objective("sphere", 2)
        cfg = config(swarm_size=10, max_iterations=2000,
                     fitness_threshold=1e-2, seed=3)
        result = rwpso_run(obj, cfg)
        assert result.best_fitness <= 1e-2
        assert result.iterations_used < 2000

    def test_bitwise_deterministic(self):
        obj = make_objective("rastrigin", 3)
        cfg = config(swarm_size=6, max_iterations=40, seed=11)
        a = rwpso_run(obj, cfg)
        b = rwpso_run(obj, cfg)
        assert a.to_dict() == b.to_dict()

    def test_best_position_matches_best_fitness(self):
        obj = make_objective("sphere", 3)
        result = rwpso_run(obj, config(swarm_size=6, max_iterations=30))
        assert obj.evaluate(result.best_position) == pytest.approx(result.best_fitness)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(swarm_size=1)
        with pytest.raises(TypeError):  # no longer config fields
            config(walk_horizon=2)
        with pytest.raises(TypeError):
            config(displacement_mode="toward_target")
        with pytest.raises(TypeError):
            config(boundary_policy="clamp")
