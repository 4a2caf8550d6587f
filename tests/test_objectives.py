import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk import objectives
from swarmwalk.objectives import (
    FUNCTION_NAMES,
    OBJECTIVE_WEIGHT,
    ObjectiveSpec,
    SearchDomain,
    eval_binh4,
    eval_rastrigin,
    eval_rosenbrock,
    eval_schaffer_n1,
    eval_sphere,
    init_positions,
    make_objective,
)


class TestSphere:
    def test_optimum(self):
        assert eval_sphere(np.zeros(7)) == 0.0

    def test_hand_value(self):
        assert eval_sphere([1.0, 2.0, 3.0]) == 14.0
        assert eval_sphere(3.0) == 9.0

    def test_single_negative(self):
        assert eval_sphere([-5.0]) == 25.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            eval_sphere([1.0, np.nan])
        with pytest.raises(ValueError):
            eval_sphere([np.inf])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_even_function(self, xs):
        x = np.array(xs)
        assert eval_sphere(x) == eval_sphere(-x)
        assert eval_sphere(x) >= 0.0


class TestRosenbrock:
    @pytest.mark.parametrize("x", [[1.0, 1.0], [1.0, 1.0, 1.0], np.ones(10)])
    def test_optimum(self, x):
        assert eval_rosenbrock(x) == 0.0

    def test_hand_value(self):
        assert eval_rosenbrock([0.0, 0.0]) == 1.0

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            eval_rosenbrock([1.0])
        with pytest.raises(ValueError):
            eval_rosenbrock(1.0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=10))
    def test_non_negative(self, xs):
        assert eval_rosenbrock(np.array(xs)) >= 0.0


class TestRastrigin:
    def test_optimum(self):
        assert eval_rastrigin([0.0, 0.0]) == 0.0

    def test_hand_values(self):
        assert eval_rastrigin([1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
        assert eval_rastrigin([0.5]) == pytest.approx(20.25, abs=1e-12)
        assert eval_rastrigin(0.5) == eval_rastrigin([0.5])

    @given(st.lists(st.floats(-5.12, 5.12), min_size=1, max_size=20))
    def test_even_function(self, xs):
        x = np.array(xs)
        assert eval_rastrigin(x) == pytest.approx(eval_rastrigin(-x), rel=1e-12, abs=1e-9)


GUARDED = [
    ("sphere", eval_sphere),
    ("rosenbrock", eval_rosenbrock),
    ("rastrigin", eval_rastrigin),
]

# Finite entries up to 1e300 (whose squares overflow) mixed with nan and +-inf
GUARD_ENTRIES = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([1e154, -1e200, 1e300]),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


class TestFiniteGuard:
    """The evaluators reject exactly the inputs with a nan or +-inf entry."""

    @pytest.mark.parametrize("name, evaluator", GUARDED)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_non_finite_raises_without_warning(self, name, evaluator, bad, where):
        obj = make_objective(name, 6)
        point = np.full(6, 0.5)
        point[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                evaluator(point)
            with pytest.raises(ValueError, match="finite"):
                obj.evaluate(point)
            with pytest.raises(ValueError, match="finite"):
                evaluator(list(point))

    @pytest.mark.parametrize("evaluator", [eval_sphere, eval_rastrigin])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_raises(self, evaluator, bad):
        with pytest.raises(ValueError, match="finite"):
            evaluator(bad)

    @pytest.mark.parametrize("name, evaluator", GUARDED)
    @pytest.mark.parametrize("x", [[1e154] * 3, [1e200, 1.0]])
    def test_overflowing_squares_evaluate_to_inf(self, name, evaluator, x):
        obj = make_objective(name, len(x))
        with np.errstate(over="ignore"):
            assert evaluator(x) == np.inf
            assert obj.evaluate(np.array(x)) == np.inf

    @pytest.mark.parametrize("name, evaluator", GUARDED)
    @given(xs=st.lists(GUARD_ENTRIES, min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_raises_exactly_on_non_finite_input(self, name, evaluator, xs):
        x = np.array(xs)
        with np.errstate(over="ignore"):
            if np.isfinite(x).all():
                assert not np.isnan(evaluator(x))
            else:
                with pytest.raises(ValueError, match="finite"):
                    evaluator(x)


class TestTwoObjectiveFunctions:
    def test_binh4_hand_values(self):
        assert eval_binh4(0.0, 0.0) == (0.0, -1.0)
        assert eval_binh4(1.0, 1.0) == (0.0, -2.5)

    def test_binh4_near_upper_bound(self):
        y = 4.0 - 1e-9
        f1, f2 = eval_binh4(2.0, y)
        assert f1 == pytest.approx(4.0 - y, abs=1e-12)
        assert f2 == pytest.approx(-2.0 - y, abs=1e-12)

    def test_binh4_boundary_is_evaluable(self):
        # clamped positions land exactly on the box
        eval_binh4(-7.0, 4.0)

    def test_binh4_out_of_range(self):
        with pytest.raises(ValueError):
            eval_binh4(5.0, 0.0)
        with pytest.raises(ValueError):
            eval_binh4(0.0, -7.5)

    def test_schaffer_hand_values(self):
        assert eval_schaffer_n1(0.0) == (0.0, 4.0)
        assert eval_schaffer_n1(2.0) == (4.0, 0.0)
        assert eval_schaffer_n1(1.0) == (1.0, 1.0)

    def test_schaffer_out_of_range(self):
        with pytest.raises(ValueError):
            eval_schaffer_n1(101.0)
        assert eval_schaffer_n1(-100.0) == (10000.0, 10404.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: eval_binh4(bad, 0.0), lambda: eval_binh4(0.0, bad),
                         lambda: eval_schaffer_n1(bad)):
                with pytest.raises(ValueError, match="finite"):
                    call()

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (-7.0, 4.0), (1.0 / 3.0, -2.7), (3.9, -6.1)])
    def test_numpy_scalars_give_the_same_bits(self, x, y):
        def bits(pair):
            return [float(v).hex() for v in pair]

        assert bits(eval_binh4(np.float64(x), np.float64(y))) == bits(eval_binh4(x, y))
        assert bits(eval_schaffer_n1(np.float64(x))) == bits(eval_schaffer_n1(x))


class TestScalarize:
    """The equal-weight fitness of binh4 and schaffer_n1, through `evaluate`."""

    def test_equal_weights(self):
        assert OBJECTIVE_WEIGHT == 0.5
        assert make_objective("schaffer_n1").evaluate([0.0]) == 2.0  # (0, 4)
        assert make_objective("schaffer_n1").evaluate([1.0]) == 1.0  # (1, 1)
        assert make_objective("binh4").evaluate([1.0, 1.0]) == -1.25  # (0, -2.5)

    def test_plain_weighted_sum_bit_for_bit(self):
        # a BLAS dot product may fuse the multiply and the add on FMA CPUs
        for name, evaluator in (("binh4", eval_binh4), ("schaffer_n1", eval_schaffer_n1)):
            obj = make_objective(name)
            rng = np.random.default_rng(7)
            for x in rng.uniform(obj.domain.lower, obj.domain.upper, size=(2000, obj.dim)):
                f1, f2 = evaluator(*map(float, x))
                assert obj.evaluate(x).hex() == (f1 * 0.5 + f2 * 0.5).hex()

    def test_negative_zero_survives(self, monkeypatch):
        # No point of either box has the objectives (-0.0, -0.0): x * x and a
        # difference of equal values are +0.0.  So the pair is stubbed, and
        # the sum must not start from a +0.0 that would turn -0.0 into +0.0.
        for name in ("binh4", "schaffer_n1"):
            monkeypatch.setattr(objectives, f"eval_{name}", lambda *x: (-0.0, -0.0))
            obj = make_objective(name)
            assert math.copysign(1.0, obj.evaluate(obj.domain.upper)) == -1.0

    @pytest.mark.parametrize("name, point", [
        pytest.param("binh4", [np.nan, 1.0], id="binh4-x"),
        pytest.param("binh4", [1.0, np.nan], id="binh4-y"),
        pytest.param("schaffer_n1", [np.nan], id="schaffer_n1"),
    ])
    def test_nan_coordinate_raises_before_arithmetic(self, name, point):
        # a nan fails every box comparison, so a check after any arithmetic
        # would report it as outside the box, or return nan
        with pytest.raises(ValueError, match="^objective input must be finite$"):
            make_objective(name).evaluate(np.array(point))


class TestSearchDomain:
    def test_width_and_clamp(self):
        dom = SearchDomain.uniform(3, -2.0, 2.0, 0.0, 1.0)
        np.testing.assert_array_equal(dom.width, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(dom.clamp(np.array([5.0, -9.0, 0.5])),
                                      [2.0, -2.0, 0.5])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchDomain.uniform(2, 1.0, -1.0, 0.0, 0.5)

    def test_rejects_init_outside_domain(self):
        with pytest.raises(ValueError):
            SearchDomain.uniform(2, -1.0, 1.0, 0.5, 2.0)

    def test_degenerate_init_range_allowed(self):
        SearchDomain.uniform(2, -1.0, 1.0, 0.25, 0.25)

    @pytest.mark.parametrize("bounds, name", [
        pytest.param((-1.0, np.inf, 0.0, np.inf), "upper", id="infinite-upper"),
        pytest.param((-np.inf, 1.0, 0.0, 1.0), "lower", id="infinite-lower"),
        pytest.param((-1.0, 1.0, [np.nan, 0.0], 1.0), "init_lower", id="nan-init-lower"),
    ])
    def test_rejects_non_finite_bound(self, bounds, name):
        bounds = [np.broadcast_to(np.asarray(b, dtype=float), (2,)) for b in bounds]
        with pytest.raises(ValueError, match=f"^domain bound {name} must be finite$"):
            SearchDomain(*bounds)


class TestInitPositions:
    def test_degenerate_range_pins_particles(self):
        dom = SearchDomain.uniform(4, -10.0, 10.0, 3.0, 3.0)
        pos = init_positions(dom, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(pos, np.full((5, 4), 3.0))

    def test_sphere_membership(self):
        obj = make_objective("sphere", 10)
        pos = init_positions(obj.domain, 20, np.random.default_rng(1))
        assert pos.shape == (20, 10)
        assert np.all(pos >= 50.0) and np.all(pos <= 100.0)

    def test_same_seed_same_positions(self):
        dom = SearchDomain.uniform(3, -5.0, 5.0, -1.0, 1.0)
        a = init_positions(dom, 8, np.random.default_rng(42))
        b = init_positions(dom, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_needs_two_particles(self):
        dom = SearchDomain.uniform(2, -1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            init_positions(dom, 1, np.random.default_rng(0))

    @given(
        st.integers(1, 6),
        st.integers(2, 12),
        st.floats(-100.0, 99.0),
        st.floats(0.1, 50.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_membership_over_random_domains(self, dim, n, low, spread, seed):
        lower, upper = low, low + spread
        init_low = lower + spread / 4.0
        init_up = upper - spread / 4.0
        dom = SearchDomain.uniform(dim, lower, upper, init_low, init_up)
        pos = init_positions(dom, n, np.random.default_rng(seed))
        assert np.all(pos >= dom.init_lower) and np.all(pos <= dom.init_upper)


class TestMakeObjective:
    @pytest.mark.parametrize("name,point", [
        ("sphere", np.zeros(5)),
        ("rosenbrock", np.ones(5)),
        ("rastrigin", np.zeros(5)),
    ])
    def test_known_optimum_value_exact(self, name, point):
        assert make_objective(name, 5).evaluate(point) == 0.0

    def test_all_functions_resolvable(self):
        for name in FUNCTION_NAMES:
            obj = make_objective(name, 10)
            mid = (obj.domain.init_lower + obj.domain.init_upper) / 2.0
            assert np.isfinite(obj.evaluate(mid))

    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_through_evaluate(self, name, bad):
        obj = make_objective(name, 10)
        point = (obj.domain.init_lower + obj.domain.init_upper) / 2.0
        point[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            obj.evaluate(point)

    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    def test_evaluate_batch_matches_per_row_evaluate(self, name):
        obj = make_objective(name, 10)
        positions = init_positions(obj.domain, 16, np.random.default_rng(5))
        batch = obj.evaluate_batch(positions)
        assert batch.shape == (16,) and batch.dtype == np.float64
        np.testing.assert_array_equal(batch, [obj.evaluate(p) for p in positions])

    @pytest.mark.parametrize("name, evaluator", [
        ("sphere", eval_sphere),
        ("rosenbrock", eval_rosenbrock),
        ("rastrigin", eval_rastrigin),
    ])
    @pytest.mark.parametrize("weight", [1.0, 1.0 - 5e-10, 1.0 + 9e-10])
    def test_single_weight_scales_like_scalarize(self, name, evaluator, weight):
        # No function takes a weight, not even 1; a single-objective
        # function's fitness is its evaluator, bit for bit.
        with pytest.raises(TypeError, match="unexpected keyword argument 'weights'$"):
            make_objective(name, 8, weights=(weight,))
        obj = make_objective(name, 8)
        rng = np.random.default_rng(11)
        points = np.vstack([
            np.zeros(8), np.ones(8), obj.domain.lower, obj.domain.upper,
            rng.uniform(obj.domain.lower, obj.domain.upper, size=(200, 8)),
        ])
        for x in points:
            assert np.float64(obj.evaluate(x)).tobytes() == np.float64(evaluator(x)).tobytes()

    @pytest.mark.parametrize("name, key, value", [
        ("sphere", "amplitude", 3.0),
        ("sphere", "bound", 100.0),
        ("rosenbrock", "amplitude", 10.0),
        ("rastrigin", "bound", 100.0),
        ("binh4", "amplitude", 10.0),
        ("binh4", "bound", 100.0),
        ("schaffer_n1", "amplitude", 10.0),
    ])
    def test_parameter_the_function_does_not_take_refused(self, name, key, value):
        # rastrigin's amplitude and schaffer_n1's bound are fixed: no function takes them
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'$"):
            make_objective(name, 4, **{key: value})

    def test_fixed_dimension_functions_ignore_requested_dim(self):
        assert make_objective("binh4", 30).dim == 2
        assert make_objective("schaffer_n1", 30).dim == 1

    def test_scalable_functions_need_dim(self):
        with pytest.raises(ValueError):
            make_objective("sphere")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_objective("ackley", 2)

    def test_default_equal_weights_on_two_objective(self):
        binh4, schaffer = make_objective("binh4"), make_objective("schaffer_n1")
        for x in ([0.0, 0.0], [3.0, -1.5], [-7.0, 4.0]):
            f1, f2 = eval_binh4(*x)
            assert binh4.evaluate(x) == f1 * 0.5 + f2 * 0.5
        for x in (0.0, 3.0, -100.0):
            f1, f2 = eval_schaffer_n1(x)
            assert schaffer.evaluate([x]) == f1 * 0.5 + f2 * 0.5
        assert binh4.evaluate([0.0, 0.0]) == pytest.approx(-0.5)

    def test_bad_weights_rejected(self):
        # the weights are fixed: make_objective takes no keyword at all
        for name in ("binh4", "schaffer_n1"):
            for weights in ((0.5, 0.5), (0.3, 0.7), None):
                with pytest.raises(TypeError, match="unexpected keyword argument 'weights'$"):
                    make_objective(name, weights=weights)

    @pytest.mark.parametrize("name, box", [
        pytest.param("sphere", (-100.0, 100.0, 50.0, 100.0), id="sphere"),
        pytest.param("rosenbrock", (-30.0, 30.0, 15.0, 30.0), id="rosenbrock"),
        pytest.param("rastrigin", (-5.12, 5.12, 2.56, 5.12), id="rastrigin"),
        pytest.param("binh4", (-7.0, 4.0, 0.0, 4.0), id="binh4"),
        pytest.param("schaffer_n1", (-100.0, 100.0, 50.0, 100.0), id="schaffer_n1"),
    ])
    def test_each_function_has_one_fixed_domain(self, name, box):
        # the search box and start region of README's Benchmarks table
        domain = make_objective(name, 3).domain
        expected = SearchDomain.uniform(domain.dim, *box)
        for key in ("lower", "upper", "init_lower", "init_upper"):
            np.testing.assert_array_equal(getattr(domain, key), getattr(expected, key))

    def test_custom_domain_through_objective_spec(self):
        obj = ObjectiveSpec("sphere", SearchDomain.uniform(3, -1.0, 1.0, 0.0, 1.0), eval_sphere)
        np.testing.assert_array_equal(obj.domain.upper, np.ones(3))
        assert obj.evaluate(np.full(3, 0.5)) == 0.75
