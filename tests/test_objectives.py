import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk.objectives import (
    FUNCTION_NAMES,
    SearchDomain,
    eval_binh4,
    eval_rastrigin,
    eval_rosenbrock,
    eval_schaffer_n1,
    eval_sphere,
    init_positions,
    make_objective,
    scalarize,
)


class TestSphere:
    def test_optimum(self):
        assert eval_sphere(np.zeros(7)) == 0.0

    def test_hand_value(self):
        assert eval_sphere([1.0, 2.0, 3.0]) == 14.0

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

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=10))
    def test_non_negative(self, xs):
        assert eval_rosenbrock(np.array(xs)) >= 0.0


class TestRastrigin:
    def test_optimum(self):
        assert eval_rastrigin([0.0, 0.0]) == 0.0

    def test_hand_values(self):
        assert eval_rastrigin([1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
        assert eval_rastrigin([0.5]) == pytest.approx(20.25, abs=1e-12)

    @given(st.lists(st.floats(-5.12, 5.12), min_size=1, max_size=20))
    def test_even_function(self, xs):
        x = np.array(xs)
        assert eval_rastrigin(x) == pytest.approx(eval_rastrigin(-x), rel=1e-12, abs=1e-9)


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
        eval_schaffer_n1(101.0, bound=200.0)


class TestScalarize:
    def test_equal_weights(self):
        assert scalarize([0.0, 4.0], [0.5, 0.5]) == 2.0
        assert scalarize([1.0, 1.0], [0.5, 0.5]) == 1.0

    @given(st.floats(-1e9, 1e9))
    def test_identity_for_single_objective(self, x):
        assert scalarize([x], [1.0]) == x

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            scalarize([1.0, 2.0], [1.0])


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
        obj = make_objective(name, 5)
        assert obj.evaluate(point) == obj.known_optimum_value == 0.0

    def test_all_functions_resolvable(self):
        for name in FUNCTION_NAMES:
            obj = make_objective(name, 10)
            mid = (obj.domain.init_lower + obj.domain.init_upper) / 2.0
            assert np.isfinite(obj.evaluate(mid))

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
        obj = make_objective("binh4")
        assert obj.scalarization_weights == (0.5, 0.5)
        assert obj.evaluate([0.0, 0.0]) == pytest.approx(-0.5)

    def test_weight_override(self):
        obj = make_objective("schaffer_n1", weights=(1.0, 0.0))
        assert obj.evaluate([3.0]) == 9.0

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            make_objective("binh4", weights=(0.9, 0.9))
        with pytest.raises(ValueError):
            make_objective("binh4", weights=(1.0,))

    def test_schaffer_bound_sets_domain(self):
        obj = make_objective("schaffer_n1", bound=1000.0)
        np.testing.assert_array_equal(obj.domain.lower, [-1000.0])
        np.testing.assert_array_equal(obj.domain.init_lower, [500.0])
        with pytest.raises(ValueError):
            make_objective("schaffer_n1", bound=5.0)

    def test_domain_override(self):
        obj = make_objective("sphere", 3, lower=-1.0, upper=1.0,
                             init_lower=0.0, init_upper=1.0)
        np.testing.assert_array_equal(obj.domain.upper, np.ones(3))

    def test_binh4_domain_must_stay_in_its_box(self):
        with pytest.raises(ValueError, match="binh4"):
            make_objective("binh4", lower=-10.0, upper=10.0, init_lower=0.0, init_upper=4.0)
        with pytest.raises(ValueError):
            make_objective("binh4", upper=5.0)
        obj = make_objective("binh4", lower=-1.0, upper=3.0, init_lower=0.0, init_upper=3.0)
        assert obj.evaluate(obj.domain.lower) == pytest.approx(1.25)

    def test_schaffer_domain_must_stay_in_its_box(self):
        with pytest.raises(ValueError, match="schaffer_n1"):
            make_objective("schaffer_n1", lower=-300.0, upper=300.0)
        with pytest.raises(ValueError):
            make_objective("schaffer_n1", bound=10.0, lower=-20.0, init_lower=5.0)
        obj = make_objective("schaffer_n1", lower=-50.0, upper=100.0)
        assert obj.evaluate(obj.domain.lower) == pytest.approx((2500.0 + 2704.0) / 2)
