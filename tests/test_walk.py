import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk.walk import (
    biased_walk,
    constrained_biased_walk,
    simple_walk,
    walk_expectation,
)

TRIALS = 10_000


def test_empty_walk_is_zero():
    rng = np.random.default_rng(0)
    assert simple_walk(0, rng) == 0
    assert biased_walk(0, 0.3, rng) == 0
    assert constrained_biased_walk(0, 0.5, 2.0, 1.0, rng) == 0.0


def test_single_step_support():
    rng = np.random.default_rng(1)
    values = {simple_walk(1, rng) for _ in range(50)}
    assert values <= {-1, 1}
    assert len(values) == 2
    values = {constrained_biased_walk(1, 0.6, 2.0, 1.0, rng) for _ in range(50)}
    assert values == {2.0, -1.0}


def test_degenerate_biases():
    rng = np.random.default_rng(2)
    assert biased_walk(10, 1.0, rng) == 10
    assert biased_walk(10, 0.0, rng) == -10


def test_bias_out_of_range():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        biased_walk(5, 1.5, rng)
    with pytest.raises(ValueError):
        constrained_biased_walk(5, -0.1, 1.0, 1.0, rng)
    # a bool is no probability, although 0 <= True <= 1
    with pytest.raises(ValueError):
        walk_expectation(3, True)


def test_negative_step_count():
    with pytest.raises(ValueError):
        simple_walk(-1, np.random.default_rng(0))


WALKS = {
    "simple_walk": lambda n: simple_walk(n, np.random.default_rng(0)),
    "biased_walk": lambda n: biased_walk(n, 0.5, np.random.default_rng(0)),
    "constrained_biased_walk":
        lambda n: constrained_biased_walk(n, 1.0, 1.0, 1.0, np.random.default_rng(0)),
    "walk_expectation": lambda n: walk_expectation(n, 1.0),
}


@pytest.mark.parametrize("n", [2.5, True, float("nan")])
@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_step_count_must_be_an_integer(walk, n):
    # neither floored to a shorter walk nor read as a bool's 0 or 1 steps
    with pytest.raises(ValueError, match=rf"step count must be an integer >= 0, got {n}"):
        walk(n)


# The step lengths of a constrained walk, called with (+length, -length).
LENGTH_TAKERS = {
    "constrained_biased_walk": lambda plus, minus: constrained_biased_walk(
        3, 0.5, plus, minus, np.random.default_rng(0)),
    "walk_expectation": lambda plus, minus: walk_expectation(4, 0.5, plus, minus),
}
BAD_LENGTHS = [pytest.param(v, id=i) for v, i in [
    ("2", "str"), (True, "bool"), (float("nan"), "nan"),
    (float("inf"), "inf"), (float("-inf"), "-inf")]]


@pytest.mark.parametrize("side", ["step_plus", "step_minus"])
@pytest.mark.parametrize("length", BAD_LENGTHS)
@pytest.mark.parametrize("walk", LENGTH_TAKERS.values(), ids=LENGTH_TAKERS.keys())
def test_step_length_must_be_a_finite_number(walk, length, side):
    # neither converted from text nor read as a bool's 0 or 1
    lengths = (length, 1.0) if side == "step_plus" else (1.0, length)
    with pytest.raises(ValueError, match=rf"{side} must be a finite number, got {length!r}"):
        walk(*lengths)


@pytest.mark.parametrize("plus, minus", [
    pytest.param(2, 1, id="ints"),
    pytest.param(np.float64(2.0), np.float32(1.0), id="numpy-floats"),
    pytest.param(np.int64(2), np.int64(1), id="numpy-ints"),
    pytest.param(-2.0, 1.0, id="negative"),
])
def test_finite_step_lengths_are_taken(plus, minus):
    p = 0.5
    assert walk_expectation(4, p, plus, minus) == 4 * (p * float(plus) - (1 - p) * float(minus))
    rng = np.random.default_rng(0)
    assert constrained_biased_walk(1, 1.0, plus, minus, rng) == float(plus)
    assert constrained_biased_walk(1, 0.0, plus, minus, rng) == -float(minus)


@given(st.integers(0, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_parity_and_range(n, seed):
    s = simple_walk(n, np.random.default_rng(seed))
    assert abs(s) <= n
    assert (s - n) % 2 == 0


def test_fair_walk_mean_near_zero():
    rng = np.random.default_rng(7)
    samples = np.array([simple_walk(100, rng) for _ in range(TRIALS)])
    assert abs(samples.mean()) <= 0.5


def test_fair_walk_rms_is_sqrt_n():
    rng = np.random.default_rng(8)
    samples = np.array([simple_walk(100, rng) for _ in range(TRIALS)])
    rms = np.sqrt(np.mean(samples.astype(float) ** 2))
    assert rms == pytest.approx(10.0, rel=0.05)


def test_biased_walk_mean_matches_analytic():
    rng = np.random.default_rng(9)
    samples = np.array([biased_walk(100, 0.7, rng) for _ in range(TRIALS)])
    assert samples.mean() == pytest.approx(40.0, abs=1.0)


def test_constrained_walk_mean_matches_analytic():
    rng = np.random.default_rng(10)
    samples = np.array(
        [constrained_biased_walk(100, 0.5, 2.0, 1.0, rng) for _ in range(TRIALS)]
    )
    assert samples.mean() == pytest.approx(50.0, abs=2.0)


@pytest.mark.parametrize("n,p,plus,minus,expected", [
    (100, 0.5, 1.0, 1.0, 0.0),
    (100, 0.7, 1.0, 1.0, 40.0),
    (10, 1.0, 2.0, 1.0, 20.0),
])
def test_walk_expectation_values(n, p, plus, minus, expected):
    assert walk_expectation(n, p, plus, minus) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("spec", [
    (200, 0.5, 1.0, 1.0),
    (200, 0.7, 1.0, 1.0),
    (200, 0.4, 2.5, 0.5),
])
def test_monte_carlo_mean_within_four_standard_errors(spec):
    # spec is (steps, bias, step_plus, step_minus)
    rng = np.random.default_rng(11)
    samples = np.array([constrained_biased_walk(*spec, rng) for _ in range(TRIALS)])
    standard_error = samples.std(ddof=1) / np.sqrt(TRIALS)
    assert abs(samples.mean() - walk_expectation(*spec)) <= 4.0 * standard_error


def test_unit_steps_reduce_to_biased_walk():
    # same seed, same coin flips: the float walk mirrors the integer walk
    a = biased_walk(500, 0.3, np.random.default_rng(12))
    b = constrained_biased_walk(500, 0.3, 1.0, 1.0, np.random.default_rng(12))
    assert float(a) == b


def test_same_seed_same_final_position():
    assert (biased_walk(100, 0.55, np.random.default_rng(99))
            == biased_walk(100, 0.55, np.random.default_rng(99)))
    assert (constrained_biased_walk(100, 0.6, 2.0, 1.0, np.random.default_rng(99))
            == constrained_biased_walk(100, 0.6, 2.0, 1.0, np.random.default_rng(99)))
