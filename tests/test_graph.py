import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk.graph import (
    COINCIDENT_DISTANCE,
    build_distance_matrix,
    compute_ranks,
    hop_probabilities,
)

# Worked five-particle configuration: ranks come from distance to the origin
# (a minimization fitness), hop probabilities from the rank-weighted edges.
FIVE_POINTS = np.array([
    [-2.0, 4.0],
    [5.0, 5.0],
    [8.0, -1.0],
    [4.0, -6.0],
    [-4.0, -3.0],
])
ORIGIN_DISTANCES = np.linalg.norm(FIVE_POINTS, axis=1)


class TestFivePointOracle:
    def test_ranks(self):
        np.testing.assert_array_equal(
            compute_ranks(ORIGIN_DISTANCES), [5, 3, 1, 2, 4]
        )

    def test_distances_from_first_particle(self):
        a = build_distance_matrix(FIVE_POINTS)
        assert a[1, 0] == pytest.approx(7.07, abs=0.005)
        assert a[2, 0] == pytest.approx(11.18, abs=0.005)
        assert a[3, 0] == pytest.approx(11.66, abs=0.005)
        assert a[4, 0] == pytest.approx(7.28, abs=0.005)

    def test_diagonal_is_one(self):
        a = build_distance_matrix(FIVE_POINTS)
        np.testing.assert_array_equal(np.diag(a), np.ones(5))

    def test_denominator(self):
        a = build_distance_matrix(FIVE_POINTS)
        alpha = compute_ranks(ORIGIN_DISTANCES)
        assert float((alpha * a[:, 0]).sum()) == pytest.approx(89.83, abs=0.05)

    def test_probabilities_from_first_particle(self):
        a = build_distance_matrix(FIVE_POINTS)
        column = hop_probabilities(a, ORIGIN_DISTANCES)[:, 0]
        expected = (0.05, 0.23, 0.12, 0.25, 0.32)
        for got, want in zip(column, expected):
            assert got == pytest.approx(want, abs=0.02)
        assert column.sum() == pytest.approx(1.0, abs=1e-12)


class TestDistanceMatrix:
    def test_symmetric_and_exact_transpose(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(17, 4))
        a = build_distance_matrix(pos)
        np.testing.assert_array_equal(a, a.T)

    def test_coincident_particles_get_epsilon(self):
        pos = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0]])
        a = build_distance_matrix(pos)
        assert a[0, 1] == COINCIDENT_DISTANCE
        assert a[1, 0] == COINCIDENT_DISTANCE
        assert a[0, 0] == 1.0

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            build_distance_matrix(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            build_distance_matrix(np.zeros(5))

    @pytest.mark.parametrize("positions, message", [
        pytest.param(np.zeros((3, 0)), "dim >= 1", id="zero-width"),
        pytest.param([[np.inf, 0.0], [np.inf, 0.0]], "finite", id="inf"),
        pytest.param([[np.nan, 0.0], [1.0, 0.0]], "finite", id="nan"),
    ])
    def test_positions_must_be_finite_coordinates(self, positions, message):
        with pytest.raises(ValueError, match=message):
            build_distance_matrix(positions)

    @pytest.mark.parametrize("positions", [
        pytest.param([[0.0, 0.0], [2e154, 0.0], [0.0, 1.0]], id="full-squared-gap"),
        pytest.param([[0.0, 0.0], [1e154, 1e154], [0.0, 1.0]], id="full-sum-of-squares"),
    ])
    def test_overflowing_distances_are_refused(self, positions):
        # an inf distance would turn the hop matrix's columns into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared distances overflow"):
                build_distance_matrix(positions)


def in_order_distances(pos):
    """The distances with each pair's squared gaps added onto zero one
    coordinate at a time, in coordinate order, with the coincident and self
    fix-ups."""
    squared = np.zeros((pos.shape[0], pos.shape[0]))
    for coord in pos.T:
        gap = coord[:, None] - coord[None, :]
        squared += gap * gap
    matrix = np.sqrt(squared)
    matrix[matrix == 0.0] = COINCIDENT_DISTANCE
    np.fill_diagonal(matrix, 1.0)
    return matrix


# From one coordinate plane to 8200.  Most dims sit on or beside a multiple
# of 8 or 128, where numpy's pairwise sum would group the squares another
# way, so a kernel that summed them with np.sum would differ there.
ORACLE_DIMS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 30, 64, 127, 128, 129, 256, 1000, 8192, 8200)
# N = 167 is a swarm larger than any of the default sweep.  Past D = 256
# only the smallest N runs, as the oracle's time grows with N^2 * D.
ORACLE_CASES = [pytest.param(dim, n, id=f"{dim}-{n}") for dim in ORACLE_DIMS
                for n in (24, 80, 160, 167) if dim <= 256 or n == 24]
# A 640 x 640 build at D = 30 is a gap product large enough that a threaded
# BLAS may split it between threads.
ORACLE_CASES.append(pytest.param(30, 640, id="30-640"))


class TestMatchesNumpySum:
    @pytest.mark.parametrize("dim, n", ORACLE_CASES)
    def test_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(1000 * n + dim)
        swarm = rng.uniform(-5.12, 5.12, size=(n, dim))
        swarm[n - 1] = swarm[1]  # a coincident pair
        # a spread swarm, one scaled to ~1e-8, one collapsed around a point,
        # one with half its coordinates +0.0 or -0.0, and two scaled so far
        # that the squared gaps reach ~1e302 or are subnormal or zero
        signed_zeros = np.where(np.abs(swarm) < 2.56, np.copysign(0.0, swarm), swarm)
        for pos in (swarm, swarm * 1e-8, 3.0 + swarm * 1e-8, signed_zeros,
                    swarm * 1e150, swarm * 1e-160):
            got = build_distance_matrix(pos)
            want = in_order_distances(pos)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, dim", [
        pytest.param(160, 30, id="160"),
        pytest.param(160, 300, id="n160-d300"),
        pytest.param(1000, 30, id="n1000"),  # a larger swarm than any of the sweep
    ])
    def test_large_block_builds_no_gap_temporary(self, n, dim):
        pos = np.random.default_rng(n).uniform(-5.12, 5.12, size=(n, dim))
        tracemalloc.start()
        try:
            build_distance_matrix(pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, one gap plane, a third (N, N) plane for the masks, and
        # the (D + 2, N) product operands; the (N, N, D) gaps alone would
        # take D (N, N) planes.
        values = 3 * n * n + (dim + 2) * n
        assert peak < values * 8


class TestComputeRanks:
    def test_hand_ordering(self):
        np.testing.assert_array_equal(compute_ranks([3.0, 1.0, 2.0]), [1, 3, 2])

    def test_all_equal_breaks_ties_by_index(self):
        np.testing.assert_array_equal(compute_ranks(np.zeros(4)), [4, 3, 2, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            compute_ranks([1.0, np.nan])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_always_a_permutation(self, fits):
        ranks = compute_ranks(np.array(fits))
        assert sorted(ranks) == list(range(1, len(fits) + 1))


class TestTransitionProbabilities:
    def test_two_particle_closed_form(self):
        d = 3.5
        a = np.array([[1.0, d], [d, 1.0]])
        column = hop_probabilities(a, [0.0, 1.0])[:, 0]  # ranks [2, 1]
        np.testing.assert_allclose(column, [2.0 / (2.0 + d), d / (2.0 + d)])

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 4)], ids=["1-d", "one-row", "3x4"])
    def test_distances_must_be_n_by_n(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape (3, 3), got {shape}")):
            hop_probabilities(np.ones(shape), [1.0, 2.0, 3.0])

    @given(st.integers(2, 60), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_stochastic_on_random_swarms(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-50, 50, size=(n, dim))
        fits = rng.normal(size=n)
        probs = hop_probabilities(build_distance_matrix(pos), fits)
        sums = probs.sum(axis=0)
        np.testing.assert_allclose(sums, np.ones(n), atol=1e-12)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


class TestSelfTerm:
    def test_best_particle_self_probability_formula(self):
        a = build_distance_matrix(FIVE_POINTS)
        ranks = compute_ranks(ORIGIN_DISTANCES)
        probs = hop_probabilities(a, ORIGIN_DISTANCES)
        j = int(np.argmax(ranks))  # the rank-N particle
        denom = float((ranks * a[:, j]).sum())
        assert probs[j, j] == pytest.approx(ranks.size / denom, abs=1e-12)

    def test_well_separated_swarm_self_probability_is_row_minimum(self):
        # pairwise distances all exceed the swarm size, so every rank-weighted
        # edge outweighs the rank * 1 self-loop
        n = 6
        pos = np.zeros((n, 2))
        pos[:, 0] = np.arange(n) * (n + 5.0)
        fits = np.arange(n, dtype=float)
        probs = hop_probabilities(build_distance_matrix(pos), fits)
        for j in range(n):
            column = probs[:, j]
            assert column[j] == pytest.approx(column.min(), abs=1e-15)

