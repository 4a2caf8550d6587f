import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk.graph import (
    COINCIDENT_DISTANCE,
    build_distance_matrix,
    compute_ranks,
    hop_probabilities,
    update_distance_matrix,
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

    @given(st.integers(2, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_matching_rows_of_the_full_matrix(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-5.12, 5.12, size=(n, dim))
        pos[rng.integers(n)] = pos[0]  # a coincident pair, unless it picked 0 itself
        rows = np.flatnonzero(rng.random(n) < 0.5)
        block = build_distance_matrix(pos, rows)
        assert block.shape == (rows.size, n)
        assert block.tobytes() == build_distance_matrix(pos)[rows].tobytes()


# How each particle of a swarm in [-5.12, 5.12]^dim changes between two
# iterations: stays put, moves at random, lands exactly on particle 0, or is
# clamped onto the upper box corner (where it meets every other clamped one).
MOVES = ("stay", "move", "onto", "corner")


def moved_swarm(rng, moves, dim):
    before = rng.uniform(-5.12, 5.12, size=(len(moves), dim))
    after = before.copy()
    for i, move in enumerate(moves):
        if move == "move":
            after[i] = rng.uniform(-5.12, 5.12, size=dim)
        elif move == "corner":
            after[i] = 5.12
    for i, move in enumerate(moves):
        if move == "onto":
            after[i] = after[0]
    return before, after


def assert_update_matches_rebuild(before, after):
    moved = np.any(after != before, axis=1)
    carried = build_distance_matrix(before)
    updated = update_distance_matrix(carried, after, moved)
    assert updated.tobytes() == build_distance_matrix(after).tobytes()
    # the carried matrix belongs to the earlier state and is left as it was
    assert carried.tobytes() == build_distance_matrix(before).tobytes()
    return updated


class TestUpdateDistanceMatrix:
    @pytest.mark.parametrize("moves", [
        ["stay"] * 6,
        ["stay", "move", "stay", "move", "move", "stay"],
        ["move"] * 6,
        ["stay", "stay", "onto", "move", "onto", "stay"],
        ["move", "corner", "stay", "corner", "corner", "move"],
    ], ids=["none-moved", "some-moved", "all-moved", "coincident", "collapsed-corner"])
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_named_cases_match_a_full_rebuild(self, moves, dim):
        before, after = moved_swarm(np.random.default_rng(dim), moves, dim)
        updated = assert_update_matches_rebuild(before, after)
        coincident = "onto" in moves or moves.count("corner") > 1
        assert np.any(updated == COINCIDENT_DISTANCE) == coincident

    @given(st.lists(st.sampled_from(MOVES), min_size=2, max_size=40),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_a_full_rebuild_bit_for_bit(self, moves, dim, seed):
        before, after = moved_swarm(np.random.default_rng(seed), moves, dim)
        assert_update_matches_rebuild(before, after)


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

