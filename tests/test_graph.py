import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk.graph import (
    COINCIDENT_DISTANCE,
    PLANE_GROUP,
    PLANE_MIN_ENTRIES_PER_DIM,
    PLANE_ROWS,
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

    @pytest.mark.parametrize("rows", [
        pytest.param([True, False, True, False], id="bool-mask"),
        pytest.param([1.5], id="fractional"),
        pytest.param([-1], id="negative"),
        pytest.param([7], id="past-the-end"),
        pytest.param([[0, 1]], id="2-d"),
    ])
    def test_rows_must_be_particle_indices(self, rows):
        with pytest.raises(ValueError, match=r"1-D array of particle indices in \[0, 4\)"):
            build_distance_matrix(FIVE_POINTS[:4], rows)

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=int)], ids=["list", "array"])
    def test_no_rows_give_an_empty_block(self, rows):
        # a walker step in which no particle moved asks for no rows
        assert build_distance_matrix(FIVE_POINTS, rows).shape == (0, 5)

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


def numpy_sum_distances(pos, rows):
    """The distances as np.sum gives them, with the coincident and self fix-ups."""
    d = pos[rows, None, :] - pos[None, :, :]
    block = np.sqrt(np.sum(d * d, axis=-1))
    block[block == 0.0] = COINCIDENT_DISTANCE
    block[np.arange(rows.size), rows] = 1.0
    return block


def block_rows(rng, n, m):
    """m sorted rows of n that hold the coincident pair (1, n - 1) when m >= 2."""
    rest = rng.permutation(np.arange(2, n - 1))[:max(m - 2, 0)]
    return np.sort(np.concatenate([[1, n - 1][:m], rest])).astype(int)


# D = 8 is the first dimension numpy sums with its eight accumulators, 9, 15
# and 17 add tail planes, 128 is the longest row it sums in one tree, and
# 129 and 256 are split by it (so they take the broadcast body).
ORACLE_DIMS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 30, 64, 127, 128, 129, 256)


class TestMatchesNumpySum:
    # N = 2 * PLANE_ROWS + 7 holds a block of three strips
    @pytest.mark.parametrize("n", (24, 80, 160, 2 * PLANE_ROWS + 7))
    @pytest.mark.parametrize("dim", ORACLE_DIMS)
    def test_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(1000 * n + dim)
        swarm = rng.uniform(-5.12, 5.12, size=(n, dim))
        swarm[n - 1] = swarm[1]  # a coincident pair
        # the fewest rows a block needs to take the plane body (when D <= 128)
        cut = -(-PLANE_MIN_ENTRIES_PER_DIM * dim // n)
        # blocks that end just short of, on and just past a strip's last row
        strips = {PLANE_ROWS - 1, PLANE_ROWS, PLANE_ROWS + 1, 2 * PLANE_ROWS + 1}
        sizes = sorted(({1, round(0.79 * n), cut - 1, cut, n} & set(range(1, n + 1)))
                       | (strips & set(range(cut, n + 1))))
        # a spread swarm, one scaled to ~1e-8 and one collapsed around a point
        for pos in (swarm, swarm * 1e-8, 3.0 + swarm * 1e-8):
            for rows in [None] + [block_rows(rng, n, m) for m in sizes]:
                got = build_distance_matrix(pos, rows)
                want = numpy_sum_distances(pos, np.arange(n) if rows is None else rows)
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, m", [pytest.param(160, 126, id="126"),
                                      pytest.param(160, 160, id="160"),
                                      pytest.param(640, 500, id="n640-m500")])
    def test_large_block_builds_no_gap_temporary(self, n, m):
        pos = np.random.default_rng(m).uniform(-5.12, 5.12, size=(n, 30))
        rows = np.arange(m)
        tracemalloc.start()
        try:
            build_distance_matrix(pos, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one strip's workspace, and the result and its masks; the (M, N, D)
        # gaps alone would take 30 (M, N) planes
        assert peak < ((8 + PLANE_GROUP) * PLANE_ROWS * n + 4 * m * n) * 8


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

    @pytest.mark.parametrize("matrix_size, moved", [
        pytest.param(4, [True], id="short-mask"),
        pytest.param(4, [False] * 5, id="long-mask"),
        pytest.param(3, [True] * 4, id="small-matrix"),
        pytest.param(5, [True] * 4, id="large-matrix"),
    ])
    def test_shapes_must_match_the_swarm(self, matrix_size, moved):
        matrix = build_distance_matrix(FIVE_POINTS[:matrix_size])
        with pytest.raises(ValueError, match=r"for 4 particles `moved` must have shape \(4,\)"):
            update_distance_matrix(matrix, FIVE_POINTS[:4], moved)

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

