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

    @pytest.mark.parametrize("positions, message", [
        pytest.param(np.zeros((3, 0)), "dim >= 1", id="zero-width"),
        pytest.param([[np.inf, 0.0], [np.inf, 0.0]], "finite", id="inf"),
        pytest.param([[np.nan, 0.0], [1.0, 0.0]], "finite", id="nan"),
    ])
    def test_positions_must_be_finite_coordinates(self, positions, message):
        with pytest.raises(ValueError, match=message):
            build_distance_matrix(positions)
        with pytest.raises(ValueError, match=message):
            update_distance_matrix(np.ones((len(positions),) * 2), positions,
                                   np.ones(len(positions), dtype=bool))

    @pytest.mark.parametrize("positions", [
        pytest.param([[0.0, 0.0], [2e154, 0.0], [0.0, 1.0]], id="squared-gap"),
        pytest.param([[0.0, 0.0], [1e154, 1e154], [0.0, 1.0]], id="sum-of-squares"),
    ])
    @pytest.mark.parametrize("rows", [None, [0]], ids=["full", "one-row"])
    def test_overflowing_distances_are_refused(self, positions, rows):
        # an inf distance would turn the hop matrix's columns into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared distances overflow"):
                build_distance_matrix(positions, rows)

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


def in_order_distances(pos, rows):
    """The distances with each pair's squared gaps added onto zero one
    coordinate at a time, in coordinate order, with the coincident and self
    fix-ups."""
    squared = np.zeros((rows.size, pos.shape[0]))
    for coord in pos.T:
        gap = coord[rows, None] - coord[None, :]
        squared += gap * gap
    block = np.sqrt(squared)
    block[block == 0.0] = COINCIDENT_DISTANCE
    block[np.arange(rows.size), rows] = 1.0
    return block


def block_rows(rng, n, m):
    """m sorted rows of n that hold the coincident pair (1, n - 1) when m >= 2."""
    rest = rng.permutation(np.arange(2, n - 1))[:max(m - 2, 0)]
    return np.sort(np.concatenate([[1, n - 1][:m], rest])).astype(int)


# From one coordinate plane to 8200.  Most dims sit on or beside a multiple
# of 8 or 128, where numpy's pairwise sum would group the squares another
# way, so a kernel that summed them with np.sum would differ there.
ORACLE_DIMS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 30, 64, 127, 128, 129, 256, 1000, 8192, 8200)
# N = 167 is a swarm larger than any of the default sweep.  Past D = 256
# only the smallest N runs, as the oracle's time grows with N^2 * D.
ORACLE_CASES = [pytest.param(dim, n, id=f"{dim}-{n}") for dim in ORACLE_DIMS
                for n in (24, 80, 160, 167) if dim <= 256 or n == 24]
# A block of 506 rows of 640 at D = 30 is a gap product large enough that a
# threaded BLAS may split it between threads.
ORACLE_CASES.append(pytest.param(30, 640, id="30-640"))


class TestMatchesNumpySum:
    @pytest.mark.parametrize("dim, n", ORACLE_CASES)
    def test_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(1000 * n + dim)
        swarm = rng.uniform(-5.12, 5.12, size=(n, dim))
        swarm[n - 1] = swarm[1]  # a coincident pair
        # blocks of one row, of most rows, of every row, and of heights
        # around the benchmark's swarms of 80 and 160 particles where they fit
        heights = {79, 80, 81, 161}
        sizes = sorted({1, round(0.79 * n), n} | (heights & set(range(1, n + 1))))
        # a spread swarm, one scaled to ~1e-8, one collapsed around a point,
        # one with half its coordinates +0.0 or -0.0, and two scaled so far
        # that the squared gaps reach ~1e302 or are subnormal or zero
        signed_zeros = np.where(np.abs(swarm) < 2.56, np.copysign(0.0, swarm), swarm)
        for pos in (swarm, swarm * 1e-8, 3.0 + swarm * 1e-8, signed_zeros,
                    swarm * 1e150, swarm * 1e-160):
            for rows in [None] + [block_rows(rng, n, m) for m in sizes]:
                got = build_distance_matrix(pos, rows)
                want = in_order_distances(pos, np.arange(n) if rows is None else rows)
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n, m, dim", [
        pytest.param(160, 126, 30, id="126"),
        pytest.param(160, 160, 30, id="160"),
        pytest.param(640, 500, 30, id="n640-m500"),
        pytest.param(160, 160, 300, id="n160-d300"),
        pytest.param(160, 40, 100, id="n160-m40-d100"),  # a few rows of a large swarm
        pytest.param(1000, 1000, 30, id="n1000"),  # more rows than any swarm of the sweep
    ])
    def test_large_block_builds_no_gap_temporary(self, n, m, dim):
        pos = np.random.default_rng(m).uniform(-5.12, 5.12, size=(n, dim))
        rows = np.arange(m)
        tracemalloc.start()
        try:
            build_distance_matrix(pos, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, one gap plane, a third (M, N) plane for the masks, and
        # the positions by coordinate, whole and for the rows; the (M, N, D)
        # gaps alone would take D (M, N) planes.
        values = 3 * m * n + (n + m) * dim
        assert peak < values * 8


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
    @pytest.mark.parametrize("dim", [2, 10, 30, 200])
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

