"""Per-iteration swarm graph: pairwise distances, fitness ranks, hop probabilities.

The swarm is viewed as a complete weighted graph of its current positions:
nodes are particles, edge weights are Euclidean distances, and every node's
self-loop weight is pinned to 1.  Fitness ranks (N for the best particle down
to 1 for the worst) bias a random walker on this graph; the probability of
hopping from source j to node i is rank_i * weight_ij, normalized over all i.

The distance matrix can be carried from one iteration to the next with only
the rows and columns of moved particles recomputed.  That is bit-identical to
a full rebuild: IEEE subtraction is antisymmetric (x_i - x_j == -(x_j - x_i)
exactly), so the squares, their per-pair sums over the coordinates and the
square roots do not depend on which side of the pair computes them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SELF_WEIGHT",
    "COINCIDENT_DISTANCE",
    "build_distance_matrix",
    "update_distance_matrix",
    "compute_ranks",
    "hop_probabilities",
]

SELF_WEIGHT = 1.0
# Substituted for an exact zero off-diagonal distance so no particle ever
# drops out of the hop distribution.
COINCIDENT_DISTANCE = 1e-9

# build_distance_matrix sums an (M, N) block plane by plane once
# M * N >= PLANE_MIN_ENTRIES_PER_DIM * D.  Below that, the fixed cost of the
# plane body's ufunc calls, which grows with D, outweighs the broadcast
# body's per-distance reduction cost.  Measured on a 2-vCPU Xeon VM, numpy
# 2.4.6 (plane time over broadcast time, medians of 21 alternated timings):
# at M * N = 48 D it is 0.95-1.11, at 64 D 0.87-0.98 for D = 10 and 20 but
# 0.91-1.05 for D = 30, and from 72 D on at most 0.95 at every N from 40 to
# 160 tried; at N=160, D=10-30 it is 0.45-0.75.
PLANE_MIN_ENTRIES_PER_DIM = 80
# numpy sums a float64 row of at most this many values with the fixed
# eight-accumulator tree the plane body replays, and longer rows by halves.
PAIRWISE_BLOCK = 128
# Coordinate planes squared per ufunc call past the first eight (a divisor
# of 8).  At N=40-80 four cost far less per call than one; at N=160 one to
# four ran equally fast and eight, with its larger workspace, slower.
PLANE_GROUP = 4


def build_distance_matrix(positions, rows=None) -> np.ndarray:
    """Distances from the particles `rows` to every particle, shape (len(rows), N).

    With `rows` None this is the symmetric N x N matrix.  Each row's own
    entry is SELF_WEIGHT, and an exact zero distance between two different
    particles becomes COINCIDENT_DISTANCE.

    Each distance is the square root of numpy's sum of the D squared gaps,
    bit for bit, whichever of two bodies computes it.  A block of fewer than
    PLANE_MIN_ENTRIES_PER_DIM * D distances, or one with D > PAIRWISE_BLOCK,
    builds the (M, N, D) gaps and sums them with np.sum.  A larger block
    builds no such temporary: it squares the gaps of a few coordinate
    planes at a time into one workspace of at most 8 + PLANE_GROUP (M, N)
    planes, and replays the order in which numpy sums a float64 row of at
    most PAIRWISE_BLOCK values.  Below D = 8 that is one running sum.  From
    D = 8 on, plane k is added into accumulator k % 8 up to the last
    multiple of eight, the accumulators combine as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the remaining planes are added
    one by one.  So the result depends on numpy's internal summation order.
    The N=160 distance digests in tests/test_golden.py run this body and
    fail loudly under a numpy that sums differently.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError("positions must be an (N, dim) array")
    if pos.shape[0] < 2:
        raise ValueError("need at least 2 particles")
    rows = np.arange(pos.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    (n, dim), m = pos.shape, rows.shape[0]
    if m * n < PLANE_MIN_ENTRIES_PER_DIM * dim or dim > PAIRWISE_BLOCK:
        gaps = pos[rows, None, :] - pos[None, :, :]
        np.multiply(gaps, gaps, out=gaps)
        squared = np.sum(gaps, axis=-1)
    else:
        cols = pos.T.copy()
        sub = cols[:, rows]
        lanes = min(dim, 8)
        work = np.empty((lanes + min(dim - lanes, PLANE_GROUP), m, n))

        def squared_gaps(lo, hi, out):
            np.subtract(sub[lo:hi, :, None], cols[lo:hi, None, :], out=out)
            return np.multiply(out, out, out=out)

        acc = squared_gaps(0, lanes, work[:lanes])
        if dim < 8:
            for k in range(1, dim):
                acc[0] += acc[k]
        else:
            head = dim - dim % 8
            for lo in range(8, head, PLANE_GROUP):
                lane = lo % 8
                acc[lane:lane + PLANE_GROUP] += squared_gaps(lo, lo + PLANE_GROUP, work[8:])
            acc[0:8:2] += acc[1:8:2]
            acc[0:8:4] += acc[2:8:4]
            acc[0] += acc[4]
            for lo in range(head, dim, PLANE_GROUP):
                hi = min(lo + PLANE_GROUP, dim)
                for plane in squared_gaps(lo, hi, work[8:8 + hi - lo]):
                    acc[0] += plane
        squared = acc[0]
    block = np.sqrt(squared)
    block[block == 0.0] = COINCIDENT_DISTANCE
    block[np.arange(m), rows] = SELF_WEIGHT
    return block


def update_distance_matrix(matrix, positions, moved) -> np.ndarray:
    """Copy of `matrix` with the rows and columns of the `moved` particles recomputed.

    `matrix` holds the distances of the previous positions and `moved` is a
    boolean mask over the particles; the result equals
    build_distance_matrix(positions) bit for bit.
    """
    rows = np.flatnonzero(moved)
    block = build_distance_matrix(positions, rows)
    updated = np.array(matrix, dtype=float)
    updated[rows] = block
    updated[:, rows] = block.T
    return updated


def compute_ranks(fitnesses) -> np.ndarray:
    """Integer ranks 1..N: the best particle gets N, the worst gets 1.

    Ties break by index: among equal fitnesses the lower index takes the
    higher rank, which keeps seeded runs reproducible.
    """
    f = np.asarray(fitnesses, dtype=float)
    if f.ndim != 1 or f.shape[0] < 2:
        raise ValueError("fitnesses must be a vector of length >= 2")
    if not np.all(np.isfinite(f)):
        raise ValueError("fitnesses must be finite")
    order = np.argsort(f, kind="stable")
    ranks = np.empty(f.shape[0], dtype=int)
    ranks[order] = np.arange(f.shape[0], 0, -1)
    return ranks


def hop_probabilities(distances, fitnesses) -> np.ndarray:
    """Column-stochastic hop matrix: entry (i, j) is rank_i * d_ij / sum_k rank_k * d_kj.

    Column j is the hop distribution out of source particle j.
    """
    weighted = compute_ranks(fitnesses)[:, None] * distances
    return weighted / weighted.sum(axis=0, keepdims=True)

