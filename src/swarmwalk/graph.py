"""Per-iteration swarm graph: pairwise distances, fitness ranks, hop probabilities.

The swarm is viewed as a complete weighted graph of its current positions:
nodes are particles, an edge's weight is the Euclidean distance between its
two particles, and every node's self-loop weight is pinned to 1.  Fitness
ranks (N for the best particle down to 1 for the worst) bias a random walker
on this graph; the probability of hopping from source j to node i is
rank_i * weight_ij, normalized over all i.

The distance matrix can be carried from one iteration to the next with only
the rows and columns of moved particles recomputed.  That is bit-identical to
a full rebuild: IEEE subtraction is antisymmetric (x_i - x_j == -(x_j - x_i)
exactly), so the squares, their per-pair sums over the coordinates and the
square roots do not depend on which side of the pair computes them.

Every block of distances, of any size and dimension, comes from one kernel
that adds the squared gaps onto zero one coordinate at a time, in coordinate
order, so each distance needs only elementwise subtraction, multiplication,
addition and a square root, and depends on no numpy summation order.
Besides the result it holds PLANE_GROUP planes of one strip of PLANE_ROWS
rows, at any dimension.
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

# Coordinate planes squared per ufunc call.  The planes are still added one
# by one in coordinate order, so neither this nor PLANE_ROWS changes a bit;
# it only trades ufunc calls for workspace.  Measured on a 2-vCPU Xeon VM,
# numpy 2.4.6, by replaying every distance build of two walker runs per
# workload (medians of 21 interleaved passes, and of each pass's ratio to
# the pairwise-order kernel this one replaced): sphere N=160 D=30 took
# 370.2 -> 358.8 ms (ratio 0.997) and rastrigin N=80 D=10 at sigma 0.52
# 43.0 -> 43.4 ms (ratio 1.005).  Groups of 4 timed the same, and groups
# of 16 ran 6% slower at N=160.
PLANE_GROUP = 8
# Rows summed per strip, so the plane workspace holds at most
# PLANE_GROUP * PLANE_ROWS * N values however many rows moved, and every
# block of a swarm of up to 80 particles is one strip.  Measured on a 2-vCPU
# Xeon VM, numpy 2.4.6, by replaying every distance build of four rwpso runs
# under the pairwise-order kernel (medians of 5-9 interleaved replays, as a
# share of that kernel without strips): at N=160, D=30, 80 rows took
# 0.93-1.00, 64 rows 0.92, 100 rows 0.90-0.93 and 128 rows 1.02; at N=80,
# D=10, 80 rows took 1.01 and 64 rows, which split each full build in two,
# 1.23.  perfbench peak_rss_mb on sphere-n160-d30 read 43.5-44.9 MB in one
# strip, 41.0-42.2 MB with 32- and 64-row strips, 42.0 MB with 80 and
# 42.5-42.7 MB with 96.
PLANE_ROWS = 80


def build_distance_matrix(positions, rows=None) -> np.ndarray:
    """Distances from the particles `rows` to every particle, shape (len(rows), N).

    With `rows` None this is the symmetric N x N matrix.  Otherwise `rows`
    must be a 1-D array of integer indices in [0, N), possibly empty; a
    boolean mask or a fractional or out-of-range index raises ValueError.
    So do positions with no coordinate or a non-finite one.  Each row's own
    entry is SELF_WEIGHT, and an exact zero distance between two different
    particles becomes COINCIDENT_DISTANCE.

    Each distance is the square root of the D squared gaps added onto 0.0
    one at a time in coordinate order, and no (M, N, D) temporary is built.
    The rows are taken in strips of at most PLANE_ROWS.  The gaps of
    PLANE_GROUP coordinate planes at a time are squared into one workspace
    of PLANE_GROUP (PLANE_ROWS, N) planes, which every strip reuses, and
    added plane by plane into the strip's rows of the result.  Neither the
    strips nor the groups change the order of any distance's sum, so
    whatever M and D are, the kernel needs only that workspace besides the
    result, and the result depends on no numpy summation order.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] == 0:
        raise ValueError("positions must be an (N, dim) array with dim >= 1")
    if pos.shape[0] < 2:
        raise ValueError("need at least 2 particles")
    n, dim = pos.shape
    rows = np.arange(n) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or (rows.size > 0 and (rows.dtype.kind not in "iu"
                                             or rows.min() < 0 or rows.max() >= n)):
        raise ValueError(f"rows must be a 1-D array of particle indices in [0, {n})")
    rows, m = rows.astype(int, copy=False), rows.shape[0]
    cols = pos.T.copy()
    if not np.isfinite(cols).all():
        raise ValueError("positions must be finite")
    work = np.empty((min(dim, PLANE_GROUP), min(m, PLANE_ROWS), n))
    squared = np.zeros((m, n))
    for top in range(0, m, PLANE_ROWS):
        strip = squared[top:top + PLANE_ROWS]
        _sum_squared_gaps(cols[:, rows[top:top + PLANE_ROWS]], cols,
                          work[:, :strip.shape[0]], strip)
    block = np.sqrt(squared, out=squared)
    block[block == 0.0] = COINCIDENT_DISTANCE
    block[np.arange(m), rows] = SELF_WEIGHT
    return block


def _sum_squared_gaps(sub, cols, work, out):
    """Add the squared gaps between the columns of `sub` (D, h) and of `cols`
    (D, N) onto `out` (h, N), one coordinate at a time in coordinate order;
    `work` holds min(D, PLANE_GROUP) (h, N) planes."""
    dim = cols.shape[0]
    for lo in range(0, dim, PLANE_GROUP):
        hi = min(lo + PLANE_GROUP, dim)
        planes = work[:hi - lo]
        np.subtract(sub[lo:hi, :, None], cols[lo:hi, None, :], out=planes)
        np.multiply(planes, planes, out=planes)
        for plane in planes:
            out += plane


def update_distance_matrix(matrix, positions, moved) -> np.ndarray:
    """Copy of `matrix` with the rows and columns of the `moved` particles recomputed.

    `matrix` holds the distances of the previous positions, shape (N, N), and
    `moved` is a boolean mask over the N particles, shape (N,); other shapes
    raise ValueError.  The result equals build_distance_matrix(positions)
    bit for bit.
    """
    pos = np.asarray(positions, dtype=float)
    updated = np.array(matrix, dtype=float)
    if pos.ndim == 2:  # build_distance_matrix refuses other positions
        n = pos.shape[0]
        if np.shape(moved) != (n,) or updated.shape != (n, n):
            raise ValueError(f"for {n} particles `moved` must have shape ({n},) and `matrix` "
                             f"({n}, {n}), got {np.shape(moved)} and {updated.shape}")
    rows = np.flatnonzero(moved)
    block = build_distance_matrix(pos, rows)
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

