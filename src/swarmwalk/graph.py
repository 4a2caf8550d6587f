"""Per-iteration swarm graph: pairwise distances, fitness ranks, hop probabilities.

The swarm is viewed as a complete weighted graph of its current positions:
nodes are particles, an edge's weight is the Euclidean distance between its
two particles, and every node's self-loop weight is pinned to 1.  Fitness
ranks (N for the best particle down to 1 for the worst) bias a random walker
on this graph; the probability of hopping from source j to node i is
rank_i * weight_ij, normalized over all i.

The distance matrix comes from one kernel, `build_distance_matrix`, whose
bytes depend on no numpy summation order and no BLAS kernel; its docstring
gives the argument.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SELF_WEIGHT",
    "COINCIDENT_DISTANCE",
    "build_distance_matrix",
    "compute_ranks",
    "hop_probabilities",
]

SELF_WEIGHT = 1.0
# Substituted for an exact zero off-diagonal distance so no particle ever
# drops out of the hop distribution.
COINCIDENT_DISTANCE = 1e-9


def build_distance_matrix(positions) -> np.ndarray:
    """Symmetric N x N matrix of the distances between the particles.

    Positions with no coordinate, a non-finite one, or an overflowing
    squared distance raise ValueError.  The diagonal is SELF_WEIGHT, and an
    exact zero distance between two different particles becomes
    COINCIDENT_DISTANCE.

    Each distance is the square root of the D squared gaps added onto 0.0
    one at a time in coordinate order, and no (N, N, D) temporary is built:
    each coordinate's gaps are written into one (N, N) plane, squared in
    place and added onto the result.  The gaps are the two-term product
    here * 1 + (-1) * there, whose terms are exact, so the plane holds the
    rounded here - there, up to a zero gap's sign, on any BLAS kernel (with
    or without fused multiply-add, adding the terms in either order); the
    product is faster than numpy's broadcast subtraction, which loops over
    the plane row by row.  So whatever D is, the kernel needs only that
    plane besides the result, and the result depends on no numpy summation
    order and no BLAS kernel.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] == 0:
        raise ValueError("positions must be an (N, dim) array with dim >= 1")
    if pos.shape[0] < 2:
        raise ValueError("need at least 2 particles")
    n, d = pos.shape
    # rows 1, coordinates, -1: coordinate c's gap plane is the (N, 2) @ (2, N)
    # product of rows (c + 1, d + 1) and (0, c + 1)
    terms = np.empty((d + 2, n))
    terms[0] = 1.0
    terms[1:d + 1] = pos.T
    terms[d + 1] = -1.0
    gap = np.empty((n, n))
    squared = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(d):
            np.matmul(terms[c + 1::d - c].T, terms[:c + 2:c + 1], out=gap)
            np.multiply(gap, gap, out=gap)
            squared += gap
    # a non-finite coordinate or an overflow leaves a non-finite sum
    if not np.isfinite(squared.max()):
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        raise ValueError(f"squared distances overflow: coordinates reach {abs(pos).max():.3g}")
    matrix = np.sqrt(squared, out=squared)
    matrix[matrix == 0.0] = COINCIDENT_DISTANCE
    np.fill_diagonal(matrix, SELF_WEIGHT)
    return matrix


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

    Column j is the hop distribution out of source particle j.  For N
    fitnesses `distances` must have shape (N, N); another shape raises
    ValueError.
    """
    ranks = compute_ranks(fitnesses)
    n = ranks.shape[0]
    if np.shape(distances) != (n, n):
        raise ValueError(f"for {n} fitnesses `distances` must have shape ({n}, {n}), "
                         f"got {np.shape(distances)}")
    weighted = ranks[:, None] * distances
    return weighted / weighted.sum(axis=0, keepdims=True)

