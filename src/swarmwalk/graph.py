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


def build_distance_matrix(positions, rows=None) -> np.ndarray:
    """Distances from the particles `rows` to every particle, shape (len(rows), N).

    With `rows` None this is the symmetric N x N matrix.  Each row's own
    entry is SELF_WEIGHT, and an exact zero distance between two different
    particles becomes COINCIDENT_DISTANCE.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError("positions must be an (N, dim) array")
    if pos.shape[0] < 2:
        raise ValueError("need at least 2 particles")
    rows = np.arange(pos.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    diff = pos[rows, None, :] - pos[None, :, :]
    np.multiply(diff, diff, out=diff)
    block = np.sqrt(np.sum(diff, axis=-1))
    block[block == 0.0] = COINCIDENT_DISTANCE
    block[np.arange(rows.shape[0]), rows] = SELF_WEIGHT
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

