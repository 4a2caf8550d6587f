"""One-dimensional random walks: simple, biased, and constrained-step.

These are standalone statistical primitives, each returning the final
position after n steps.  A step lands `+step_plus` with probability p and
`-step_minus` otherwise; the sign convention is fixed so that +1 is always
the p-probability outcome.  The simple walk is the fair unit-step special
case.  `walk_expectation` is the closed-form mean used as an oracle by the
statistical tests, and the rank-biased particle mover uses these walks as
the reference model for its per-step drift.
"""

from __future__ import annotations

import numpy as np

from swarmwalk.results import _is_integer, _is_real

__all__ = [
    "simple_walk",
    "biased_walk",
    "constrained_biased_walk",
    "walk_expectation",
]


def _check_steps(n: int) -> int:
    if not (_is_integer(n) and n >= 0):
        raise ValueError(f"step count must be an integer >= 0, got {n}")
    return int(n)


def _check_probability(p: float) -> float:
    if not (_is_real(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"step probability must be in [0, 1], got {p}")
    return float(p)


def biased_walk(n: int, p: float, rng: np.random.Generator) -> int:
    """Unit-step walk: +1 with probability p, else -1; returns the final position S_n."""
    return int(constrained_biased_walk(n, p, 1.0, 1.0, rng))


def simple_walk(n: int, rng: np.random.Generator) -> int:
    """Fair unit-step walk (p = 1/2); returns the final position S_n."""
    return biased_walk(n, 0.5, rng)


def constrained_biased_walk(n: int, p: float, step_plus: float, step_minus: float,
                            rng: np.random.Generator) -> float:
    """Non-uniform walk: +step_plus with probability p, else -step_minus;
    returns the final position."""
    n = _check_steps(n)
    p = _check_probability(p)
    steps = np.where(rng.random(n) < p, float(step_plus), -float(step_minus))
    return float(steps.sum())


def walk_expectation(n: int, p: float, step_plus: float = 1.0,
                     step_minus: float = 1.0) -> float:
    """Closed-form mean final position: n (p step_plus - (1 - p) step_minus)."""
    n = _check_steps(n)
    p = _check_probability(p)
    return n * (p * float(step_plus) - (1.0 - p) * float(step_minus))

