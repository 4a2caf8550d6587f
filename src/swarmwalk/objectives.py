"""Benchmark objective functions, their search domains, and swarm initialization.

Five benchmarks are provided: sphere, rosenbrock and rastrigin (single
objective) plus binh4 and schaffer_n1 (two objectives each, collapsed to one
fitness value by an equal-weight sum).  Each is one fixed problem: its
constants, its search box, and an asymmetric initialization sub-range where
particles start, a corner of the box that does not contain the optimum, so
an optimizer has to travel, not just refine.  Nothing about them is
settable but the dimension of the three scalable ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SearchDomain",
    "ObjectiveSpec",
    "FUNCTION_NAMES",
    "eval_sphere",
    "eval_rosenbrock",
    "eval_rastrigin",
    "eval_binh4",
    "eval_schaffer_n1",
    "OBJECTIVE_WEIGHT",
    "init_positions",
    "make_objective",
]


@dataclass(frozen=True)
class SearchDomain:
    """Box-bounded search region with a nested initialization sub-range.

    The init range may be degenerate (init_lower == init_upper) which pins
    every particle to a single starting point; the outer box may not.
    Every bound is finite.
    """

    lower: np.ndarray
    upper: np.ndarray
    init_lower: np.ndarray
    init_upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper", "init_lower", "init_upper"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if not np.isfinite(value).all():
                raise ValueError(f"domain bound {name} must be finite")
            object.__setattr__(self, name, value)
        dim = self.lower.shape[0]
        for name in ("upper", "init_lower", "init_upper"):
            if getattr(self, name).shape != (dim,):
                raise ValueError("domain bound vectors must share one length")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bound must be strictly below upper bound")
        nested = (
            np.all(self.lower <= self.init_lower)
            and np.all(self.init_lower <= self.init_upper)
            and np.all(self.init_upper <= self.upper)
        )
        if not nested:
            raise ValueError("init range must nest inside the domain bounds")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    @classmethod
    def uniform(cls, dim: int, lower: float, upper: float,
                init_lower: float, init_upper: float) -> "SearchDomain":
        """Build a domain with the same scalar bounds in every coordinate."""
        return cls(
            np.full(dim, float(lower)),
            np.full(dim, float(upper)),
            np.full(dim, float(init_lower)),
            np.full(dim, float(init_upper)),
        )


def _as_point(x) -> np.ndarray:
    """`x` as a float vector; a 0-d input becomes a vector of one."""
    x = np.asarray(x, dtype=float)
    return x.reshape(1) if x.ndim == 0 else x


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("objective input must be finite")


# Each evaluator guards finiteness with one value it can test with
# math.isfinite, not with a pass of its own over the input: a nan or +-inf
# entry makes x.x (and sphere's sum of squares) non-finite.  Only when that
# value is not finite does _check_finite look at the entries, so a finite
# point whose squares overflow still evaluates to inf.  The guard never
# enters the returned value.


def eval_sphere(x) -> float:
    """f(x) = sum(x_i^2); minimum f(0, ..., 0) = 0."""
    x = _as_point(x)
    value = float(np.add.reduce(x * x))
    if not math.isfinite(value):
        _check_finite(x)
    return value


def eval_rosenbrock(x) -> float:
    """f(x) = sum_i 100 (x_{i+1} - x_i^2)^2 + (x_i - 1)^2; minimum f(1, ..., 1) = 0.

    Needs at least two coordinates.
    """
    x = _as_point(x)
    if not math.isfinite(x.dot(x)):
        _check_finite(x)
    if x.shape[0] < 2:
        raise ValueError("rosenbrock needs at least 2 dimensions")
    head, tail = x[:-1], x[1:]
    return float(np.add.reduce(100.0 * (tail - head * head) ** 2 + (head - 1.0) ** 2))


def eval_rastrigin(x) -> float:
    """f(x) = 10 n + sum_i (x_i^2 - 10 cos(2 pi x_i)); minimum f(0, ..., 0) = 0."""
    x = _as_point(x)
    if not math.isfinite(x.dot(x)):
        _check_finite(x)
    # 10 n + sum as one Python float addition: the same IEEE sum as numpy's
    return 10.0 * x.shape[0] + float(np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def eval_binh4(x: float, y: float) -> tuple[float, float]:
    """Two-objective Binh test function 4: (x^2 - y, -0.5 x - y - 1).

    Arguments must lie in the closed box [-7, 4]^2; the closed check keeps
    positions clamped onto the boundary evaluable.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("objective input must be finite")
    if not (-7.0 <= x <= 4.0 and -7.0 <= y <= 4.0):
        raise ValueError(f"binh4 input ({x}, {y}) outside [-7, 4]^2")
    return (x * x - y, -0.5 * x - y - 1.0)


def eval_schaffer_n1(x: float) -> tuple[float, float]:
    """Two-objective Schaffer N.1: (x^2, (x - 2)^2) on [-100, 100]."""
    if not math.isfinite(x):
        raise ValueError("objective input must be finite")
    if not -100.0 <= x <= 100.0:
        raise ValueError(f"schaffer_n1 input {x} outside [-100, 100]")
    return (x * x, (x - 2.0) * (x - 2.0))


# binh4's and schaffer_n1's fitness weighs their two objectives equally:
# f1 * W + f2 * W with W = OBJECTIVE_WEIGHT.  It is summed in Python floats,
# left to right, so it is the same on every CPU (no BLAS kernel fuses the
# multiply and the add) and a sum of two -0.0 products stays -0.0.
OBJECTIVE_WEIGHT = 0.5


def _binh4_fitness(x) -> float:
    f1, f2 = eval_binh4(float(x[0]), float(x[1]))
    return f1 * OBJECTIVE_WEIGHT + f2 * OBJECTIVE_WEIGHT


def _schaffer_n1_fitness(x) -> float:
    f1, f2 = eval_schaffer_n1(float(x[0]))
    return f1 * OBJECTIVE_WEIGHT + f2 * OBJECTIVE_WEIGHT


def init_positions(domain: SearchDomain, n_particles: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (N, dim) array of starting positions, uniform over the init range."""
    if n_particles < 2:
        raise ValueError("a swarm needs at least 2 particles")
    return rng.uniform(domain.init_lower, domain.init_upper,
                       size=(n_particles, domain.dim))


@dataclass(frozen=True)
class ObjectiveSpec:
    """A benchmark problem to minimize: its search domain and fitness function.

    `fitness` maps a position (array-like; it converts the position itself)
    to its scalar fitness, a two-objective function's values already
    summed with weight `OBJECTIVE_WEIGHT` each.  Evaluators are pure and
    deterministic.
    """

    name: str
    domain: SearchDomain
    fitness: Callable[[np.ndarray], float]

    @property
    def dim(self) -> int:
        return self.domain.dim

    def evaluate(self, x) -> float:
        return self.fitness(x)

    def evaluate_batch(self, positions) -> np.ndarray:
        """Fitness of each row of an (N, dim) array, one `evaluate` call per row."""
        return np.array([self.evaluate(p) for p in positions])


# (lower, upper, init_lower, init_upper) of each function's box, the same in
# every coordinate.
_DOMAINS = {
    "sphere": (-100.0, 100.0, 50.0, 100.0),
    "rosenbrock": (-30.0, 30.0, 15.0, 30.0),
    "rastrigin": (-5.12, 5.12, 2.56, 5.12),
    "binh4": (-7.0, 4.0, 0.0, 4.0),
    "schaffer_n1": (-100.0, 100.0, 50.0, 100.0),
}

FUNCTION_NAMES = tuple(_DOMAINS)

_FITNESS = {
    "sphere": eval_sphere,
    "rosenbrock": eval_rosenbrock,
    "rastrigin": eval_rastrigin,
    "binh4": _binh4_fitness,
    "schaffer_n1": _schaffer_n1_fitness,
}

# binh4 is intrinsically 2-D and schaffer_n1 1-D; the benchmark protocol may
# still sweep a nominal dimension over them, which these functions ignore.
_FIXED_DIMS = {"binh4": 2, "schaffer_n1": 1}


def make_objective(name: str, dim: int | None = None) -> ObjectiveSpec:
    """Build one of the five benchmark objectives on its fixed domain.

    Parameters
    ----------
    name : one of FUNCTION_NAMES.
    dim : search-space dimension; required for the three scalable functions,
        ignored by binh4 (always 2-D) and schaffer_n1 (always 1-D).

    A problem on another domain is an `ObjectiveSpec` built directly, e.g.
    `ObjectiveSpec("sphere", SearchDomain.uniform(3, -1, 1, 0, 1), eval_sphere)`.
    """
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown objective {name!r}; choose one of {FUNCTION_NAMES}")

    if name in _FIXED_DIMS:
        dim = _FIXED_DIMS[name]
    elif dim is None:
        raise ValueError(f"{name} needs an explicit dimension")
    elif dim < 1 or (name == "rosenbrock" and dim < 2):
        raise ValueError(f"invalid dimension {dim} for {name}")
    domain = SearchDomain.uniform(dim, *_DOMAINS[name])
    return ObjectiveSpec(name=name, domain=domain, fitness=_FITNESS[name])
