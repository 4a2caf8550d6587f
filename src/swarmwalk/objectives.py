"""Benchmark objective functions and their search domains.

Five benchmarks are provided: sphere, rosenbrock and rastrigin (single
objective) plus binh4 and schaffer_n1 (two objectives each, collapsed to one
fitness value by an equal-weight sum).  Each is one fixed problem: its
constants, its search box, and an asymmetric initialization sub-range where
particles start, a corner of the box that does not contain the optimum, so
an optimizer has to travel, not just refine.  Each also has a default
success threshold, `DEFAULT_THRESHOLDS`, which a sweep may override.
Nothing about a problem itself is settable but the dimension of the three
scalable ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from swarmwalk.results import _is_finite_real, _is_integer

__all__ = [
    "SearchDomain",
    "ObjectiveSpec",
    "FUNCTION_NAMES",
    "DEFAULT_THRESHOLDS",
    "eval_sphere",
    "eval_rosenbrock",
    "eval_rastrigin",
    "eval_binh4",
    "eval_schaffer_n1",
    "OBJECTIVE_WEIGHT",
    "make_objective",
]


@dataclass(frozen=True)
class SearchDomain:
    """A `dim`-dimensional box, the same interval in every coordinate, with a
    nested initialization sub-range.

    The init range may be degenerate (init_lower == init_upper) which pins
    every particle to a single starting point; the outer box may not.
    Every bound is finite.
    """

    dim: int
    lower: float
    upper: float
    init_lower: float
    init_upper: float

    def __post_init__(self):
        if not (_is_integer(self.dim) and self.dim >= 1):
            raise ValueError(f"domain dim must be an integer >= 1, got {self.dim!r}")
        for name in ("lower", "upper", "init_lower", "init_upper"):
            if not _is_finite_real(getattr(self, name)):
                raise ValueError(f"domain bound {name} must be finite")
        if not self.lower < self.upper:
            raise ValueError("lower bound must be strictly below upper bound")
        if not self.lower <= self.init_lower <= self.init_upper <= self.upper:
            raise ValueError("init range must nest inside the domain bounds")

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


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
        """Fitness of each row of an (N, dim) array, one `evaluate` call per
        row; an array of another shape raises ValueError."""
        shape = np.shape(positions)
        if len(shape) != 2 or shape[1] != self.dim:
            raise ValueError(f"evaluate_batch needs an (N, {self.dim}) array, got shape {shape}")
        return np.array([self.evaluate(p) for p in positions])


# Each problem's fitness; its box (lower, upper, init_lower, init_upper), the
# same in every coordinate; its fixed dimension, since binh4 is intrinsically
# 2-D and schaffer_n1 1-D, so a sweep runs them there whatever it lists; and
# its default success threshold on the best-so-far fitness.  The two
# scalarized two-objective functions have no threshold: they run for the
# fixed iteration budget instead.
_PROBLEMS = {
    "sphere": (eval_sphere, (-100.0, 100.0, 50.0, 100.0), None, 1e-2),
    "rosenbrock": (eval_rosenbrock, (-30.0, 30.0, 15.0, 30.0), None, 100.0),
    "rastrigin": (eval_rastrigin, (-5.12, 5.12, 2.56, 5.12), None, 50.0),
    "binh4": (_binh4_fitness, (-7.0, 4.0, 0.0, 4.0), 2, None),
    "schaffer_n1": (_schaffer_n1_fitness, (-100.0, 100.0, 50.0, 100.0), 1, None),
}

FUNCTION_NAMES = tuple(_PROBLEMS)

_FIXED_DIMS = {name: d for name, (_, _, d, _) in _PROBLEMS.items() if d is not None}

DEFAULT_THRESHOLDS = {name: threshold for name, (*_, threshold) in _PROBLEMS.items()}


def make_objective(name: str, dim: int | None = None) -> ObjectiveSpec:
    """Build one of the five benchmark objectives on its fixed domain.

    Parameters
    ----------
    name : one of FUNCTION_NAMES.
    dim : search-space dimension, an integer; required for the three scalable
        functions (rosenbrock needs at least 2).  binh4 (always 2-D) and
        schaffer_n1 (1-D) take None or that, no other.  Any other value
        raises ValueError.

    The domain is four numbers and a dimension, so building an objective
    allocates nothing whatever its dimension; whether a swarm of that
    dimension fits in memory is `ExperimentSpec`'s load check.  A problem on
    another domain is an `ObjectiveSpec` built directly, e.g.
    `ObjectiveSpec("sphere", SearchDomain(3, -1, 1, 0, 1), eval_sphere)`.
    """
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown objective {name!r}; choose one of {FUNCTION_NAMES}")
    fitness, box, fixed, _ = _PROBLEMS[name]
    if fixed is not None:
        if dim is None:
            dim = fixed
        # a non-integer, such as True or 2.0, is left for SearchDomain to refuse
        elif _is_integer(dim) and dim != fixed:
            raise ValueError(f"{name} is {fixed}-D, not {dim}-D")
    elif dim is None:
        raise ValueError(f"{name} needs an explicit dimension")
    domain = SearchDomain(dim, *box)
    if name == "rosenbrock" and dim < 2:
        raise ValueError(f"invalid dimension {dim} for {name}")
    return ObjectiveSpec(name=name, domain=domain, fitness=fitness)
