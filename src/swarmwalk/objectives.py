"""Benchmark objective functions, their search domains, and swarm initialization.

Five benchmarks are provided: sphere, rosenbrock and rastrigin (single
objective) plus binh4 and schaffer_n1 (two objectives each, collapsed to one
fitness value by weighted-sum scalarization).  Each comes with an asymmetric
initialization sub-range: particles start in a corner of the search box that
does not contain the optimum, so an optimizer has to travel, not just refine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from swarmwalk.results import _is_real

__all__ = [
    "SearchDomain",
    "ObjectiveSpec",
    "FUNCTION_NAMES",
    "eval_sphere",
    "eval_rosenbrock",
    "eval_rastrigin",
    "eval_binh4",
    "eval_schaffer_n1",
    "scalarize",
    "init_positions",
    "make_objective",
]


@dataclass(frozen=True)
class SearchDomain:
    """Box-bounded search region with a nested initialization sub-range.

    The init range may be degenerate (init_lower == init_upper) which pins
    every particle to a single starting point; the outer box may not.
    """

    lower: np.ndarray
    upper: np.ndarray
    init_lower: np.ndarray
    init_upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper", "init_lower", "init_upper"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
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


def eval_rastrigin(x, amplitude: float = 10.0) -> float:
    """f(x) = A n + sum_i (x_i^2 - A cos(2 pi x_i)); minimum f(0, ..., 0) = 0."""
    x = _as_point(x)
    if not math.isfinite(x.dot(x)):
        _check_finite(x)
    # A n + sum as one Python float addition: the same IEEE sum as numpy's
    return amplitude * x.shape[0] + float(
        np.add.reduce(x * x - amplitude * np.cos(2.0 * np.pi * x)))


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


def eval_schaffer_n1(x: float, bound: float = 100.0) -> tuple[float, float]:
    """Two-objective Schaffer N.1: (x^2, (x - 2)^2) on [-bound, bound]."""
    if not math.isfinite(x):
        raise ValueError("objective input must be finite")
    if not -bound <= x <= bound:
        raise ValueError(f"schaffer_n1 input {x} outside [-{bound}, {bound}]")
    return (x * x, (x - 2.0) * (x - 2.0))


def _floats(values) -> list[float]:
    """`values` as a list of Python floats; a 0-d value becomes a list of one."""
    try:
        items = iter(values)
    except TypeError:
        return [float(values)]
    return [float(v) for v in items]


def scalarize(objectives, weights) -> float:
    """Weighted sum collapsing an objective vector to a single fitness value.

    The products are summed left to right in Python floats, starting from the
    first product, so the value is `w1 * f1 + w2 * f2` on every CPU: no BLAS
    kernel (which may fuse a multiply and an add) and no `0.0 +` that would
    turn a -0.0 product into +0.0.
    """
    obj, w = _floats(objectives), _floats(weights)
    if len(obj) != len(w):
        raise ValueError(f"{len(obj)} objectives do not match {len(w)} weights")
    if not obj:
        return 0.0
    total = obj[0] * w[0]
    for f, wf in zip(obj[1:], w[1:]):
        total += f * wf
    return total


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
    weighted.  Evaluators are pure and deterministic.
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


# (lower, upper, init_lower, init_upper) per coordinate for the box domains.
_DOMAIN_DEFAULTS = {
    "sphere": (-100.0, 100.0, 50.0, 100.0),
    "rosenbrock": (-30.0, 30.0, 15.0, 30.0),
    "rastrigin": (-5.12, 5.12, 2.56, 5.12),
    "binh4": (-7.0, 4.0, 0.0, 4.0),
}

FUNCTION_NAMES = ("sphere", "rosenbrock", "rastrigin", "binh4", "schaffer_n1")

# binh4 is intrinsically 2-D and schaffer_n1 1-D; the benchmark protocol may
# still sweep a nominal dimension over them, which these functions ignore.
# Their evaluators also check a fixed box, their default domain, so a domain
# override must stay inside it.
_FIXED_DIMS = {"binh4": 2, "schaffer_n1": 1}

# The parameters each function takes besides its four domain bounds.
_PARAMETERS = {"rastrigin": ("amplitude",), "binh4": ("weights",),
               "schaffer_n1": ("weights", "bound")}


def _real_array(name: str, key: str, value) -> np.ndarray:
    """`value`, a real number or a list of them, as floats; a bool, a string
    or any other value raises ValueError naming `name` and `key`."""
    if not all(_is_real(v) for v in np.asarray(value, dtype=object).ravel()):
        raise ValueError(f"{name} {key} must be a number or a list of numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def make_objective(
    name: str,
    dim: int | None = None,
    *,
    lower=None,
    upper=None,
    init_lower=None,
    init_upper=None,
    weights=None,
    bound=None,
    amplitude=None,
) -> ObjectiveSpec:
    """Build one of the five benchmark objectives with its default domain.

    Parameters
    ----------
    name : one of FUNCTION_NAMES.
    dim : search-space dimension; required for the three scalable functions,
        ignored by binh4 (always 2-D) and schaffer_n1 (always 1-D).
    lower, upper, init_lower, init_upper : optional per-coordinate overrides
        for the domain; scalars broadcast across coordinates.  binh4 and
        schaffer_n1 reject bounds outside their default box.
    weights : binh4 and schaffer_n1 only; the two scalarization weights,
        finite, >= 0 and summing to 1 (default equal weights).
    bound : schaffer_n1 only; half-width of its domain, in [10, 1e5]
        (default 100; the init range is the upper half [bound/2, bound]).
    amplitude : rastrigin only; its A constant (default 10).

    A parameter that `name` does not take raises ValueError, also when it
    holds its default.
    """
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown objective {name!r}; choose one of {FUNCTION_NAMES}")
    for key, value in (("weights", weights), ("bound", bound), ("amplitude", amplitude)):
        if value is not None and key not in _PARAMETERS.get(name, ()):
            raise ValueError(f"{name} takes no parameter {key!r}")

    if name in _FIXED_DIMS:
        dim = _FIXED_DIMS[name]
    elif dim is None:
        raise ValueError(f"{name} needs an explicit dimension")
    elif dim < 1 or (name == "rosenbrock" and dim < 2):
        raise ValueError(f"invalid dimension {dim} for {name}")

    if name == "schaffer_n1":
        bound = 100.0 if bound is None else bound
        if not (_is_real(bound) and 10.0 <= bound <= 1e5):
            raise ValueError(f"schaffer_n1 bound must be a number in [10, 1e5], got {bound!r}")
        defaults = (-bound, bound, bound / 2.0, bound)
    else:
        defaults = _DOMAIN_DEFAULTS[name]

    bounds = [
        np.full(dim, default) if value is None
        else np.broadcast_to(_real_array(name, key, value), (dim,)).copy()
        for key, default, value in zip(("lower", "upper", "init_lower", "init_upper"), defaults,
                                       (lower, upper, init_lower, init_upper))
    ]
    domain = SearchDomain(*bounds)
    if name in _FIXED_DIMS:
        for key, outside in (("lower", domain.lower < defaults[0]),
                             ("upper", domain.upper > defaults[1])):
            if np.any(outside):
                raise ValueError(f"{name} {key} must lie inside [{defaults[0]}, {defaults[1]}]")

    if "weights" in _PARAMETERS.get(name, ()):
        if weights is None:
            weights = (0.5, 0.5)
        weights = tuple(float(w) for w in np.atleast_1d(_real_array(name, "weights", weights)))
        if len(weights) != 2:
            raise ValueError(f"{name} needs 2 scalarization weights")
        # A nan or inf weight fails too: its sum is not within 1e-9 of 1.
        if not (min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= 1e-9):
            raise ValueError("scalarization weights must be finite, >= 0 and sum to 1")

    if name == "sphere":
        fitness = eval_sphere
    elif name == "rosenbrock":
        fitness = eval_rosenbrock
    elif name == "rastrigin":
        amplitude = 10.0 if amplitude is None else amplitude
        if not (_is_real(amplitude) and math.isfinite(amplitude)):
            raise ValueError(f"rastrigin amplitude must be a finite number, got {amplitude!r}")
        fitness = lambda x: eval_rastrigin(x, amplitude)
    elif name == "binh4":
        fitness = lambda x: scalarize(eval_binh4(float(x[0]), float(x[1])), weights)
    else:
        fitness = lambda x: scalarize(eval_schaffer_n1(float(x[0]), bound), weights)
    return ObjectiveSpec(name=name, domain=domain, fitness=fitness)
