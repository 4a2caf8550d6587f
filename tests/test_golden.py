"""Golden digests of seeded `run` output and of the kernels under it.

The CSV and JSON that `swarmwalk run` writes are a pure function of the
experiment config.  These digests pin them across versions: a change that
moves any seeded number, or the draw order behind it, fails here.  The
objective values and distance matrices are pinned separately, bit for bit.  A change
that means to move them must say so and update the digests on purpose.
The digests were recorded with the numpy version in `RECORDED_WITH_NUMPY`.
They do not depend on the CPU's SIMD features or on the BLAS kernel:
`test_digests_hold_without_simd_and_fma` reruns some of them in a child
interpreter with those switched off.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmwalk
from swarmwalk.cli import cli_main
from swarmwalk.graph import COINCIDENT_DISTANCE, build_distance_matrix
from swarmwalk.objectives import FUNCTION_NAMES, make_objective

BASE = {
    "functions": list(FUNCTION_NAMES),
    "algorithms": ["rwpso", "pso"],
    "population_sizes": [8],
    "dimensions": [2],
    "runs_per_cell": 2,
    "max_iterations": 20,
    "base_seed": 0,
}

RECORDED_WITH_NUMPY = "2.4.6"

# The environment variables that choose numpy's SIMD loops and OpenBLAS's kernel.
KERNEL_ENV = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def _recorded_with() -> str:
    """The message of a failed digest check: both numpy versions and any kernel override."""
    kernels = "".join(f", {key}={os.environ[key]!r}" for key in KERNEL_ENV if key in os.environ)
    return f"digests recorded with numpy {RECORDED_WITH_NUMPY}, running numpy {np.__version__}{kernels}"


VARIANTS = {
    "base": {},
    # D = 10 and 30 add ten and thirty coordinate planes onto each distance
    # and run the objectives' sums through numpy's 8-way pairwise
    # summation, and rastrigin's `RWPSO_TUNING` sigma leaves over half the
    # walker's particle-steps unmoved, so this pins the distance matrix
    # carried across iterations.
    "wide": {
        "functions": ["sphere", "rosenbrock", "rastrigin"],
        "population_sizes": [24],
        "dimensions": [10, 30],
        "max_iterations": 60,
    },
    # N=160 gives the walker full distance builds and row updates of more
    # than 80 rows; rastrigin's `RWPSO_TUNING` sigma leaves some particles
    # unmoved, so row blocks of many sizes occur.
    "large": {
        "functions": ["sphere", "rastrigin"],
        "population_sizes": [160],
        "dimensions": [30],
    },
}

DIGESTS = {
    ("base", "csv"): "702bf7775456fe51b7b9725f6f5f1312ceacb08b2baeda348ea171025c80ba8d",
    ("base", "json"): "25e025b01246e875b487aef1e0f414d626a2db359e3f7b40da4bd8b764aaec3d",
    ("wide", "csv"): "9117f0268841c47032299956b6c575112f5ee8723b6ff3bc2789c5645f4a4ac0",
    ("wide", "json"): "5f959011d2e3a6a3d35c47a23597cdd52efe4fd579e0f299a0928cf0bc9c6b2f",
    ("large", "csv"): "273f183a977660871b8257071e71a2013e98ccbd01f08adf037dc86da54332b8",
    ("large", "json"): "d908d478e425c63dc64673cb5141b3efb74d968598d488d48c6666baf8c58966",
}


@pytest.mark.parametrize("variant, fmt", sorted(DIGESTS))
def test_run_output_digest(tmp_path, variant, fmt):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(BASE | VARIANTS[variant]), encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    code = cli_main(["run", "--config", str(config), "--format", fmt, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(variant, fmt)], _recorded_with()


# The kernels below the run loop, pinned by the raw float64 bytes they
# return.  A last-ulp change in an evaluator or in the distances need not
# move the run digests above, so these catch it directly.  Dimensions 7-10
# cross numpy's 8-way pairwise summation threshold.
KERNEL_DIMS = (1, 2, 3, 7, 8, 9, 10, 30)

OBJECTIVE_CASES = [
    (name, dim)
    for name in FUNCTION_NAMES
    for dim in {"binh4": (2,), "schaffer_n1": (1,)}.get(name, KERNEL_DIMS)
    if not (name == "rosenbrock" and dim < 2)
]


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _objective_points(objective, rng) -> np.ndarray:
    """Seeded interior points plus the origin, box corners and edge-clamped points."""
    domain = objective.domain
    lower, upper = np.full(domain.dim, domain.lower), np.full(domain.dim, domain.upper)
    width = upper - lower
    alternating = np.where(np.arange(domain.dim) % 2 == 0, lower, upper)
    outside = rng.uniform(lower - width / 2, upper + width / 2, size=(24, domain.dim))
    return np.vstack([
        rng.uniform(lower, upper, size=(40, domain.dim)),
        np.zeros((1, domain.dim)),
        lower, upper, alternating,
        domain.clamp(outside),
    ])


def _distance_swarm(dim: int) -> np.ndarray:
    positions = np.random.default_rng(1000 + dim).uniform(-5.0, 5.0, size=(24, dim))
    positions[7] = positions[3]  # one coincident pair
    return positions


OBJECTIVE_DIGESTS = {
    ("sphere", 1): "d07321f1a69c133a356432f3be5a4feadd4c2b51ac6054566315a43b5fbb006c",
    ("sphere", 2): "acd5ea41827763545b34d90628a4731687999c189da9385e760283e75111e17f",
    ("sphere", 3): "f4d178493527e633d6c60d989937ec648005737bf63cb4dc92b570c5cad61e38",
    ("sphere", 7): "c436946cac39a49fc4a6c05f6b69c4b4fd15f7c88b1691ea35a746cfe748cc06",
    ("sphere", 8): "57454475314fec49c9ce773095634a611ec6022f56cd1a77e7ddab77b1ac6375",
    ("sphere", 9): "832ca73c86bbec370e33a0a4625e718089271e18eb2b1eea5b787117f9760241",
    ("sphere", 10): "a122cde0bc4ff1d61b4b893e70abbf6508fb16ed1441f2bfea077b6a8c440ff8",
    ("sphere", 30): "c0bdc54cfaaa41b423f9dcdd22e495627e8bcc94bf2a039865a3ea123d41b39a",
    ("rosenbrock", 2): "96cdb5246c33886aff5fe3b13671920d3e78c3d10e6a01c490ff4099dd84c348",
    ("rosenbrock", 3): "b8fa1a4132d6069cbf2b8d8a0803e42d9a0c470e3b8c3eeefff6cdddfc6a834b",
    ("rosenbrock", 7): "d55c4c8f64062f5fbe11e3b45fd76c35e6ada7deb80226890b519d69c097410b",
    ("rosenbrock", 8): "1ed8424401a174b47e581a1250c51778b502cf2dec6825789650e61048927dbf",
    ("rosenbrock", 9): "f6a0676294ca6f691abb229f3997db088e60d12749464cc321866098ad50d39c",
    ("rosenbrock", 10): "36d45ed4834a63f4a30dde3fb0a10f1e6fea0567e2181d812778c3b904ee2d5b",
    ("rosenbrock", 30): "95c67315829f51046b21dabcd9ecaf037d3c10382fcf2aca1dc033b1efc703df",
    ("rastrigin", 1): "f20985e27b410167d837900c1ff992abc2fe68797a90d127d7ca5aaa8e789eb1",
    ("rastrigin", 2): "a2e39b0034ce2a8565b0ce1f8f49430ceb08e9b05e7271fc5f39d81fba15bcc4",
    ("rastrigin", 3): "cb9857c07b103289505525770f979ff984ee88cf87d87ea2d90c7f09a85ee7c9",
    ("rastrigin", 7): "7821c3a9c104b1cabc8825662b9940300ba786578e1c52ea42a9048d2e2374b3",
    ("rastrigin", 8): "a795f2ccd364033b23a753acc7d52562fd77c10e7a38c2892a4c4d733853ae8d",
    ("rastrigin", 9): "37227e5da9d5ef9705817803f4678a57061f9f6285cc1b76fdf37b4cb8490480",
    ("rastrigin", 10): "dac68d4acd9dc4ef1b4257249e9bfd8c59aa8293cc571a12831082efc65cf382",
    ("rastrigin", 30): "148c3f0dc8f89c9b978572caa1f629af0bdb8fbc820e680d1a1b6de3cdc2298b",
    ("binh4", 2): "8c58ec8da19f2a64b1bbe00c814699119c928a42f292c282647e36a9e9f2f640",
    ("schaffer_n1", 1): "cc97f31009df7be4572ef77036c8e5bcdbe16f36e66404b3db8cb68a608faf57",
}

DISTANCE_DIGESTS = {
    2: "2db44d809430fcdf8e0d47093f30fc029aa4af9d03109ef6259eb8e0285694a7",
    10: "c8c251a20d11934ffde1ee697a8d45551f0433098b49cc4a82fbb49c4beec992",
    30: "32c098a86aca1e8d1620da753eaca3a0b270b2d428c8d1207f9087badb5ff434",
}


@pytest.mark.parametrize("name, dim", OBJECTIVE_CASES)
def test_objective_evaluate_digest(name, dim):
    assert _evaluate_digest(name, dim) == OBJECTIVE_DIGESTS[(name, dim)], _recorded_with()


def _evaluate_digest(name: str, dim: int) -> str:
    objective = make_objective(name, dim)
    rng = np.random.default_rng(FUNCTION_NAMES.index(name) * 100 + objective.dim)
    return _digest([objective.evaluate(p) for p in _objective_points(objective, rng)])


@pytest.mark.parametrize("dim", sorted(DISTANCE_DIGESTS))
def test_distance_matrix_digest(dim):
    matrix = build_distance_matrix(_distance_swarm(dim))
    assert np.count_nonzero(matrix == COINCIDENT_DISTANCE) == 2
    assert _digest(matrix) == DISTANCE_DIGESTS[dim], _recorded_with()


# N=160 swarms pin both the full build and a 126-row block (about 0.79 N,
# the walker's mean moved share on sphere N=160 D=30), each summed in one
# (M, N) gap plane, one coordinate plane at a time.  At D=8, 10, 17 and 30
# that order differs from numpy's 8-way pairwise sum; np.sum adds fewer
# than 8 values in order too, so at D=3 the digests equal np.sum's.
LARGE_DISTANCE_DIMS = (3, 8, 10, 17, 30)
LARGE_BLOCK_ROWS = np.sort(np.random.default_rng(3006).permutation(160)[:126])


def _large_distance_swarm(dim: int) -> np.ndarray:
    positions = np.random.default_rng(2000 + dim).uniform(-5.0, 5.0, size=(160, dim))
    positions[101] = positions[17]  # one coincident pair
    return positions


LARGE_DISTANCE_DIGESTS = {
    ("full", 3): "6a3dab7108a1715c7607b43836a1c2422ff0707dd6d8175915e95af0def79555",
    ("full", 8): "5e138bb4fab77e275806da39c51c15115f7fab1a33b3677a6b7a0d745eee6520",
    ("full", 10): "d1d0f92747b121392add23bddcc42b8f79df0bcceb383e6c562846a110fe34bf",
    ("full", 17): "8debc49e570c58ca6d48da9fb5be70a34224640926a35349e53290992b0de8b2",
    ("full", 30): "ae4faa31381248fcf75d1b6d7447bfb818eba9b6ff0b45f4704de41cee728a5f",
    ("rows", 3): "e2d7f9c280182f5ed2e4f2976e43022d001e161592d0829600d2647d10fdbf21",
    ("rows", 8): "8f00e6653c654b5cc97e6c3df66cdea3eb3322c9450980824ae1bebe39d093bc",
    ("rows", 10): "a8835c4b43afd9584e47d41eef11071b0e09e1d2b9b6b9c10b41309dbee437d8",
    ("rows", 17): "59b0086fe8aa23186b0d21bc131478a3e1d4d60dd2f310787d2c53f04aa0b130",
    ("rows", 30): "76ee063c2cfbdd39f03eb3974cd5a24b104d130a47b60570f0b966a9e6ac15f8",
}


@pytest.mark.parametrize("part, dim", sorted(LARGE_DISTANCE_DIGESTS))
def test_large_distance_matrix_digest(part, dim):
    rows = None if part == "full" else LARGE_BLOCK_ROWS
    matrix = build_distance_matrix(_large_distance_swarm(dim), rows)
    assert np.count_nonzero(matrix == COINCIDENT_DISTANCE) == 2
    assert _digest(matrix) == LARGE_DISTANCE_DIGESTS[(part, dim)], _recorded_with()


# Rerun in the child: one digest that every function and both algorithms
# reach, the two scalarized functions' evaluate digests, a full N=160 D=30
# distance build, which adds thirty coordinate planes onto 160 rows, and
# the 126-row block, whose gap products take a strided view of the rows.
CHILD_TESTS = [
    "test_run_output_digest[base-csv]",
    "test_objective_evaluate_digest[binh4-2]",
    "test_objective_evaluate_digest[schaffer_n1-1]",
    "test_large_distance_matrix_digest[full-30]",
    "test_large_distance_matrix_digest[rows-30]",
]

# The child first checks that numpy did switch the features off.
CHILD = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
on = [f for f in sys.argv[1].split() if __cpu_features__[f]]
sys.exit(f"numpy kept {on} on" if on else pytest.main(sys.argv[2:]))
"""


def test_digests_hold_without_simd_and_fma(tmp_path):
    """The digests pass with numpy's SIMD loops and OpenBLAS's FMA kernels off.

    numpy's dispatched features are those it picks at run time; this
    disables every one the CPU has.  Nehalem is an OpenBLAS x86 kernel
    without FMA.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    features = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    if not features:
        pytest.skip("this CPU has none of numpy's dispatched SIMD features to switch off")
    source = str(Path(swarmwalk.__file__).parents[1])
    env = os.environ | {
        "OPENBLAS_CORETYPE": "Nehalem",
        "NPY_DISABLE_CPU_FEATURES": features,
        "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run(
        [sys.executable, "-c", CHILD, features, "-q", "-p", "no:cacheprovider",
         *(f"{__file__}::{test}" for test in CHILD_TESTS)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(CHILD_TESTS)} passed" in child.stdout
