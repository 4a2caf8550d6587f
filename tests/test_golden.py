"""Golden digests of seeded `run` output and of the kernels under it.

The CSV and JSON that `swarmwalk run` writes are a pure function of the
experiment config.  These digests pin them across versions: a change that
moves any seeded number, or the draw order behind it, fails here.  The
objective values and distance matrices are pinned separately, bit for bit.  A change
that means to move them must say so and update the digests on purpose.
The digests were recorded with the numpy version in `RECORDED_WITH_NUMPY`.
"""

import hashlib
import json

import numpy as np
import pytest

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

VARIANTS = {
    "base": {},
    "fixed_sigma_vmax": {
        "rwpso_options": {"gaussian_sigma_mode": "fixed", "gaussian_sigma": 0.3},
        "pso_options": {"v_max": 0.15},
    },
    "range_sigma_scalar_r": {
        "rwpso_options": {"gaussian_sigma_mode": "range_scaled", "gaussian_sigma": 0.05},
        "pso_options": {"r_per_dimension": False},
    },
    # D >= 8 reaches numpy's 8-way pairwise summation over the distance axis,
    # and the rastrigin preset leaves over half the walker's particle-steps
    # unmoved, so this pins the distance matrix carried across iterations.
    "wide": {
        "functions": ["sphere", "rosenbrock", "rastrigin"],
        "population_sizes": [24],
        "dimensions": [10, 30],
        "max_iterations": 60,
    },
}

DIGESTS = {
    ("base", "csv"): "df6d1179200d6e41c76b3c7906ddba35be34f1c4c1122f1b3f12f61707076039",
    ("base", "json"): "59bddd753b7b67b441635d9d1ead7ca5e70cf2a96888003d4e927eb9b2c09111",
    ("fixed_sigma_vmax", "csv"): "cde839f06c32a40b2690e171d093a7a9b1923cbb8b477f9b95c7d19088b16b11",
    ("fixed_sigma_vmax", "json"): "4aff04de2ccfa28a3aabf505ab2582b06f9f59efb3f5603ab3d9b398ac65c955",
    ("range_sigma_scalar_r", "csv"): "3a1cbfe711c147a9d9c84ff9f9776723c517e178ab3597d2f89292571cb9ba74",
    ("range_sigma_scalar_r", "json"): "8dd6519f41adced7c5ab72653669ff7017ca163e81c9efbe45a9ab8f3c343d0f",
    ("wide", "csv"): "9117f0268841c47032299956b6c575112f5ee8723b6ff3bc2789c5645f4a4ac0",
    ("wide", "json"): "cd38db9ac985d73dfc9d42f7317fdfd79e67f43f0adef40ae405a27a7c0e42af",
}


@pytest.mark.parametrize("variant, fmt", sorted(DIGESTS))
def test_run_output_digest(tmp_path, variant, fmt):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(BASE | VARIANTS[variant]), encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    code = cli_main(["run", "--config", str(config), "--format", fmt, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(variant, fmt)], (
        f"digests recorded with numpy {RECORDED_WITH_NUMPY}, running numpy {np.__version__}"
    )


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
    lower, upper, width = domain.lower, domain.upper, domain.width
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
    10: "bd8c7fba3b7cdeb035e7d5bea3a4c163e07d6124b676cf958405cdaedf657e6d",
    30: "435888245a5b25e3525e68b32886c4063c913fdeed94a860d20a03238178ea10",
}


@pytest.mark.parametrize("name, dim", OBJECTIVE_CASES)
def test_objective_evaluate_digest(name, dim):
    objective = make_objective(name, dim)
    rng = np.random.default_rng(FUNCTION_NAMES.index(name) * 100 + dim)
    values = [objective.evaluate(p) for p in _objective_points(objective, rng)]
    assert _digest(values) == OBJECTIVE_DIGESTS[(name, dim)], (
        f"digests recorded with numpy {RECORDED_WITH_NUMPY}, running numpy {np.__version__}"
    )


@pytest.mark.parametrize("dim", sorted(DISTANCE_DIGESTS))
def test_distance_matrix_digest(dim):
    matrix = build_distance_matrix(_distance_swarm(dim))
    assert np.count_nonzero(matrix == COINCIDENT_DISTANCE) == 2
    assert _digest(matrix) == DISTANCE_DIGESTS[dim], (
        f"digests recorded with numpy {RECORDED_WITH_NUMPY}, running numpy {np.__version__}"
    )
