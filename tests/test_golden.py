"""Golden digests of seeded `run` output.

The CSV and JSON that `swarmwalk run` writes are a pure function of the
experiment config.  These digests pin them across versions: a change that
moves any seeded number, or the draw order behind it, fails here.  A change
that means to move them must say so and update the digests on purpose.
The digests were recorded with the numpy version in `RECORDED_WITH_NUMPY`.
"""

import hashlib
import json

import numpy as np
import pytest

from swarmwalk.cli import cli_main
from swarmwalk.objectives import FUNCTION_NAMES

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
