import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk import harness
from swarmwalk.cli import cli_main
from swarmwalk.harness import (
    CSV_COLUMNS,
    RWPSO_TUNING,
    ExperimentSpec,
    derive_seed,
    load_spec,
    read_results,
    run_cell,
    run_experiment,
    run_single,
    write_results,
)
from swarmwalk.objectives import FUNCTION_NAMES, ObjectiveSpec, make_objective
from swarmwalk.pso import pso_run
from swarmwalk.results import AggregateStats, RunConfig, mean_best_fitness, run_loop
from swarmwalk.rwpso import RwpsoConfig, rwpso_run

TINY = dict(
    functions=("sphere",),
    algorithms=("rwpso",),
    population_sizes=(6,),
    dimensions=(2,),
    runs_per_cell=2,
    max_iterations=15,
    base_seed=123,
)

CRASH_SPEC = dict(
    functions=("rastrigin", "rosenbrock", "sphere"),
    algorithms=("rwpso",),
    population_sizes=(4,),
    dimensions=(2,),
    runs_per_cell=1,
    max_iterations=5,
    workers=2,
)

# Six cells: (pso, rwpso) x (rastrigin, rosenbrock, sphere).
SIX_CELL_SPEC = dict(CRASH_SPEC, algorithms=("rwpso", "pso"))


@pytest.fixture
def crashing_last_cell(monkeypatch, tmp_path):
    """Make the worker that runs the last cell die once the other cells returned.

    The patched `run_cell` reaches the workers only when they are forked.
    """
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs the fork start method")
    cells = ExperimentSpec(**CRASH_SPEC).cells()
    real_run_cell = harness.run_cell

    def run_cell_or_die(spec, cell):
        if cell == cells[-1]:
            deadline = time.monotonic() + 30.0
            while (len(list(tmp_path.glob("done-*"))) < len(cells) - 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.5)  # let the last finished worker hand back its result
            os._exit(1)
        result = real_run_cell(spec, cell)
        (tmp_path / f"done-{cells.index(cell)}").touch()
        return result

    monkeypatch.setattr(harness, "run_cell", run_cell_or_die)
    return cells[-1]


# Run by a fresh interpreter: a serial sweep, a check that it loaded no
# process pool, then the same sweep on two workers.
SERIAL_THEN_PARALLEL = """
import sys
from swarmwalk.cli import cli_main
config = sys.argv[1]
if cli_main(["run", "--config", config, "--workers", "1", "--out", "serial.csv"]):
    sys.exit("the serial sweep failed")
loaded = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
if loaded:
    sys.exit(f"a serial sweep loaded {loaded}")
sys.exit(cli_main(["run", "--config", config, "--workers", "2", "--out", "parallel.csv"]))
"""


BASELINE_ROW = dict(algorithm="qpso", function="sphere", population=6, dimension=2,
                    runs=50, mean_iterations=5.0, mean_best_fitness=0.0,
                    std_best_fitness=0.0, success_rate=1.0)


def _json_rows(*rows):
    return json.dumps({"aggregates": list(rows)})


# (file name, contents, what the error names) of results files that
# `read_results` must reject with a ValueError.
MALFORMED_RESULTS = [
    pytest.param("r.json", _json_rows({k: v for k, v in BASELINE_ROW.items()
                                       if k != "population"}),
                 "row 1: missing field 'population'", id="json-missing-key"),
    pytest.param("r.json", json.dumps({"rows": [BASELINE_ROW]}), "aggregates",
                 id="json-without-aggregates"),
    pytest.param("r.json", json.dumps([BASELINE_ROW]), "aggregates", id="json-list"),
    pytest.param("r.json", _json_rows({**BASELINE_ROW, "population": 6.5}),
                 "population must be an integer, got 6.5", id="json-fractional-population"),
    pytest.param("r.json", _json_rows(BASELINE_ROW, 5), "row 2: a row must be an object",
                 id="json-row-not-object"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,5.0,0.0,0.0\n",
                 "row 1: missing field 'success_rate'", id="csv-missing-value"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,5.0,0.0,0.0,high\n",
                 "success_rate must be a number, got 'high'", id="csv-unparsable-value"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,20,10,-3,nan,nan,inf,7\n",
                 r"row 1: runs must lie in \[1, inf\], got '-3'", id="csv-impossible-row"),
    pytest.param("r.json", _json_rows(BASELINE_ROW, {**BASELINE_ROW, "population": 0}),
                 r"row 2: population must lie in \[1, inf\], got 0", id="json-zero-population"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,0,50,5.0,0.0,0.0,1.0\n",
                 r"dimension must lie in \[1, inf\], got '0'", id="csv-zero-dimension"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,5.0,nan,0.0,1.0\n",
                 "mean_best_fitness must be finite, got 'nan'", id="csv-nan-fitness"),
    pytest.param("r.json", _json_rows({**BASELINE_ROW, "mean_best_fitness": -float("inf")}),
                 "mean_best_fitness must be finite, got -inf", id="json-infinite-fitness"),
    pytest.param("r.json", _json_rows({**BASELINE_ROW, "mean_iterations": 10**400}),
                 "mean_iterations must be a number", id="json-huge-integer"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,-1.0,0.0,0.0,1.0\n",
                 r"mean_iterations must lie in \[0.0, inf\], got '-1.0'",
                 id="csv-negative-iterations"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,5.0,0.0,-0.5,1.0\n",
                 r"std_best_fitness must lie in \[0.0, inf\], got '-0.5'", id="csv-negative-std"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,5.0,0.0,0.0,1.5\n",
                 r"success_rate must lie in \[0.0, 1.0\], got '1.5'", id="csv-rate-above-one"),
    pytest.param("r.json", _json_rows({**BASELINE_ROW, "success_rate": -0.1}),
                 r"success_rate must lie in \[0.0, 1.0\], got -0.1", id="json-negative-rate"),
]


class TestMeanBestFitness:
    def test_hand_value(self):
        assert mean_best_fitness([1.0, 2.0, 3.0, 4.0, 5.0], 0.8) == 2.5

    def test_fraction_one_is_plain_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=37)
        assert mean_best_fitness(values, 1.0) == pytest.approx(values.mean(), abs=1e-12)

    def test_singleton(self):
        assert mean_best_fitness([7.5], 0.8) == 7.5

    def test_unsorted_input(self):
        assert mean_best_fitness([5.0, 1.0, 4.0, 2.0, 3.0], 0.8) == 2.5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mean_best_fitness([], 0.8)
        with pytest.raises(ValueError):
            mean_best_fitness([1.0], 0.0)
        with pytest.raises(ValueError):
            mean_best_fitness([1.0], 1.2)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_plain_mean(self, values, fraction):
        assert (mean_best_fitness(values, fraction)
                <= np.mean(values) + 1e-6)


class TestSeedDerivation:
    def test_deterministic(self):
        a = derive_seed(0, "rwpso", "sphere", 20, 10, 0)
        b = derive_seed(0, "rwpso", "sphere", 20, 10, 0)
        assert a == b

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_seed(0, "rwpso", "sphere", 20, 10, 0),
            derive_seed(0, "rwpso", "sphere", 20, 10, 1),
            derive_seed(0, "pso", "sphere", 20, 10, 0),
            derive_seed(0, "rwpso", "rastrigin", 20, 10, 0),
            derive_seed(1, "rwpso", "sphere", 20, 10, 0),
            derive_seed(0, "rwpso", "sphere", 40, 10, 0),
            derive_seed(0, "rwpso", "sphere", 20, 20, 0),
        }
        assert len(seeds) == 7


# A config that still sets a former PSO option fails on its removed block.
PSO_OPTIONS_REMOVED = "unknown experiment config keys: \\['pso_options'\\]"
# The objectives are fixed problems: a config that still names
# objective_options fails on the removed field whatever it holds.
OBJECTIVE_OPTIONS_REMOVED = "unknown experiment config keys: \\['objective_options'\\]"
# A config that still sets the walk horizon, now a constant, fails on the
# removed field whatever its value.
WALK_HORIZON_REMOVED = ("bad rwpso options for sphere: .*"
                        "unexpected keyword argument 'walk_horizon'")


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ExperimentSpec()
        assert spec.threshold_for("sphere") == 1e-2
        assert spec.threshold_for("binh4") is None

    def test_empty_algorithms_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(algorithms=())

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(algorithms=("annealing",))
        with pytest.raises(ValueError):
            ExperimentSpec(functions=("ackley",))
        with pytest.raises(ValueError):
            ExperimentSpec(fitness_thresholds={"ackley": 1.0})

    def test_round_trip_through_dict(self):
        spec = ExperimentSpec(**TINY)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"swarmsize": 3})

    def test_cell_count(self):
        spec = ExperimentSpec(functions=("sphere", "rastrigin"),
                              algorithms=("rwpso",),
                              population_sizes=(4, 8), dimensions=(2,),
                              runs_per_cell=1, max_iterations=5)
        assert len(spec.cells()) == 4

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"rwpso_options": {"walk_horizn": 3}},
                     "rwpso.*sphere.*walk_horizn", id="misspelled-key"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"vmax": 0.1}},
                     PSO_OPTIONS_REMOVED, id="misspelled-pso-key"),
        pytest.param({"rwpso_options": {"displacement_mode": "toward_target"}},
                     "rwpso.*displacement_mode", id="removed-key"),
        pytest.param({"rwpso_options": {"gaussian_sigma_mode": "fixed"}},
                     "rwpso.*sphere.*gaussian_sigma_mode", id="removed-sigma-mode"),
        pytest.param({"rwpso_options": {"gaussian_mu": 0.5}},
                     "rwpso.*sphere.*gaussian_mu", id="removed-mu"),
        pytest.param({"pso_options": {"r_per_dimension": False}},
                     PSO_OPTIONS_REMOVED, id="removed-r-per-dimension"),
        pytest.param({"rwpso_options": {"walk_horizon": 0}},
                     WALK_HORIZON_REMOVED, id="bad-value"),
        pytest.param({"rwpso_options": {"gaussian_sigma": float("nan")}},
                     "rwpso.*sphere.*gaussian_sigma must be finite", id="nan-sigma"),
        pytest.param({"algorithms": ("pso",), "rwpso_options": {"gaussian_sigma": float("inf")}},
                     "rwpso.*sphere.*gaussian_sigma must be finite", id="inf-sigma"),
        pytest.param({"rwpso_options": {"gaussian_sigma": 10**400}},
                     "rwpso.*sphere.*gaussian_sigma must be finite", id="huge-sigma"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"c1": float("inf")}},
                     PSO_OPTIONS_REMOVED, id="inf-c1"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"c2": float("inf")}},
                     PSO_OPTIONS_REMOVED, id="inf-c2"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"w_start": float("inf")}},
                     PSO_OPTIONS_REMOVED, id="inf-w-start"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"v_max": float("inf")}},
                     PSO_OPTIONS_REMOVED, id="inf-v-max"),
        pytest.param({"functions": ("rastrigin",), "rwpso_options": {"gaussian_sigma": -1.0}},
                     "rwpso.*rastrigin.*gaussian_sigma", id="bad-preset-value"),
        pytest.param({"functions": ("rosenbrock",), "dimensions": (1,)},
                     "rosenbrock", id="bad-dimension"),
        pytest.param({"objective_options": {"sphere": {"lower": -1}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="removed-lower"),
        pytest.param({"fitness_thresholds": {"sphere": float("nan")}},
                     "threshold for sphere", id="nan-threshold"),
        pytest.param({"fitness_thresholds": {"sphere": float("inf")}},
                     "threshold for sphere", id="inf-threshold"),
        pytest.param({"fitness_thresholds": {"sphere": "0.1"}},
                     "threshold for sphere", id="string-threshold"),
        pytest.param({"fitness_thresholds": {"sphere": True}},
                     "threshold for sphere", id="bool-threshold"),
        pytest.param({"runs_per_cell": 2.5}, "runs_per_cell", id="fractional-runs"),
        pytest.param({"runs_per_cell": "3"}, "runs_per_cell", id="string-runs"),
        pytest.param({"max_iterations": 2.5}, "max_iterations", id="fractional-max-iterations"),
        pytest.param({"workers": True}, "workers", id="bool-workers"),
        pytest.param({"population_sizes": (5.7,)}, "population_sizes",
                     id="fractional-population"),
        pytest.param({"dimensions": ("2",)}, "dimensions", id="string-dimension"),
        pytest.param({"population_sizes": 5}, "population_sizes", id="scalar-population"),
        pytest.param({"fitness_thresholds": [1]}, "fitness_thresholds", id="list-thresholds"),
        pytest.param({"base_seed": 7.0}, "base_seed", id="float-seed"),
        pytest.param({"base_seed": "7"}, "base_seed", id="string-seed"),
        pytest.param({"base_seed": True}, "base_seed", id="bool-seed"),
        pytest.param({"functions": "sphere"}, "functions", id="string-functions"),
        pytest.param({"rwpso_options": {"walk_horizon": 2.5}},
                     WALK_HORIZON_REMOVED, id="fractional-walk-horizon"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"v_max": "0.1"}},
                     PSO_OPTIONS_REMOVED, id="string-v-max"),
        pytest.param({"rwpso_options": {"gaussian_sigma": "0.5"}},
                     "rwpso.*sphere.*gaussian_sigma must be a number", id="string-sigma"),
        pytest.param({"objective_options": {"binh4": 5}},
                     OBJECTIVE_OPTIONS_REMOVED, id="scalar-objective-options"),
        pytest.param({"algorithms": ("pso",), "rwpso_options": {"walk_horizn": 3}},
                     "rwpso.*sphere.*walk_horizn", id="misspelled-unused-option"),
        pytest.param({"algorithms": ("pso",), "rwpso_options": {"gaussian_sigma": -1.0}},
                     "rwpso.*sphere.*gaussian_sigma", id="bad-unused-algorithm-option"),
        pytest.param({"objective_options": {"rastrigin": {"amplitdue": 3}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="misspelled-unlisted-objective-key"),
        pytest.param({"objective_options": {"rastrigin": {"amplitude": 3}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="removed-amplitude"),
        pytest.param({"objective_options": {"sphere": {"amplitude": 3}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="parameter-not-taken"),
        pytest.param({"objective_options": {"rastrigin": {"weights": [1.0]}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="single-objective-weight"),
        pytest.param({"objective_options": {"binh4": {"weights": [float("nan"), 0.5]}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="nan-weight"),
        pytest.param({"objective_options": {"binh4": {"weights": [True, False]}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="bool-weights"),
        pytest.param({"objective_options": {"binh4": {"weights": [10**400, 0.5]}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="huge-weight"),
        pytest.param({"objective_options": {"schaffer_n1": {"bound": 50}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="removed-bound"),
        pytest.param({"fitness_thresholds": {"sphere": 10**400}},
                     "threshold for sphere", id="huge-threshold"),
        pytest.param({"population_sizes": (10**400,)}, "population_sizes",
                     id="huge-population"),
        pytest.param({"dimensions": (10**400,)}, "dimensions", id="huge-dimension"),
        pytest.param({"population_sizes": (10**18,)},
                     f"a swarm of {10**18} particles in 2 dimensions is too large",
                     id="unallocatable-population"),
        pytest.param({"dimensions": (10**18,)},
                     f"a swarm of 6 particles in {10**18} dimensions is too large",
                     id="unallocatable-dimension"),
        pytest.param({"dimensions": (10**17,)}, "bad objective for sphere: Unable to allocate",
                     id="unmappable-dimension"),
        pytest.param({"objective_options": {"sphere": {"amplitude": None}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="null-parameter"),
        pytest.param({"objective_options": {"sphere": {"lower": None}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="null-bound"),
        pytest.param({"objective_options": {"binh4": {"weights": None}}},
                     OBJECTIVE_OPTIONS_REMOVED, id="null-weights"),
        pytest.param({"population_sizes": (40, 40)}, "population_sizes lists 40 twice",
                     id="repeated-population"),
        pytest.param({"population_sizes": (6, 6.0)}, "population_sizes lists 6 twice",
                     id="repeated-integral-population"),
        pytest.param({"dimensions": (2, 3, 2)}, "dimensions lists 2 twice",
                     id="repeated-dimension"),
        pytest.param({"functions": ("sphere", "sphere")}, "functions lists 'sphere' twice",
                     id="repeated-function"),
        pytest.param({"algorithms": ("rwpso", "pso", "rwpso")},
                     "algorithms lists 'rwpso' twice", id="repeated-algorithm"),
        pytest.param({"rwpso_options": {"seed": 3}},
                     "bad rwpso options for sphere: seed is set by the sweep",
                     id="seed-in-options"),
        pytest.param({"algorithms": ("pso",), "rwpso_options": {"swarm_size": 3}},
                     "bad rwpso options for sphere: swarm_size is set by the sweep",
                     id="swarm-size-in-options"),
        pytest.param({"functions": ("rastrigin",), "rwpso_options": {"fitness_threshold": 1.0}},
                     "bad rwpso options for rastrigin: fitness_threshold is set by the sweep",
                     id="threshold-in-options"),
    ])
    def test_bad_config_fails_at_load(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict({**TINY, **overrides})

    def test_objective_options_is_an_empty_read_only_attribute(self):
        # perfbench/run.py reads it until the benchmark changes; it is no field
        spec = ExperimentSpec(**TINY)
        assert spec.objective_options == {}
        assert "objective_options" not in spec.to_dict()
        with pytest.raises(AttributeError):
            spec.objective_options = {"binh4": {}}
        with pytest.raises(TypeError, match="unexpected keyword argument 'objective_options'"):
            ExperimentSpec(**TINY, objective_options={})

    def test_integral_counts_still_load(self):
        spec = ExperimentSpec(**{**TINY, "population_sizes": [6.0], "dimensions": (2.0,),
                                 "fitness_thresholds": {"sphere": 1}})
        assert spec.population_sizes == (6,) and spec.dimensions == (2,)
        assert spec.threshold_for("sphere") == 1

    def test_cells_are_canonically_sorted(self):
        spec = ExperimentSpec(functions=("sphere", "rastrigin"),
                              algorithms=("rwpso", "pso"),
                              population_sizes=(40, 8), dimensions=(2,),
                              runs_per_cell=1, max_iterations=5)
        assert spec.cells() == sorted(spec.cells())


class TestRunSingle:
    def test_seed_recorded_matches_derivation(self):
        spec = ExperimentSpec(**TINY)
        result = run_single(spec, "rwpso", "sphere", 6, 2, run_index=1)
        assert result.seed == derive_seed(123, "rwpso", "sphere", 6, 2, 1)

    def test_fixed_dim_function_keeps_nominal_dimension(self):
        spec = ExperimentSpec(**{**TINY, "functions": ("binh4",)})
        result = run_single(spec, "rwpso", "binh4", 6, 2, run_index=0)
        assert result.dimension == 2
        assert len(result.best_position) == 2
        spec30 = ExperimentSpec(**{**TINY, "functions": ("schaffer_n1",), "dimensions": (30,)})
        result30 = run_single(spec30, "rwpso", "schaffer_n1", 6, 30, run_index=0)
        assert result30.dimension == 30
        assert len(result30.best_position) == 1


class TestOptimizerConfig:
    @pytest.mark.parametrize("options, sigmas", [
        pytest.param({}, {"rastrigin": 0.52, "sphere": 0.7}, id="tuning"),
        pytest.param({"gaussian_sigma": 0.6}, {"rastrigin": 0.6, "sphere": 0.6}, id="options"),
    ])
    def test_options_win_over_the_rastrigin_tuning(self, options, sigmas):
        spec = ExperimentSpec(**{**TINY, "rwpso_options": options})
        assert {function: harness._optimizer_config(spec, "rwpso", function, 6, 2, 0)
                .gaussian_sigma for function in sigmas} == sigmas

    def test_pso_runs_one_config_on_every_function(self):
        spec = ExperimentSpec(**{**TINY, "fitness_thresholds": dict.fromkeys(FUNCTION_NAMES)})
        configs = {harness._optimizer_config(spec, "pso", function, 6, 2, 0)
                   for function in FUNCTION_NAMES}
        assert configs == {RunConfig(swarm_size=6, dim=2, max_iterations=15)}

    @pytest.mark.parametrize("function", sorted(RWPSO_TUNING))
    def test_each_tuning_entry_builds_a_config(self, function):
        assert function in FUNCTION_NAMES
        RwpsoConfig(swarm_size=2, dim=1, max_iterations=1, **RWPSO_TUNING[function])


class TestRunConfig:
    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"fitness_threshold": float("nan")}, "fitness_threshold must be finite",
                     id="nan-threshold"),
        pytest.param({"fitness_threshold": float("inf")}, "fitness_threshold must be finite",
                     id="inf-threshold"),
        pytest.param({"fitness_threshold": 10**400}, "fitness_threshold must be finite",
                     id="huge-integer-threshold"),
        pytest.param({"seed": -1}, "seed must be >= 0", id="negative-seed"),
    ])
    @pytest.mark.parametrize("config_class", [RunConfig, RwpsoConfig])
    def test_bad_run_setting_fails_when_built(self, config_class, overrides, message):
        with pytest.raises(ValueError, match=message):
            config_class(swarm_size=5, dim=2, max_iterations=50, **overrides)

    def test_subclass_declared_with_type_objects(self):
        extended = dataclasses.make_dataclass("Q", [("beta", float, 1.0)], bases=(RunConfig,),
                                              frozen=True)
        assert extended(swarm_size=5, dim=2, max_iterations=50).beta == 1.0
        with pytest.raises(ValueError, match="beta must be a number, got 'x'"):
            extended(swarm_size=5, dim=2, max_iterations=50, beta="x")
        with pytest.raises(ValueError, match="beta must be finite, got nan"):
            extended(swarm_size=5, dim=2, max_iterations=50, beta=float("nan"))


class TestRunLoop:
    @pytest.mark.parametrize("config_class, run", [(RwpsoConfig, rwpso_run),
                                                   (RunConfig, pso_run)])
    def test_best_is_the_least_fitness_evaluated(self, monkeypatch, config_class, run):
        evaluated = []
        real_evaluate_batch = ObjectiveSpec.evaluate_batch

        def recording(objective, positions):
            fitnesses = real_evaluate_batch(objective, positions)
            evaluated.append(fitnesses.copy())
            return fitnesses

        monkeypatch.setattr(ObjectiveSpec, "evaluate_batch", recording)
        objective = make_objective("rastrigin", 3)
        result = run(objective, config_class(swarm_size=8, dim=3, max_iterations=40, seed=5))
        assert len(evaluated) == result.iterations_used + 1
        assert result.best_fitness == min(f.min() for f in evaluated)
        assert objective.evaluate(result.best_position) == result.best_fitness

    def test_keeps_the_first_of_tied_bests(self):
        # Particles 1 and 2 share the best at the start, and step 1 only ties
        # it.  Step 2 improves on it at particles 0 and 2, and step 3 ties it.
        swarms = iter([
            ([[2.0], [-1.0], [1.0]], [4.0, 1.0, 1.0]),
            ([[1.0], [3.0], [3.0]], [1.0, 9.0, 9.0]),
            ([[0.5], [3.0], [-0.5]], [0.25, 9.0, 0.25]),
            ([[3.0], [-0.5], [3.0]], [9.0, 0.25, 9.0]),
        ])

        def next_state(*args):
            positions, fitnesses = next(swarms)
            return SimpleNamespace(positions=np.array(positions), fitnesses=np.array(fitnesses))

        result = run_loop("fake", make_objective("sphere", 1),
                          RunConfig(swarm_size=3, dim=1, max_iterations=3),
                          next_state, next_state)
        assert result.trace.tolist() == [1.0, 0.25, 0.25]
        assert result.iterations_used == 3
        assert result.best_fitness == 0.25 and result.best_position.tolist() == [0.5]


class TestRunCell:
    def test_singleton_aggregates_equal_run_values(self):
        spec = ExperimentSpec(**{**TINY, "runs_per_cell": 1})
        stats, results = run_cell(spec, ("rwpso", "sphere", 6, 2))
        assert stats.runs == 1
        assert stats.mean_iterations == results[0].iterations_used
        assert stats.mean_best_fitness == results[0].mean_best_80
        assert stats.std_best_fitness == 0.0

    def test_deterministic(self):
        spec = ExperimentSpec(**TINY)
        a, _ = run_cell(spec, ("rwpso", "sphere", 6, 2))
        b, _ = run_cell(spec, ("rwpso", "sphere", 6, 2))
        assert a == b

    def test_success_rate_zero_without_threshold(self):
        spec = ExperimentSpec(**{**TINY, "functions": ("binh4",)})
        stats, _ = run_cell(spec, ("rwpso", "binh4", 6, 2))
        assert stats.success_rate == 0.0

    def test_run_error_names_the_seed(self, monkeypatch):
        def broken_run(objective, config):
            raise ValueError("objective input must be finite")

        monkeypatch.setattr(harness, "rwpso_run", broken_run)
        spec = ExperimentSpec(**TINY)
        with pytest.raises(RuntimeError, match="seed"):
            run_cell(spec, ("rwpso", "sphere", 6, 2))

    def test_run_error_names_cell_run_and_seed(self, monkeypatch):
        real_run = harness.rwpso_run
        calls = []

        def run_failing_second(objective, config):
            calls.append(config.seed)
            if len(calls) == 2:
                raise ValueError("objective input must be finite")
            return real_run(objective, config)

        monkeypatch.setattr(harness, "rwpso_run", run_failing_second)
        spec = ExperimentSpec(**TINY)
        seed = derive_seed(123, "rwpso", "sphere", 6, 2, 1)
        with pytest.raises(RuntimeError) as raised:
            run_cell(spec, ("rwpso", "sphere", 6, 2))
        assert str(raised.value) == (f"cell ('rwpso', 'sphere', 6, 2) run 1 (seed {seed}) "
                                     f"failed: objective input must be finite")
        assert calls[1] == seed


class TestRunExperiment:
    def test_serial_sweep_loads_no_process_pool(self, tmp_path):
        # A fresh interpreter, since this one has loaded the pool already.
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(ExperimentSpec(**SIX_CELL_SPEC).to_dict()),
                          encoding="utf-8")
        source = str(Path(harness.__file__).parents[1])
        env = os.environ | {
            "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
        }
        child = subprocess.run([sys.executable, "-c", SERIAL_THEN_PARALLEL, str(config)],
                               env=env, cwd=tmp_path, capture_output=True, text=True,
                               timeout=300)
        assert child.returncode == 0, child.stdout + child.stderr
        serial = (tmp_path / "serial.csv").read_bytes()
        assert serial.count(b"\n") == 1 + 6
        assert (tmp_path / "parallel.csv").read_bytes() == serial

    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        import concurrent.futures

        opened = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = ExperimentSpec(**{**TINY, "runs_per_cell": 1, "workers": 3})
        outcome = run_experiment(spec)
        assert opened == [1]
        assert len(outcome.aggregates) == 1 and not outcome.failures

    def test_cardinality(self):
        spec = ExperimentSpec(functions=("sphere", "rastrigin"),
                              algorithms=("rwpso",),
                              population_sizes=(4, 8), dimensions=(2,),
                              runs_per_cell=1, max_iterations=5)
        outcome = run_experiment(spec)
        assert len(outcome.aggregates) == 4
        assert len(outcome.runs) == 4
        assert not outcome.failures

    def test_output_order_is_canonical(self):
        spec = ExperimentSpec(functions=("rastrigin", "sphere"),
                              algorithms=("rwpso", "pso"),
                              population_sizes=(8, 4), dimensions=(2,),
                              runs_per_cell=1, max_iterations=5)
        outcome = run_experiment(spec)
        keys = [s.cell_key for s in outcome.aggregates]
        assert keys == sorted(keys)

    def test_parallel_workers_match_serial(self):
        spec = ExperimentSpec(functions=("sphere",), algorithms=("rwpso", "pso"),
                              population_sizes=(4, 6), dimensions=(2,),
                              runs_per_cell=2, max_iterations=10)
        serial = run_experiment(spec)
        parallel = run_experiment(ExperimentSpec.from_dict(
            {**spec.to_dict(), "workers": 2}))
        assert write_results(serial.aggregates) == write_results(parallel.aggregates)

    def test_failed_cells_are_reported_and_others_still_run(self, monkeypatch):
        real_run = harness.rwpso_run

        def run_failing_on_rosenbrock(objective, config):
            if objective.name == "rosenbrock":
                raise ValueError("objective input must be finite")
            return real_run(objective, config)

        monkeypatch.setattr(harness, "rwpso_run", run_failing_on_rosenbrock)
        spec = ExperimentSpec(functions=("sphere", "rosenbrock"),
                              algorithms=("rwpso",),
                              population_sizes=(4,), dimensions=(2,),
                              runs_per_cell=1, max_iterations=5)
        outcome = run_experiment(spec)
        assert len(outcome.failures) == 1
        assert "rosenbrock" in outcome.failures[0]
        assert [s.function for s in outcome.aggregates] == ["sphere"]

    def test_crashed_worker_fails_its_cell_and_keeps_the_rest(self, crashing_last_cell):
        spec = ExperimentSpec(**CRASH_SPEC)
        outcome = run_experiment(spec)
        assert len(outcome.failures) == 1
        assert str(crashing_last_cell) in outcome.failures[0]
        assert "worker process crashed (BrokenProcessPool" in outcome.failures[0]
        # run_cell is the module's unpatched original
        completed = [run_cell(spec, cell) for cell in spec.cells()[:-1]]
        assert outcome.aggregates == [stats for stats, _ in completed]
        assert [run.to_dict() for run in outcome.runs] == [
            run.to_dict() for _, runs in completed for run in runs]

    def test_crash_of_the_first_cell_loses_no_other_cell(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs the fork start method")
        spec = ExperimentSpec(**SIX_CELL_SPEC)
        cells = spec.cells()
        assert len(cells) == 6
        real_run_cell = harness.run_cell

        def run_cell_or_die(spec, cell):
            if cell == cells[0]:
                os._exit(1)
            return real_run_cell(spec, cell)

        monkeypatch.setattr(harness, "run_cell", run_cell_or_die)
        outcome = run_experiment(spec)
        assert len(outcome.failures) == 1
        assert str(cells[0]) in outcome.failures[0]
        assert "lost: worker process crashed (BrokenProcessPool" in outcome.failures[0]
        completed = [real_run_cell(spec, cell) for cell in cells[1:]]
        assert outcome.aggregates == [stats for stats, _ in completed]
        assert [run.to_dict() for run in outcome.runs] == [
            run.to_dict() for _, runs in completed for run in runs]

    def test_cli_writes_completed_cells_after_a_crash(self, crashing_last_cell,
                                                      tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(ExperimentSpec(**CRASH_SPEC).to_dict()),
                          encoding="utf-8")
        out = tmp_path / "r.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        functions = [row.function for row in read_results(out)]
        assert functions == ["rastrigin", "rosenbrock"]
        assert "worker process crashed" in capsys.readouterr().err


class TestWriteAndRead:
    def test_csv_header_and_row_count(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        outcome = run_experiment(spec)
        out = tmp_path / "r.csv"
        text = write_results(outcome.aggregates, outcome.runs, out)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(outcome.aggregates)
        assert out.read_text(encoding="utf-8") == text

    def test_csv_round_trip_full_precision(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        outcome = run_experiment(spec)
        out = tmp_path / "r.csv"
        write_results(outcome.aggregates, None, out)
        assert read_results(out) == outcome.aggregates

    def test_json_round_trip(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        outcome = run_experiment(spec)
        out = tmp_path / "r.json"
        write_results(outcome.aggregates, outcome.runs, out, fmt="json")
        assert read_results(out) == outcome.aggregates
        document = json.loads(out.read_text(encoding="utf-8"))
        assert set(document) == {"aggregates", "runs"}
        assert document["runs"][0]["seed"] == outcome.runs[0].seed

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_results([], fmt="xml")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_results([], None, tmp_path / "missing" / "r.csv")


class TestSideload:
    """`read_results` on files from outside the program, e.g. another optimizer's rows."""

    def test_duplicate_cell_refused(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        outcome = run_experiment(spec)
        for name, fmt in (("r.csv", "csv"), ("r.json", "json")):
            out = tmp_path / name
            write_results(outcome.aggregates * 2, None, out, fmt)
            with pytest.raises(ValueError) as info:
                read_results(out)
            assert str(info.value) == (f"results file {out}: row 2: "
                                       f"cell ('rwpso', 'sphere', 6, 2) appears twice")

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("algorithm,function\nqpso,sphere\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_results(bad)

    @pytest.mark.parametrize("name, text, named", MALFORMED_RESULTS)
    def test_malformed_file_names_the_fault(self, tmp_path, name, text, named):
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=named) as info:
            read_results(bad)
        assert str(bad) in str(info.value)


def test_readme_config_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    spec = ExperimentSpec.from_dict(json.loads(example))
    assert spec.rwpso_options


def test_format_table_matches_readme_sample():
    # README's sample table is what its sample config and command print
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Sample output", 1)[1]
    blocks = re.findall(r"```(\w*)\n(.*?)```", section, flags=re.S)[:3]
    assert [language for language, _ in blocks] == ["json", "bash", ""]
    (_, config), (_, command), (_, sample) = blocks
    assert command.split() == ["swarmwalk", "run", "--config", "sample.json", "--out",
                               "sample.csv", "&&", "swarmwalk", "table", "sample.csv"]
    outcome = run_experiment(ExperimentSpec.from_dict(json.loads(config)))
    assert not outcome.failures
    assert harness.format_table(outcome.aggregates) == sample


def test_readme_library_use_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    source = str(Path(__file__).parents[1] / "src")
    env = os.environ | {
        "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    first, graph = child.stdout.split("\n", 1)
    best_fitness, iterations = first.split()
    assert float(best_fitness) >= 0.0 and 1 <= int(iterations) <= 300
    assert set(json.loads(graph)) == {"positions", "A", "alpha", "prob_rows"}


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY | {"functions": ["sphere"]}), encoding="utf-8")
    spec = load_spec(path)
    assert spec.functions == ("sphere",)
    assert spec.base_seed == 123
