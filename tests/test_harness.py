import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwalk import harness
from swarmwalk.cli import cli_main
from swarmwalk.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    derive_seed,
    load_spec,
    merge_stats,
    read_results,
    run_cell,
    run_experiment,
    run_single,
    write_results,
)
from swarmwalk.results import AggregateStats, mean_best_fitness

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
                     "pso.*sphere.*vmax", id="misspelled-pso-key"),
        pytest.param({"rwpso_options": {"displacement_mode": "toward_target"}},
                     "rwpso.*displacement_mode", id="removed-key"),
        pytest.param({"rwpso_options": {"walk_horizon": 0}},
                     "rwpso.*sphere.*walk_horizon", id="bad-value"),
        pytest.param({"functions": ("rastrigin",), "algorithms": ("pso",),
                      "pso_presets": {"rastrigin": {"v_max": -1.0}}},
                     "pso.*rastrigin.*v_max", id="bad-preset-value"),
        pytest.param({"functions": ("rosenbrock",), "dimensions": (1,)},
                     "rosenbrock", id="bad-dimension"),
        pytest.param({"functions": ("binh4",), "objective_options": {"binh4": {"lower": -10.0}}},
                     "binh4", id="bad-domain"),
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
        pytest.param({"best_fraction": "0.5"}, "best_fraction", id="string-best-fraction"),
        pytest.param({"best_fraction": True}, "best_fraction", id="bool-best-fraction"),
        pytest.param({"base_seed": 7.0}, "base_seed", id="float-seed"),
        pytest.param({"base_seed": "7"}, "base_seed", id="string-seed"),
        pytest.param({"base_seed": True}, "base_seed", id="bool-seed"),
        pytest.param({"functions": "sphere"}, "functions", id="string-functions"),
        pytest.param({"rwpso_options": {"walk_horizon": 2.5}},
                     "rwpso.*sphere.*walk_horizon", id="fractional-walk-horizon"),
        pytest.param({"algorithms": ("pso",), "pso_options": {"r_per_dimension": "no"}},
                     "pso.*sphere.*r_per_dimension", id="string-r-per-dimension"),
        pytest.param({"objective_options": {"binh4": 5}}, "objective_options for binh4",
                     id="scalar-objective-options"),
        pytest.param({"rwpso_presets": {"binh4": {"walk_horizn": 3}}},
                     "rwpso.*binh4.*walk_horizn", id="misspelled-unlisted-preset"),
        pytest.param({"rwpso_presets": {"binh4": {"walk_horizon": 0}}},
                     "rwpso.*binh4.*walk_horizon", id="bad-unlisted-preset-value"),
        pytest.param({"pso_presets": {"sphere": {"vmax": 0.1}}},
                     "pso.*sphere.*vmax", id="misspelled-unused-algorithm-preset"),
        pytest.param({"pso_options": {"v_max": -1.0}}, "pso.*sphere.*v_max",
                     id="bad-unused-algorithm-option"),
        pytest.param({"objective_options": {"rastrigin": {"amplitdue": 3}}},
                     "rastrigin.*amplitdue", id="misspelled-unlisted-objective-key"),
        pytest.param({"objective_options": {"binh4": {"lower": -10.0}}},
                     "binh4.*lower", id="bad-unlisted-domain"),
        pytest.param({"objective_options": {"sphere": {"amplitude": 3}}},
                     "sphere takes no parameter 'amplitude'", id="parameter-not-taken"),
        pytest.param({"objective_options": {"rastrigin": {"weights": [1.0]}}},
                     "rastrigin takes no parameter 'weights'", id="single-objective-weight"),
        pytest.param({"objective_options": {"binh4": {"weights": [float("nan"), 0.5]}}},
                     "binh4.*weights must be finite", id="nan-weight"),
    ])
    def test_bad_config_fails_at_load(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**{**TINY, **overrides})

    def test_unlisted_objective_block_loads_at_any_sweep_dimension(self):
        spec = ExperimentSpec(**{**TINY, "dimensions": (1,), "objective_options": {
            "rosenbrock": {"lower": -10.0}, "schaffer_n1": {"bound": 50.0}}})
        assert spec.dimensions == (1,)

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

    def test_objective_options_flow_through(self):
        spec = ExperimentSpec(**{**TINY, "functions": ("schaffer_n1",),
                                 "objective_options": {"schaffer_n1": {"bound": 1000.0}}})
        result = run_single(spec, "rwpso", "schaffer_n1", 6, 2, run_index=0)
        assert np.isfinite(result.best_fitness)


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
        def broken_run(objective, config, best_fraction):
            raise ValueError("objective input must be finite")

        monkeypatch.setattr(harness, "rwpso_run", broken_run)
        spec = ExperimentSpec(**TINY)
        with pytest.raises(RuntimeError, match="seed"):
            run_cell(spec, ("rwpso", "sphere", 6, 2))


class TestRunExperiment:
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

        def run_failing_on_rosenbrock(objective, config, best_fraction):
            if objective.name == "rosenbrock":
                raise ValueError("objective input must be finite")
            return real_run(objective, config, best_fraction)

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
    def test_external_rows_merge_and_sort(self, tmp_path):
        spec = ExperimentSpec(**TINY)
        outcome = run_experiment(spec)
        baseline = AggregateStats(
            algorithm="qpso", function="sphere", population=6, dimension=2,
            runs=50, mean_iterations=5.0, mean_best_fitness=0.0,
            std_best_fitness=0.0, success_rate=1.0,
        )
        side = tmp_path / "baseline.csv"
        write_results([baseline], None, side)
        merged = merge_stats(outcome.aggregates, read_results(side))
        assert baseline in merged
        keys = [s.cell_key for s in merged]
        assert keys == sorted(keys)

    def test_duplicate_cell_refused(self):
        spec = ExperimentSpec(**TINY)
        outcome = run_experiment(spec)
        with pytest.raises(ValueError, match=r"cell \('rwpso', 'sphere', 6, 2\) appears twice"):
            merge_stats(outcome.aggregates, outcome.aggregates)
        with pytest.raises(ValueError, match="appears twice"):
            merge_stats(outcome.aggregates * 2)

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
    assert spec.objective_options and spec.rwpso_options


def test_format_table_matches_readme_sample():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sample = readme.split("Sample output", 1)[1].split("```\n")[1]
    rows = [
        ("pso", "rastrigin", 276.9, 140.247, 17.4566, 1.0),
        ("pso", "sphere", 404.3, 0.205712, 0.357483, 1.0),
        ("rwpso", "rastrigin", 500.0, 111.735, 21.4256, 0.0),
        ("rwpso", "sphere", 104.2, 0.0216966, 0.00651373, 1.0),
    ]
    stats = [AggregateStats(algorithm=algorithm, function=function, population=20,
                            dimension=10, runs=10, mean_iterations=iterations,
                            mean_best_fitness=mean, std_best_fitness=std,
                            success_rate=success)
             for algorithm, function, iterations, mean, std, success in rows]
    assert harness.format_table(stats) == sample


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY | {"functions": ["sphere"]}), encoding="utf-8")
    spec = load_spec(path)
    assert spec.functions == ("sphere",)
    assert spec.base_seed == 123
