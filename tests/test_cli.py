import importlib
import json
import pkgutil

import numpy as np
import pytest

import swarmwalk
from swarmwalk import cli
from swarmwalk.cli import cli_main
from swarmwalk.harness import CSV_COLUMNS

TINY_CONFIG = {
    "functions": ["sphere"],
    "algorithms": ["rwpso"],
    "population_sizes": [6],
    "dimensions": [2],
    "runs_per_cell": 2,
    "max_iterations": 15,
    "base_seed": 9,
}


# The objectives are fixed problems; their former option block is no config key.
OBJECTIVE_OPTIONS_REMOVED = "unknown experiment config keys: ['objective_options']"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return path


class TestRunCommand:
    def test_smoke(self, tmp_path, config_path):
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("algorithm,function,population,dimension,runs,")
        assert len(lines) == 2

    def test_unknown_algorithm_is_usage_error(self):
        assert cli_main(["run", "--algo", "nosuch"]) == 2

    def test_unknown_function_is_usage_error(self):
        assert cli_main(["run", "--function", "ackley"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert cli_main(["run", "--frobnicate", "1"]) == 2

    def test_removed_sideload_flag_is_usage_error(self, monkeypatch, capsys, config_path):
        monkeypatch.setattr(cli, "run_experiment", pytest.fail)
        assert cli_main(["run", "--config", str(config_path), "--sideload", "x"]) == 2
        assert "unrecognized arguments: --sideload x" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_config(self, tmp_path, config_path):
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--config", str(config_path), "--runs", "1",
                         "--pop", "4", "--out", str(out)])
        assert code == 0
        row = out.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
        assert row[2] == "4"   # population
        assert row[4] == "1"   # runs

    def test_json_output(self, tmp_path, config_path):
        out = tmp_path / "r.json"
        code = cli_main(["run", "--config", str(config_path),
                         "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["aggregates"][0]["function"] == "sphere"

    def test_stdout_when_no_out(self, capsys, config_path):
        assert cli_main(["run", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("algorithm,function,")

    def test_missing_config_file_fails(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("overrides, flags, named", [
        pytest.param({"rwpso_options": {"walk_horizn": 3}}, [], "walk_horizn",
                     id="misspelled-key"),
        pytest.param({}, ["--threshold", "nan"], "threshold", id="nan-threshold"),
        pytest.param({"runs_per_cell": "3"}, [], "runs_per_cell", id="string-runs"),
        pytest.param({"base_seed": 7.0}, [], "base_seed", id="float-seed"),
        pytest.param({"functions": "sphere"}, [], "functions", id="string-functions"),
        pytest.param({"rwpso_presets": {"rastrigin": {"gaussian_sigma": 0.52}}}, [],
                     "unknown experiment config keys: ['rwpso_presets']",
                     id="removed-rwpso-presets"),
        pytest.param({"objective_options": {"schaffer_n1": {"weights": [float("nan"), 0.5]}}},
                     [], OBJECTIVE_OPTIONS_REMOVED, id="nan-weight"),
        pytest.param({"population_sizes": [40, 40], "runs_per_cell": 3}, [],
                     "population_sizes lists 40 twice", id="repeated-population"),
        pytest.param({"functions": ["sphere", "sphere"]}, [], "functions lists 'sphere' twice",
                     id="repeated-function"),
        pytest.param({"objective_options": {"sphere": {"lower": -1}}}, [],
                     OBJECTIVE_OPTIONS_REMOVED, id="removed-lower"),
        pytest.param({"objective_options": {"rastrigin": {"amplitude": 3}}}, [],
                     OBJECTIVE_OPTIONS_REMOVED, id="removed-amplitude"),
        pytest.param({"objective_options": {"schaffer_n1": {"bound": 50}}}, [],
                     OBJECTIVE_OPTIONS_REMOVED, id="removed-bound"),
        pytest.param({"best_fraction": 0.5}, [], "best_fraction", id="removed-best-fraction"),
        pytest.param({"fitness_thresholds": {"sphere": 10**400}}, [], "threshold for sphere",
                     id="huge-threshold"),
        pytest.param({"population_sizes": [10**400]}, [], "population_sizes",
                     id="huge-population"),
        pytest.param({"dimensions": [10**400]}, [], "dimensions", id="huge-dimension"),
        pytest.param({"population_sizes": [10**18]}, [], "too large for numpy to allocate",
                     id="unallocatable-population"),
        pytest.param({"dimensions": [10**18]}, [], "too large for numpy to allocate",
                     id="unallocatable-dimension"),
        pytest.param({}, ["--pop", str(10**18)], "too large for numpy to allocate",
                     id="unallocatable-pop-flag"),
        pytest.param({}, ["--dim", str(10**18)], "too large for numpy to allocate",
                     id="unallocatable-dim-flag"),
        pytest.param({"objective_options": {"binh4": {"weights": [10**400, 0.5]}}}, [],
                     OBJECTIVE_OPTIONS_REMOVED, id="huge-weight"),
        pytest.param({"rwpso_options": {"seed": 3}}, [], "seed is set by the sweep",
                     id="seed-in-options"),
        pytest.param({"pso_presets": {"sphere": {"v_max": 0.15}}}, [],
                     "unknown experiment config keys: ['pso_presets']", id="removed-pso-presets"),
        pytest.param({"rwpso_options": {"gaussian_sigma": float("nan")}}, [],
                     "gaussian_sigma must be finite", id="nan-sigma"),
        pytest.param({"algorithms": ["pso"], "pso_options": {"c1": float("inf")}}, [],
                     "unknown experiment config keys: ['pso_options']", id="inf-c1"),
        pytest.param({"algorithms": ["pso"], "rwpso_options": {"gaussian_sigma": float("inf")}},
                     [], "gaussian_sigma must be finite", id="inf-sigma"),
        pytest.param({"rwpso_options": {"gaussian_sigma_mode": "fixed"}}, [],
                     "gaussian_sigma_mode", id="removed-sigma-mode"),
        pytest.param({"rwpso_options": {"gaussian_mu": 0.5}}, [], "gaussian_mu",
                     id="removed-mu"),
        pytest.param({"rwpso_options": {"walk_horizon": 2}}, [],
                     "unexpected keyword argument 'walk_horizon'", id="removed-walk-horizon"),
        pytest.param({"pso_options": {"r_per_dimension": False}}, [],
                     "unknown experiment config keys: ['pso_options']",
                     id="removed-r-per-dimension"),
        pytest.param({"algorithms": ["pso"], "pso_options": {"v_max": "0.1"}}, [],
                     "unknown experiment config keys: ['pso_options']", id="string-v-max"),
        pytest.param({"pso_options": {}}, [], "unknown experiment config keys: ['pso_options']",
                     id="removed-pso-options"),
        pytest.param({"objective_options": {}}, [], OBJECTIVE_OPTIONS_REMOVED,
                     id="removed-objective-options"),
        pytest.param({}, ["--dim", str(10**17)], "bad objective for sphere: Unable to allocate",
                     id="unmappable-dim-flag"),
    ])
    def test_bad_option_exits_before_any_run(self, tmp_path, monkeypatch, capsys,
                                             overrides, flags, named):
        monkeypatch.setattr(cli, "run_experiment", pytest.fail)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({**TINY_CONFIG, **overrides}), encoding="utf-8")
        assert cli_main(["run", "--config", str(config), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("content, reason", [
        pytest.param(b'{"functions": ["sphere"], ', "Expecting property name enclosed in "
                     "double quotes: line 1 column 27 (char 26)", id="truncated-json"),
        pytest.param(b"\xff" + json.dumps(TINY_CONFIG).encode(), "'utf-8' codec can't decode "
                     "byte 0xff in position 0: invalid start byte", id="not-utf-8"),
        pytest.param(b"[" * 100_000, "maximum recursion depth exceeded", id="too-deep"),
    ])
    def test_unparsable_config_names_the_file(self, tmp_path, monkeypatch, capsys,
                                              content, reason):
        monkeypatch.setattr(cli, "run_experiment", pytest.fail)
        config = tmp_path / "exp.json"
        config.write_bytes(content)
        assert cli_main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {config}: {reason}")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("out", [
    pytest.param("missing/r.csv", id="missing-parent"),
    pytest.param("config.json/r.csv", id="file-parent"),
    pytest.param(".", id="directory"),
])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_unwritable_out_exits_before_any_run(tmp_path, monkeypatch, capsys, command, out):
    monkeypatch.setattr(cli, "run_experiment", pytest.fail)
    monkeypatch.setattr(cli, "run_single", pytest.fail)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    argv = ["run", "--config", "config.json"] if command == "run" else ["trace"]
    assert cli_main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write results to {out}: [Errno ")
    assert err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


def test_failed_sweep_keeps_an_existing_results_file(tmp_path, monkeypatch, capsys,
                                                     config_path):
    def failing_sweep(spec):
        raise ValueError("the sweep failed")

    monkeypatch.setattr(cli, "run_experiment", failing_sweep)
    out = tmp_path / "r.csv"
    out.write_text("earlier results\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: the sweep failed\n"
    assert out.read_text(encoding="utf-8") == "earlier results\n"


RESULTS_HEADER = ",".join(CSV_COLUMNS) + "\n"
ROW = dict(zip(CSV_COLUMNS, ["qpso", "sphere", 6, 2, 50, 5.0, 0.0, 0.0, 1.0]))


class TestTableCommand:
    def test_aligned_table(self, tmp_path, config_path, capsys):
        out = tmp_path / "r.csv"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        assert cli_main(["table", str(out)]) == 0
        table = capsys.readouterr().out
        lines = table.strip().split("\n")
        assert "algorithm" in lines[0] and "mean_best_fitness" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "rwpso" in table

    def test_missing_results_file(self, tmp_path):
        assert cli_main(["table", str(tmp_path / "nope.csv")]) == 1

    def test_rows_print_in_file_order(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text(RESULTS_HEADER + "rwpso,sphere,6,2,50,5.0,0.0,0.0,1.0\n"
                           "pso,sphere,6,2,50,7.0,0.5,0.0,1.0\n", encoding="utf-8")
        assert cli_main(["table", str(results)]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[2:]
        assert [row.split()[0] for row in rows] == ["rwpso", "pso"]

    def test_removed_sideload_flag_is_usage_error(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text(RESULTS_HEADER, encoding="utf-8")
        assert cli_main(["table", str(results), "--sideload", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --sideload x" in captured.err


@pytest.mark.parametrize("name, text, named", [
    pytest.param("r.json", json.dumps({"aggregates": [
                     {k: v for k, v in ROW.items() if k != "population"}]}),
                 "population", id="json-missing-key"),
    pytest.param("r.json", json.dumps({"rows": [ROW]}), "aggregates",
                 id="json-without-aggregates"),
    pytest.param("r.json", json.dumps([ROW]), "aggregates", id="json-list"),
    pytest.param("r.json", json.dumps({"aggregates": [{**ROW, "population": 6.5}]}),
                 "population", id="json-fractional-population"),
    pytest.param("r.csv", ",".join(CSV_COLUMNS) + "\nqpso,sphere,6,2,50,5.0,0.0,0.0\n",
                 "success_rate", id="csv-missing-value"),
    pytest.param("r.json", json.dumps({"aggregates": [ROW, ROW]}),
                 "row 2: cell ('qpso', 'sphere', 6, 2) appears twice", id="json-duplicate-cell"),
    pytest.param("r.json", "[" * 100_000, "maximum recursion depth exceeded", id="json-too-deep"),
])
@pytest.mark.parametrize("command", ["table"])
def test_malformed_results_file_is_one_error_line(tmp_path, capsys, command, name, text, named):
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    assert cli_main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and str(bad) in err


class TestDuplicateCells:
    def test_table_refuses_a_cell_twice_in_one_file(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text(RESULTS_HEADER + "rwpso,sphere,6,2,50,5.0,0.0,0.0,1.0\n"
                           + "qpso,sphere,6,2,50,5.0,0.0,0.0,1.0\n" * 2, encoding="utf-8")
        assert cli_main(["table", str(results)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: results file {results}: row 3: "
                                f"cell ('qpso', 'sphere', 6, 2) appears twice\n")


class TestTraceCommand:
    def test_monotone_series(self, capsys):
        code = cli_main(["trace", "--algo", "rwpso", "--function", "sphere",
                         "--dim", "2", "--pop", "6", "--seed", "7",
                         "--max-iter", "40"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "iteration,best_fitness"
        iterations = [int(line.split(",")[0]) for line in lines[1:]]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert iterations == list(range(1, len(values) + 1))
        assert np.all(np.diff(values) <= 0.0)

    def test_trace_to_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli_main(["trace", "--algo", "pso", "--function", "sphere",
                         "--dim", "2", "--pop", "6", "--max-iter", "10",
                         "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("iteration,best_fitness")

    def test_non_finite_threshold_is_rejected(self, capsys):
        assert cli_main(["trace", "--threshold", "inf", "--max-iter", "5"]) == 1
        assert "threshold for sphere" in capsys.readouterr().err

    def test_unmappable_dimension_is_rejected(self, monkeypatch, capsys):
        # 10**17 coordinates pass the intp check but need 711 PiB: numpy
        # refuses the domain's bounds at once, without touching memory.
        monkeypatch.setattr(cli, "run_single", pytest.fail)
        assert cli_main(["trace", "--pop", "2", "--dim", str(10**17)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad objective for sphere: Unable to allocate")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "trace"])
def test_negative_threshold_loads_and_runs_in_equals_form(capsys, config_path, command):
    # binh4's fitness is negative over much of its box.  argparse reads a
    # separate "-4.5e0" as a flag, but "--threshold=-4.5e0" as a value.
    argv = ["run", "--config", str(config_path)] if command == "run" else ["trace"]
    argv += ["--function", "binh4", "--pop", "6", "--max-iter", "40"]
    assert cli_main([*argv, "--threshold=-4.5e0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    if command == "run":
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["success_rate"]) > 0.0 and float(row["mean_iterations"]) < 40
    else:
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) < 40 and values[-1] <= -4.5 < min(values[:-1])


def test_help_exits_zero():
    assert cli_main(["--help"]) == 0
    assert cli_main(["run", "--help"]) == 0


def test_every_export_resolves():
    modules = [swarmwalk] + [importlib.import_module(f"swarmwalk.{info.name}")
                             for info in pkgutil.iter_modules(swarmwalk.__path__)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    namespace: dict = {}
    exec("from swarmwalk import *", namespace)
    assert set(swarmwalk.__all__) <= set(namespace)
