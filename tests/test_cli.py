import ast
import functools
import json
import os
import platform
import threading
import types
from pathlib import Path

import numpy as np
import pytest
import scipy

import prophet_sharp
from helpers import to_csv
from prophet_sharp import (
    DiscreteDistribution,
    SimConfig,
    ThresholdRule,
    evaluate_rule,
    kappa,
    pareto_ratio,
    run_rule,
    sharp_ratio,
    sharp_regret,
)
from prophet_sharp.cli import build_parser, main
from prophet_sharp.reward import ratio_floor, reward_v1, reward_v2

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
ENVIRONMENT = {"python", "numpy", "scipy", "cpu_count"}


def assert_environment(manifest):
    env = manifest["environment"]
    assert set(env) == ENVIRONMENT
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["cpu_count"] == os.cpu_count()


def as_json(obj):
    """obj as the CLI's JSON files hold it (tuples become lists)."""
    return json.loads(json.dumps(obj))


def read_csv_table(path):
    lines = path.read_text().strip().split("\n")
    manifest_lines = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return manifest_lines, header, rows


class TestTable1:
    def test_runs_and_writes(self, tmp_path):
        code = main(["table1", "--n", "5", "--N", "60", "--out", str(tmp_path)])
        assert code == 0
        manifest_lines, header, rows = read_csv_table(tmp_path / "table1.csv")
        assert header == ["n", "R_value", "R_lo", "R_hi", "A_value", "A_lo", "A_hi",
                          "gap_R", "gap_A"]
        assert len(rows) == 1 and rows[0][0] == "5"
        assert manifest_lines and "table1" in manifest_lines[0]
        assert_environment(json.loads(manifest_lines[0].removeprefix("# manifest: ")))
        for stem in ("report_ratio_n5", "report_regret_n5", "lfd_ratio_n5", "lfd_regret_n5"):
            assert (tmp_path / f"{stem}.json").exists()
        # lfd files round-trip as distributions
        lfd = DiscreteDistribution.from_file(str(tmp_path / "lfd_ratio_n5.json"))
        assert lfd.values[0] == 0.0

    def test_numeric_columns_reproducible(self, tmp_path):
        main(["table1", "--n", "4", "--N", "50", "--out", str(tmp_path / "a")])
        main(["table1", "--n", "4", "--N", "50", "--out", str(tmp_path / "b")])
        _, _, rows_a = read_csv_table(tmp_path / "a" / "table1.csv")
        _, _, rows_b = read_csv_table(tmp_path / "b" / "table1.csv")
        assert rows_a == rows_b

    def test_jobs_parallel_same_output(self, tmp_path):
        main(["table1", "--n", "4,5", "--N", "40", "--out", str(tmp_path / "seq"), "--jobs", "1"])
        main(["table1", "--n", "4,5", "--N", "40", "--out", str(tmp_path / "par"), "--jobs", "2"])
        _, _, rows_seq = read_csv_table(tmp_path / "seq" / "table1.csv")
        _, _, rows_par = read_csv_table(tmp_path / "par" / "table1.csv")
        assert rows_seq == rows_par

    def test_json_format(self, tmp_path):
        code = main(["table1", "--n", "4", "--N", "40", "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        obj = json.loads((tmp_path / "table1.json").read_text())
        assert obj["manifest"]["command"] == "table1"
        assert obj["rows"][0]["n"] == 4


class TestTable2And3:
    def test_table2(self, tmp_path):
        code = main(["table2", "--n", "5", "--N", "60", "--tol", "1e-5",
                     "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv_table(tmp_path / "table2.csv")
        assert header == ["n", "kappa", "kappa_lo", "kappa_hi", "gap"]
        assert len(rows) == 1
        payload = json.loads((tmp_path / "kappa_n5.json").read_text())
        assert payload["family"] == "variance"
        assert payload["params"] == {"sigma": 1.0}
        assert payload["certificate"]["projections"] > payload["certificate"]["line_searches"] >= 0

    def test_table3(self, tmp_path):
        code = main(["table3", "--n", "4", "--N", "50", "--tol", "1e-4",
                     "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv_table(tmp_path / "table3.csv")
        assert header == ["n", "value", "rho_lo", "rho_hi"]
        payload = json.loads((tmp_path / "pareto_n4.json").read_text())
        assert payload["family"] == "pareto"
        assert payload["params"] == {"p0": 20.0, "p1": 5.0}

    def test_table3_records_stats(self, tmp_path):
        assert main(["table3", "--n", "4", "--N", "50", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pareto_n4.json").read_text())
        assert set(payload["stats"]) == {"iterations", "rounds", "block_rows", "block_cols",
                                         "dinkelbach_steps"}

    @pytest.mark.parametrize("command", ["table2", "table3"])
    def test_jobs_parallel_same_rows(self, tmp_path, monkeypatch, command):
        from prophet_sharp import cli as cli_mod

        name = "kappa" if command == "table2" else "pareto_ratio"
        solve, threads = getattr(cli_mod, name), set()

        @functools.wraps(solve)  # the parser reads kappa's tol default
        def recorded(*args, **kwargs):
            threads.add(threading.current_thread() is threading.main_thread())
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, recorded)
        tables = {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main([command, "--n", "4,5", "--N", "40", "--tol", "1e-4",
                         "--out", str(out), "--jobs", jobs]) == 0
            manifest_lines, _, rows = read_csv_table(out / f"{command}.csv")
            manifest = json.loads(manifest_lines[0].removeprefix("# manifest: "))
            assert manifest["parameters"]["jobs"] == int(jobs)
            tables[jobs] = rows
        assert len(tables["1"]) == 2 and tables["1"] == tables["2"]
        assert threads == {True, False}  # --jobs 2 solved on worker threads

    def test_solver_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        from prophet_sharp import SolverError
        from prophet_sharp import cli as cli_mod

        def boom(n, N, tol):
            raise SolverError("forced failure")

        monkeypatch.setattr(cli_mod, "sharp_ratio", boom)
        code = main(["table1", "--n", "4", "--N", "40", "--out", str(tmp_path)])
        assert code == 3
        assert "n=4" in capsys.readouterr().err
        # the table file still exists with its header (row aborted, not table)
        _, header, rows = read_csv_table(tmp_path / "table1.csv")
        assert rows == [] and header[0] == "n"

    def test_round_cap_exit_3(self, tmp_path, monkeypatch, capsys):
        from prophet_sharp import game

        # the ratio game at (10, 700) takes 2 rounds from its seeded block
        monkeypatch.setattr(game, "MAX_ROUNDS", 1)
        assert main(["table1", "--n", "10", "--N", "700", "--out", str(tmp_path)]) == 3
        assert "1 rounds" in capsys.readouterr().err

    def test_unknown_lp_status_exit_3(self, tmp_path, monkeypatch, capsys):
        from prophet_sharp import game

        # a restricted game that does not settle within the pivot cap
        monkeypatch.setattr(game, "PIVOTS_PER_LINE", 0)
        assert main(["table1", "--n", "4", "--N", "40", "--out", str(tmp_path)]) == 3
        assert "simplex stopped after 0 pivots" in capsys.readouterr().err


class TestEval:
    def test_point_mass_ratio_one(self, tmp_path, capsys):
        dist_file = tmp_path / "pm.json"
        dist_file.write_text(DiscreteDistribution.point_mass(2.0).to_json())
        code = main(["eval", "--dist", str(dist_file), "--n", "4", "--theta", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert payload["reward_v1"] == pytest.approx(payload["reward_v2"], abs=1e-12)

    def test_missing_file_exit_4(self, tmp_path, capsys):
        code = main(["eval", "--dist", str(tmp_path / "nope.json"), "--n", "4",
                     "--theta", "0.0"])
        assert code == 4
        assert capsys.readouterr().err != ""

    def test_csv_input(self, tmp_path, capsys):
        dist_file = tmp_path / "coin.csv"
        dist_file.write_text(to_csv(COIN))
        code = main(["eval", "--dist", str(dist_file), "--n", "2", "--theta", "0.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.75, abs=1e-12)
        assert payload["ratio_floor"] == 0.75

    def test_three_atom_fixture_matches_closed_form(self, tmp_path, capsys):
        from prophet_sharp.reward import samuel_cahn_closed_forms, samuel_cahn_distribution

        n, a, b, c = 10, 0.1, 0.1, 3.0
        dist_file = tmp_path / "sc.json"
        dist_file.write_text(samuel_cahn_distribution(n, a, b, c).to_json())
        assert main(["eval", "--dist", str(dist_file), "--n", str(n),
                     "--theta", str(a)]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = samuel_cahn_closed_forms(n, a, b, c)[2]
        assert payload["value"] == pytest.approx(expected, abs=1e-12)


class TestSimulate:
    def test_runs_deterministic(self, tmp_path, capsys):
        dist_file = tmp_path / "coin.json"
        dist_file.write_text(COIN.to_json())
        argv = ["simulate", "--dist", str(dist_file), "--n", "2", "--theta", "0.0",
                "--trials", "20000", "--seed", "5"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["mean"] == second["mean"]
        assert abs(first["mean"] - 0.75) <= 4 * first["std_error"]
        assert first["seed"] == 5

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        dist_file = tmp_path / "coin.json"
        dist_file.write_text(COIN.to_json())
        code = main(["simulate", "--dist", str(dist_file), "--n", "2", "--theta", "0.0",
                     "--trials", "0"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_horizon_beyond_64_bits_exit_2(self, tmp_path, capsys):
        dist_file = tmp_path / "coin.json"
        dist_file.write_text(COIN.to_json())
        code = main(["simulate", "--dist", str(dist_file), "--n", "100000000000000000000",
                     "--theta", "0.0", "--trials", "10"])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_out_file(self, tmp_path):
        dist_file = tmp_path / "coin.json"
        dist_file.write_text(COIN.to_json())
        out = tmp_path / "result.json"
        assert main(["simulate", "--dist", str(dist_file), "--n", "3", "--theta", "0.5",
                     "--trials", "100", "--seed", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == 100
        assert payload["manifest"]["seeds"] == [1]
        assert_environment(payload["manifest"])


class TestParsing:
    def test_bad_n_list_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n", "five", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n_list", ["1", "4,1"])
    def test_n_below_2_exit_2(self, tmp_path, capsys, n_list):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n", n_list, "--N", "40", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "every n must be >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["table1", "table2", "table3"])
    @pytest.mark.parametrize("n_list", ["", ",,", " "])
    def test_empty_n_list_exit_2(self, tmp_path, capsys, command, n_list):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", n_list, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "no n given" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_jobs_env_default(self, monkeypatch):
        from prophet_sharp.cli import build_parser

        monkeypatch.setenv("PROPHET_SHARP_JOBS", "3")
        args = build_parser().parse_args(["table1", "--n", "5"])
        assert args.jobs == 3

    def test_bad_jobs_env_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROPHET_SHARP_JOBS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n", "4", "--N", "40", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_flag_overrides_bad_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROPHET_SHARP_JOBS", "abc")
        assert main(["table1", "--n", "4", "--N", "40", "--out", str(tmp_path),
                     "--jobs", "2"]) == 0

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_flag_exit_2(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n", "4", "--N", "40", "--out", str(tmp_path), "--jobs", jobs])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_table2_tol_default_is_kappa_default(self):
        import inspect

        from prophet_sharp import kappa
        from prophet_sharp.cli import build_parser

        args = build_parser().parse_args(["table2"])
        assert args.tol == inspect.signature(kappa).parameters["tol"].default

    @pytest.mark.parametrize("argv", [
        ["table2", "--sigma", "nan"], ["table2", "--sigma", "inf"], ["table2", "--tol", "nan"],
        ["table3", "--tol", "nan"], ["table3", "--tol", "0"], ["table3", "--tol", "-1"],
        ["table3", "--p0", "inf"],
    ], ids=" ".join)
    def test_bad_sigma_or_tol_exit_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--n", "4", "--N", "40", "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    @pytest.mark.parametrize("atoms", [5, [[0.5, None]], [None]])
    def test_malformed_atoms_exit_2(self, tmp_path, capsys, command, atoms):
        dist_file = tmp_path / "bad.json"
        dist_file.write_text(json.dumps({"atoms": atoms}))
        code = main([command, "--dist", str(dist_file), "--n", "2", "--theta", "0.0"])
        assert code == 2
        assert "pairs of numbers" in capsys.readouterr().err


def write_coin(tmp_path):
    dist_file = tmp_path / "coin.json"
    dist_file.write_text(COIN.to_json())
    return str(dist_file)


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["table1", "--n", "4", "--N", "40", "--format", "json"],
        ["table2", "--n", "5", "--N", "60", "--tol", "1e-5", "--sigma", "2.0"],
        ["table3", "--n", "4", "--N", "50", "--tol", "1e-4", "--p0", "10", "--p1", "4"],
        ["eval", "--n", "3", "--theta", "0.5", "--p", "0.25"],
        ["simulate", "--n", "3", "--theta", "0.5", "--trials", "200", "--seed", "9"],
    ], ids=lambda argv: argv[0])
    def test_parameters_are_parsed_options(self, tmp_path, argv):
        # every option the parser knows is recorded, except --out; so an
        # option added to the parser cannot be left out of the manifest
        if argv[0] in ("eval", "simulate"):
            out = tmp_path / "result.json"
            argv = argv + ["--dist", write_coin(tmp_path), "--out", str(out)]
        else:
            out = tmp_path / f"{argv[0]}.{'json' if 'json' in argv else 'csv'}"
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == 0
        text = out.read_text()
        manifest = (json.loads(text.split("\n")[0].removeprefix("# manifest: "))
                    if out.suffix == ".csv" else json.loads(text)["manifest"])
        options = vars(build_parser().parse_args(argv))
        assert manifest["command"] == options.pop("command") == argv[0]
        del options["fn"], options["out"]
        assert manifest["parameters"] == as_json(options)
        assert manifest["seeds"] == ([9] if argv[0] == "simulate" else [])
        assert_environment(manifest)


class TestPayloads:
    """Each written payload is the manifest, the family fields, and the
    result's as_dict()."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table1(self, tmp_path, fmt):
        assert main(["table1", "--n", "4", "--N", "40", "--format", fmt,
                     "--out", str(tmp_path)]) == 0
        for kind, solve in (("ratio", sharp_ratio), ("regret", sharp_regret)):
            report = solve(4, 40, 1e-7)
            payload = json.loads((tmp_path / f"report_{kind}_n4.json").read_text())
            assert list(payload) == ["manifest", "report"]
            assert payload["report"] == as_json(report.as_dict())
            lfd = json.loads((tmp_path / f"lfd_{kind}_n4.json").read_text())
            assert lfd == as_json(report.lfd.as_dict()) == payload["report"]["lfd"]

    def test_table2(self, tmp_path):
        assert main(["table2", "--n", "5", "--N", "60", "--tol", "1e-5", "--sigma", "2.0",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "kappa_n5.json").read_text())
        manifest = payload.pop("manifest")
        assert manifest["command"] == "table2"
        assert payload == {"n": 5, "family": "variance", "params": {"sigma": 2.0},
                           **as_json(kappa(5, 60, tol=1e-5, sigma=2.0).as_dict())}

    def test_table3(self, tmp_path):
        assert main(["table3", "--n", "4", "--N", "50", "--tol", "1e-4",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pareto_n4.json").read_text())
        manifest = payload.pop("manifest")
        assert manifest["command"] == "table3"
        assert payload == {"n": 4, "family": "pareto", "params": {"p0": 20.0, "p1": 5.0},
                           **as_json(pareto_ratio(4, 50, 20.0, 5.0, tol=1e-4).as_dict())}

    def test_eval(self, tmp_path, capsys):
        assert main(["eval", "--dist", write_coin(tmp_path), "--n", "3", "--theta", "0.5",
                     "--p", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("manifest")["command"] == "eval"
        rule = ThresholdRule(0.5, 0.25)
        assert payload == {"reward_v1": reward_v1(COIN, 3, rule),
                           "reward_v2": reward_v2(COIN, 3, rule),
                           **evaluate_rule(COIN, 3, rule).as_dict(),
                           "ratio_floor": ratio_floor(3)}

    def test_simulate(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--dist", write_coin(tmp_path), "--n", "3", "--theta", "0.5",
                     "--trials", "300", "--seed", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload.pop("manifest")["command"] == "simulate"
        result = run_rule(COIN, ThresholdRule(0.5, 0.0), SimConfig(trials=300, seed=4, n=3))
        assert payload == result.as_dict()

    def test_to_json_is_as_dict(self):
        # the lfd file format that --dist reads
        assert COIN.to_json() == json.dumps(COIN.as_dict())


def test_star_import_binds_no_submodule():
    assert not [name for name in prophet_sharp.__all__
                if isinstance(getattr(prophet_sharp, name), types.ModuleType)]
    namespace = {"dist": "my distribution"}
    exec("from prophet_sharp import *", namespace)
    assert namespace["dist"] == "my distribution"
    assert namespace["sharp_ratio"] is sharp_ratio


def test_no_private_scipy_import():
    # every module reads scipy through its public API: no import under
    # scipy names a module or an object with a leading underscore
    private = []
    for path in sorted(Path(prophet_sharp.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"
                        and any(part.startswith("_") for part in name.split("."))]
    assert private == []


PIPELINE, ACCEPTANCE, TRACER, PAPER, ITEM_9 = (
    "a pipeline or the CLI uses it", "an acceptance criterion imports it",
    "the benchmark's tracer rebinds it", "it names an object of the paper",
    "waits for ROADMAP item 9 to give it a pipeline role")
#: why each public name is public; a new export needs an entry here
EXPORT_REASONS = {
    "DiscreteDistribution": PIPELINE, "GameSolution": ACCEPTANCE, "Generator": PIPELINE,
    "KappaResult": PIPELINE, "KernelKind": PIPELINE, "OptimalRule": PIPELINE,
    "ParetoResult": PIPELINE, "RuleEvaluation": PIPELINE, "SharpConstantReport": PIPELINE,
    "SimConfig": PIPELINE, "SimResult": PIPELINE, "SolverError": PIPELINE,
    "ThresholdRule": PIPELINE, "VerificationResult": ITEM_9,
    "ehsani_distribution": ACCEPTANCE, "err_bound_diff": PIPELINE, "err_bound_ratio": PIPELINE,
    "evaluate_rule": PIPELINE, "floor_rule": PAPER, "grid_distribution": PIPELINE,
    "growth_bound_check": PAPER, "kappa": PIPELINE, "kernel_a": ACCEPTANCE,
    "kernel_r": ACCEPTANCE, "lfd_from_mu_diff": PIPELINE, "lfd_from_mu_ratio": PIPELINE,
    "lipschitz_a": ACCEPTANCE, "lipschitz_r": ACCEPTANCE, "optimal_rule": PIPELINE,
    "pareto_band": PIPELINE, "pareto_ratio": PIPELINE, "payoff_matrix": TRACER,
    "prophet_weights": TRACER, "ratio_floor": PIPELINE, "reward_by_level": PIPELINE,
    "reward_v1": PIPELINE, "reward_v2": ACCEPTANCE, "reward_weights": TRACER,
    "rule_at_level": PIPELINE, "run_prophet": TRACER, "run_rule": PIPELINE,
    "samuel_cahn_closed_forms": ACCEPTANCE, "samuel_cahn_distribution": ACCEPTANCE,
    "sharp_ratio": PIPELINE, "sharp_regret": PIPELINE, "solve_game": ACCEPTANCE,
    "stop_weight": PAPER, "support_cutoff": ACCEPTANCE, "verify_solution": ITEM_9,
}


def test_every_export_has_a_reason():
    assert sorted(EXPORT_REASONS) == prophet_sharp.__all__
