import functools
import json
import threading

import numpy as np
import pytest

from prophet_sharp import DiscreteDistribution
from prophet_sharp.cli import main

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])


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
        for stem in ("report_ratio_n5", "report_regret_n5", "lfd_ratio_n5", "lfd_regret_n5"):
            assert (tmp_path / f"{stem}.json").exists()
        # lfd files round-trip as distributions
        lfd = DiscreteDistribution.from_file(str(tmp_path / "lfd_ratio_n5.json"))
        assert lfd.values[0] == 0.0

    def test_empty_n_list_header_only(self, tmp_path):
        code = main(["table1", "--n", "", "--N", "40", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv_table(tmp_path / "table1.csv")
        assert header[0] == "n" and rows == []

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

    def test_table3(self, tmp_path):
        code = main(["table3", "--n", "4", "--N", "50", "--tol", "1e-4",
                     "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv_table(tmp_path / "table3.csv")
        assert header == ["n", "value", "rho_lo", "rho_hi"]
        payload = json.loads((tmp_path / "pareto_n4.json").read_text())
        assert payload["family"] == "pareto"
        assert payload["params"] == {"p0": 20.0, "p1": 5.0}

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

    def test_empty_lists_header_only(self, tmp_path):
        assert main(["table2", "--n", "", "--out", str(tmp_path)]) == 0
        assert main(["table3", "--n", "", "--out", str(tmp_path)]) == 0
        for name in ("table2.csv", "table3.csv"):
            _, header, rows = read_csv_table(tmp_path / name)
            assert rows == [] and header[0] == "n"

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
        dist_file.write_text(COIN.to_csv())
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

    def test_out_file(self, tmp_path):
        dist_file = tmp_path / "coin.json"
        dist_file.write_text(COIN.to_json())
        out = tmp_path / "result.json"
        assert main(["simulate", "--dist", str(dist_file), "--n", "3", "--theta", "0.5",
                     "--trials", "100", "--seed", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == 100
        assert payload["manifest"]["seeds"] == [1]


class TestParsing:
    def test_bad_n_list_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n", "five", "--out", str(tmp_path)])
        assert exc.value.code == 2

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
