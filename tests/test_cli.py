import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import congestlist
from congestlist.cli import (
    EXIT_BUDGET_VIOLATION,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    bench,
    cc_list_main,
    main,
)
from congestlist.config import SimConfig
from congestlist.engine import BudgetViolation
from congestlist.graphs import (
    brute_force_list_kp,
    decode_cliques,
    gnp,
    parse_gen_spec,
    write_edge_list,
)
from congestlist.sparse_listing import cc_list_kp


class TestExitCodes:
    def test_cc_complete8_verify(self, capsys):
        assert main(["--mode", "cc", "--p", "3", "--gen", "complete:8",
                     "--verify"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["clique_count"] == 56

    def test_congest_empty_verify(self):
        assert main(["--mode", "congest", "--p", "4", "--gen", "empty:32",
                     "--verify"]) == EXIT_OK

    def test_congest_k4_gnp_verify(self, tmp_path):
        emit = tmp_path / "out.json"
        # p is implied by the mode
        code = main(["--mode", "congest-k4", "--gen", "gnp:80:0.3:17",
                     "--verify", "--emit", str(emit)])
        assert code == EXIT_OK
        data = json.loads(emit.read_text())
        assert data["verified"] is True
        assert data["clique_count"] == data["oracle_count"]

    def test_congest_k4_rejects_other_p(self):
        assert main(["--mode", "congest-k4", "--p", "5",
                     "--gen", "complete:6"]) == EXIT_CONFIG_ERROR

    def test_missing_graph_source_is_config_error(self):
        assert main(["--mode", "cc", "--p", "3"]) == EXIT_CONFIG_ERROR

    def test_two_graph_sources_is_config_error(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(gnp(10, 0.3, 1), str(path))
        assert main(["--mode", "cc", "--p", "3", "--gen", "complete:4",
                     "--graph", str(path)]) == EXIT_CONFIG_ERROR

    def test_bad_p_is_config_error(self):
        assert main(["--mode", "cc", "--p", "2", "--gen", "complete:4"]) \
            == EXIT_CONFIG_ERROR

    def test_unknown_factor_is_config_error(self):
        assert main(["--mode", "cc", "--p", "3", "--gen", "complete:4",
                     "--factor", "warp_speed=9"]) == EXIT_CONFIG_ERROR

    def test_nonpositive_factor_is_config_error(self):
        assert main(["--mode", "cc", "--p", "3", "--gen", "complete:4",
                     "--factor", "light_factor=0"]) == EXIT_CONFIG_ERROR

    def test_budget_violation_exit_code(self):
        # absurdly small receive budget forces the cc delivery abort
        code = main(["--mode", "cc", "--p", "3", "--gen", "gnp:24:0.5:1",
                     "--factor", "receive_budget_factor=0.0000001"])
        assert code == EXIT_BUDGET_VIOLATION

    @pytest.mark.parametrize("argv, kind", [
        (["--mode", "cc", "--p", "4", "--gen", "gnp:64:0.3:1",
          "--factor", "receive_budget_factor=0.01"], "receive-budget"),
        (["--mode", "congest", "--p", "4", "--gen", "planted:64:8:4:0.05:1",
          "--forced-depth", "2", "--eps0", "1/2",
          "--factor", "learn_factor=0.00001"], "learn-cap"),
    ], ids=["cc", "congest"])
    def test_raised_budget_violation_is_a_report(self, tmp_path, argv, kind):
        emit = tmp_path / "r.json"
        assert main([*argv, "--emit", str(emit)]) == EXIT_BUDGET_VIOLATION
        data = json.loads(emit.read_text())
        assert data["schema"] == 2
        assert kind in data["error"]
        assert data["config"]["mode"] == argv[1]
        assert "cliques" not in data

    def test_decompose_mode(self, tmp_path):
        emit = tmp_path / "part.json"
        code = main(["--mode", "decompose", "--gen", "gnp:48:0.3:2",
                     "--delta", "0.5", "--emit", str(emit)])
        assert code == EXIT_OK
        data = json.loads(emit.read_text())
        assert data["verification"]["ok"] is True
        assert data["partition"]["labels"]

    def test_congest_decomposition_failure_is_a_report(self, tmp_path):
        # phi_min=0.9 makes the forced decomposition overflow its remainder
        # budget; the run must end in a report, not a traceback
        argv = ["--mode", "congest", "--forced-depth", "2", "--eps0", "1/2",
                "--factor", "phi_min=0.9", "--p", "4", "--gen", "gnp:64:0.3:5"]
        src = str(Path(congestlist.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "congestlist.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_VERIFY_FAILED
        assert "Traceback" not in proc.stderr
        assert "remainder overflow" in json.loads(proc.stdout)["error"]
        for mode in ("congest", "congest-k4"):
            emit = tmp_path / f"{mode}.json"
            argv[1] = mode
            assert main(argv + ["--emit", str(emit)]) == EXIT_VERIFY_FAILED
            data = json.loads(emit.read_text())
            assert data["mode"] == mode and "remainder overflow" in data["error"]
            assert data["config"]["phi_min"] == 0.9

    def test_congest_protocol_error_is_a_report(self, tmp_path):
        # one-word messages cannot carry the cluster routing payloads
        emit = tmp_path / "r.json"
        argv = ["--mode", "congest", "--p", "4", "--gen", "planted:64:14:3:0.01:3",
                "--forced-depth", "2", "--eps0", "1/2", "--factor", "message_words=1",
                "--factor", "heavy_factor=0.25", "--emit", str(emit)]
        assert main(argv) == EXIT_VERIFY_FAILED
        data = json.loads(emit.read_text())
        assert data["mode"] == "congest" and "exceeds 1 words" in data["error"]
        assert data["config"]["message_words"] == 1 and data["config"]["eps0"] == "1/2"

    @pytest.mark.parametrize("setting, value", [
        ("forced_depth", "-1"), ("eps0", "3/2"), ("eps0", "0"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_out_of_range_schedule_is_config_error(self, tmp_path, capsys, setting,
                                                   value, source):
        run = ["--mode", "congest", "--p", "4", "--gen", "gnp:32:0.3:1"]
        if source == "flag":
            argv = run + ["--" + setting.replace("_", "-"), value]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("mode = congest\np = 4\ngen = gnp:32:0.3:1\n"
                                f"{setting} = {value}\n")
            argv = ["--config", str(cfg_file)]
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and setting in err

    @pytest.mark.parametrize("mode, extra", [
        ("cc", ["--p", "3"]), ("congest", ["--p", "4"]), ("congest-k4", []),
        ("decompose", ["--delta", "0.5"]), ("verify", ["--p", "3"]),
    ])
    @pytest.mark.parametrize("source", ["gen", "negative header", "text header"])
    def test_bad_node_count_is_config_error(self, tmp_path, capsys, mode, extra, source):
        if source == "gen":
            graph = ["--gen", "empty:-2"]
        else:
            path = tmp_path / "bad.edges"
            path.write_text("-4 0\n" if source == "negative header" else "a b\n")
            graph = ["--graph", str(path)]
        assert main(["--mode", mode, *extra, *graph]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        if source != "gen":
            assert f"{path}, line 1:" in err

    def test_verify_mode_oracle_run(self, capsys):
        assert main(["--mode", "verify", "--p", "4",
                     "--gen", "complete:6"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["clique_count"] == 15


class TestEmission:
    def test_results_json_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            emit = tmp_path / f"r{i}.json"
            assert main(["--mode", "cc", "--p", "4", "--gen", "gnp:32:0.3:5",
                         "--seed", "9", "--emit", str(emit)]) == EXIT_OK
            paths.append(emit.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_phases(self, tmp_path):
        emit_csv = tmp_path / "rounds.csv"
        assert main(["--mode", "cc", "--p", "3", "--gen", "gnp:24:0.4:3",
                     "--emit-csv", str(emit_csv)]) == EXIT_OK
        rows = list(csv.reader(emit_csv.open()))
        assert rows[0] == ["phase", "rounds", "messages"]
        phases = {row[0] for row in rows[1:]}
        assert "edge-delivery" in phases and "partition-broadcast" in phases

    def test_config_echoed_into_report(self, tmp_path):
        emit = tmp_path / "r.json"
        main(["--mode", "cc", "--p", "3", "--gen", "complete:6",
              "--factor", "fake_density_factor=5", "--emit", str(emit)])
        data = json.loads(emit.read_text())
        assert data["config"]["fake_density_factor"] == 5.0
        assert data["schema"] == 2

    def test_forced_depth_zero_is_echoed(self, tmp_path):
        # 0 is a set value, not an unset flag
        emit = tmp_path / "r.json"
        assert main(["--mode", "congest", "--p", "4", "--gen", "gnp:32:0.3:1",
                     "--forced-depth", "0", "--emit", str(emit)]) == EXIT_OK
        assert json.loads(emit.read_text())["config"]["forced_depth"] == 0

    @pytest.mark.parametrize("argv", [
        ["--mode", "cc", "--p", "4", "--seed", "3"],
        ["--mode", "verify", "--p", "4"],
        ["--mode", "congest", "--p", "4", "--seed", "2"],
        ["--mode", "congest-k4", "--seed", "2"],
    ], ids=lambda argv: argv[1])
    def test_cliques_round_trip(self, tmp_path, argv):
        gen = "gnp:40:0.35:3"
        emit = tmp_path / "r.json"
        assert main(argv + ["--gen", gen, "--emit", str(emit)]) == EXIT_OK
        data = json.loads(emit.read_text())
        expected = sorted(brute_force_list_kp(parse_gen_spec(gen), 4))
        assert expected
        assert decode_cliques(data["cliques"]) == expected
        assert data["clique_count"] == len(expected)
        digest = hashlib.sha256("\n".join(data["cliques"]).encode()).hexdigest()
        assert data["clique_digest"] == digest


class TestConfigFile:
    def test_json_config_with_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"mode": "cc", "p": 3, "gen": "complete:5", "seed": 4,
             "fake_density_factor": 2.0}))
        emit = tmp_path / "r.json"
        # the flag overrides p from the file
        assert main(["--config", str(cfg_file), "--p", "4",
                     "--emit", str(emit)]) == EXIT_OK
        data = json.loads(emit.read_text())
        assert data["p"] == 4
        assert data["config"]["fake_density_factor"] == 2.0

    def test_flat_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mode = cc\np = 3\ngen = complete:6\n"
                            "# comment\nlight_factor = 3.5\n")
        assert main(["--config", str(cfg_file)]) == EXIT_OK


class TestCcListEntryPoint:
    def test_runs_with_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        write_edge_list(gnp(20, 0.4, 2), str(path))
        emit = tmp_path / "res.json"
        assert cc_list_main(["--p", "3", "--graph", str(path), "--seed", "5",
                             "--emit", str(emit)]) == EXIT_OK
        data = json.loads(emit.read_text())
        assert data["mode"] == "cc"
        assert "rounds_by_phase" in data
        assert data["accounting"]["messages"]["received"]


class TestBench:
    def test_single_instance_block(self):
        rows = bench({"n": [16], "density": 0.3, "reps": 1, "modes": ["cc"],
                      "p": 3}, SimConfig())
        assert rows
        assert {r["phase"] for r in rows} >= {"edge-delivery"}
        assert all(r["n"] == 16 and r["mode"] == "cc" for r in rows)

    def test_empty_sweep_header_only(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"n": [], "modes": ["cc"], "p": 3}))
        out_csv = tmp_path / "bench.csv"
        assert main(["--mode", "bench", "--sweep", str(sweep),
                     "--emit-csv", str(out_csv)]) == EXIT_OK
        rows = list(csv.reader(out_csv.open()))
        assert rows == [["n", "m", "mode", "phase", "rounds", "max_load"]]

    def test_rounds_nondecreasing_in_m_for_fixed_n(self, tmp_path):
        # same n, growing density -> delivery rounds must not shrink
        rows = []
        for q in (0.1, 0.3, 0.6):
            g = gnp(48, q, 3)
            _, acc = cc_list_kp(g, 3, seed=1, cfg=SimConfig())
            rows.append((g.m, acc.rounds_by_phase["edge-delivery"]))
        ms = [m for m, _ in rows]
        rounds = [r for _, r in rows]
        assert ms == sorted(ms)
        assert rounds == sorted(rounds)

    @pytest.mark.parametrize("emit_csv", [True, False])
    def test_violation_keeps_finished_rows(self, tmp_path, monkeypatch, capsys, emit_csv):
        calls = []

        def second_fails(g, p, seed, cfg):
            calls.append(g.n)
            if len(calls) == 2:
                raise BudgetViolation(4, "edge-delivery", 1.0, 2.0, "receive-budget")
            return cc_list_kp(g, p, seed, cfg)

        monkeypatch.setattr("congestlist.cli.cc_list_kp", second_fails)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"n": [12, 16], "density": 0.5, "reps": 1,
                                     "modes": ["cc"], "p": 3}))
        out_csv = tmp_path / "bench.csv"
        argv = ["--mode", "bench", "--sweep", str(sweep)]
        assert main(argv + (["--emit-csv", str(out_csv)] if emit_csv else [])) \
            == EXIT_BUDGET_VIOLATION
        out, err = capsys.readouterr()
        assert "n=16 mode=cc rep=0" in err and "receive-budget" in err
        if emit_csv:
            header, *rows = list(csv.reader(out_csv.open()))
            assert header[0] == "n" and rows
            assert {row[0] for row in rows} == {"12"}
        else:
            rows = [json.loads(line) for line in out.splitlines()]
            assert rows and {r["n"] for r in rows} == {12}
