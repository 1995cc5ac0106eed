import json
import subprocess
import sys
import threading
import time

import pytest

jsonschema = pytest.importorskip("jsonschema")

from interchange import acceptance, irreps
from interchange.acceptance import ALL_CHECKS, SuiteConfig, run_suite
from interchange.cli import RunConfig, _suite_payload, main, render_json, schema_for
from interchange.errors import ParameterError
from interchange.graphs import WeightFunction, dump_weight_file

EXPECTED_CHECKS = (
    "octopus_psd",
    "doubling_inequality",
    "schur_scalarity",
    "spectrum_assembly",
    "mixing_numbers",
    "probability_bounds",
    "cycle_formula_routes",
    "aldous_inequality",
    "mixing_comparison",
    "comparison_constants",
    "qhf_observables",
)


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def check_against_schema(payload: dict, command: str) -> None:
    jsonschema.validate(payload, schema_for(command))


class TestReports:
    def test_mix_golden(self, capsys):
        code, out = run_cli(capsys, ["mix", "--graph", "complete:3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lmix"] == 2
        assert payload["mix"] == 1
        assert payload["delta"] == pytest.approx(16.0 / 33.0, abs=1e-12)
        check_against_schema(payload, "mix")

    def test_octopus(self, capsys):
        code, out = run_cli(capsys, ["octopus", "--graph", "star:4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["hubs"]) == 4
        check_against_schema(payload, "octopus")

    def test_verify_doubling(self, capsys):
        code, out = run_cli(capsys, ["verify-doubling", "--graph", "complete:3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["psd"] is True
        assert payload["epsilon"] == pytest.approx(0.5)
        check_against_schema(payload, "verify-doubling")

    def test_compare_golden(self, capsys):
        code, out = run_cli(capsys, ["compare", "--graph", "path:3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["a_star"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert payload["aldous"] is True
        assert len(payload["rows"]) == 3
        check_against_schema(payload, "compare")

    def test_compare_solves_each_partition_once(self, capsys, monkeypatch):
        calls = []
        solve = irreps.delta_on_irrep

        def counted(w, p):
            calls.append(tuple(p))
            return solve(w, p)

        monkeypatch.setattr(irreps, "delta_on_irrep", counted)
        code, _ = run_cli(capsys, ["compare", "--graph", "path:5"])
        assert code == 0
        assert sorted(calls) == sorted(irreps.partitions(5))

    def test_cycles_with_all_routes(self, capsys):
        code, out = run_cli(
            capsys,
            ["cycles", "--graph", "complete:3", "--k", "2", "--t", "0.5",
             "--samples", "500", "--seed", "7"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectral"] == pytest.approx(payload["brute"], abs=1e-8)
        assert abs(payload["mc"] - payload["spectral"]) < 5 * payload["stderr"]
        check_against_schema(payload, "cycles")

    def test_cycles_without_mc_or_brute(self, capsys):
        code, out = run_cli(
            capsys, ["cycles", "--graph", "complete:6", "--k", "2", "--t", "0.1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mc"] is None
        assert payload["brute"] is None  # n = 6 is over the exact cap
        check_against_schema(payload, "cycles")

    def test_large_cycles(self, capsys):
        code, out = run_cli(
            capsys,
            ["large-cycles", "--graph", "complete:4", "--t", "0.3", "--samples", "300"],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["estimate"] <= 1.0
        check_against_schema(payload, "large-cycles")

    def test_qhf(self, capsys):
        code, out = run_cli(
            capsys,
            ["qhf", "--graph", "complete:3", "--t", "0.2", "--samples", "400"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["z"] >= 2.0
        check_against_schema(payload, "qhf")


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argvs = [
            ["mix", "--graph", "hamming2:2"],
            ["compare", "--graph", "star:4"],
            ["cycles", "--graph", "complete:4", "--k", "2", "--t", "0.4",
             "--samples", "300", "--seed", "3"],
            ["qhf", "--graph", "complete:3", "--t", "0.3", "--samples", "200",
             "--seed", "5"],
        ]
        for argv in argvs:
            _, first = run_cli(capsys, argv)
            _, second = run_cli(capsys, argv)
            assert first == second, argv

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout = run_cli(
            capsys, ["mix", "--graph", "complete:3", "--out", str(out)]
        )
        assert code == 0
        assert stdout == ""
        _, direct = run_cli(capsys, ["mix", "--graph", "complete:3"])
        assert out.read_text() == direct

    def test_compare_csv(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _ = run_cli(
            capsys, ["compare", "--graph", "path:3", "--csv", str(path)]
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "partition,dim,lambda_complete,lambda_min,ratio"
        assert lines[1].startswith("3,1,0,")
        assert len(lines) == 4


class TestErrorPaths:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cycles", "--graph", "complete:3", "--k", "2"])
        assert excinfo.value.code == 2

    def test_bad_graph_family(self, capsys):
        code, _ = run_cli(capsys, ["mix", "--graph", "nosuch:3"])
        assert code == 2

    def test_bad_tol(self, capsys):
        code, _ = run_cli(capsys, ["octopus", "--graph", "star:4", "--tol", "-1"])
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code, _ = run_cli(capsys, ["compare", "--graph", "complete:11"])
        assert code == 2

    def test_disconnected_mix(self, capsys, tmp_path):
        path = tmp_path / "disc.w"
        dump_weight_file(WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0}), path)
        code, out = run_cli(capsys, ["mix", "--graph", f"file:{path}"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DisconnectedError"

    def test_graph_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "k3.w"
        dump_weight_file(
            WeightFunction(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}), path
        )
        code, out = run_cli(capsys, ["mix", "--graph", f"file:{path}"])
        assert code == 0
        assert json.loads(out)["lmix"] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cycles", "--graph", "complete:3", "--k", "2", "--t", "nan"], "--t must be finite"),
            (["qhf", "--graph", "complete:3", "--t", "inf"], "--t must be finite"),
            (["octopus", "--graph", "star:4", "--tol", "nan"], "--tol must be finite"),
            (["qhf", "--graph", "complete:3", "--t", "0.1", "--samples", "10",
              "--seed", "18446744073709551616"], "--seed must be in"),
            (["mix", "--graph", "file:{tmp}/missing.w"], "cannot read weight file"),
            (["octopus", "--graph", "file:{tmp}/nan.w"], "non-finite weight"),
            (["mix", "--graph", "file:{tmp}/nan.w"], "non-finite weight"),
            (["mix", "--graph", "file:{tmp}/inf.w"], "non-finite weight"),
            (["cycles", "--graph", "complete:4", "--k", "2", "--t", "1",
              "--samples", "100000000000"], "Monte Carlo capped at"),
            (["large-cycles", "--graph", "complete:4", "--t", "1e12", "--samples", "1"],
             "exceeds the Monte Carlo cap"),
            (["mix", "--graph", "file:{tmp}/extreme.w"], "weight ratios are too extreme"),
            (["compare", "--graph", "file:{tmp}/extreme.w"], "weight ratios are too extreme"),
            (["mix", "--graph", "hypercube:40"], "graphs are capped at"),
            (["mix", "--graph", "regular-tree:3,40"], "graphs are capped at"),
            (["mix", "--graph", "complete:100000"], "graphs are capped at"),
            (["mix", "--graph", "hamming2:1000"], "graphs are capped at"),
            (["mix", "--graph", "file:{tmp}/huge.w"], "graphs are capped at"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, tmp_path, argv, message):
        (tmp_path / "nan.w").write_text("3 2\n0 1 nan\n1 2 1.0\n")
        (tmp_path / "inf.w").write_text("3 2\n0 1 inf\n1 2 1.0\n")
        (tmp_path / "extreme.w").write_text("3 2\n0 1 1e-300\n1 2 1e300\n")
        (tmp_path / "huge.w").write_text("1000000000 0\n")
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_degenerate_weights_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.w"
        path.write_text("3 0\n")
        code = main(["octopus", "--graph", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "at least one vertex with an edge" in captured.err

    def test_run_config_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(command="mix", graph="complete:3", tol=0.0)
        with pytest.raises(ParameterError):
            RunConfig(command="qhf", graph="complete:3", seed=-1)
        with pytest.raises(ParameterError):
            RunConfig(command="qhf", graph="complete:3", samples=0)


class TestSuitePlumbing:
    def test_check_registry(self):
        assert tuple(ALL_CHECKS) == EXPECTED_CHECKS

    def test_subset_report_matches_schema(self):
        report = run_suite(names=("mixing_numbers", "probability_bounds"))
        payload = _suite_payload(report)
        check_against_schema(payload, "suite")
        assert payload["passed"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "mixing_numbers",
            "probability_bounds",
        ]

    def test_subset_deterministic_modulo_timings(self):
        a = _suite_payload(run_suite(names=("spectrum_assembly",)))
        b = _suite_payload(run_suite(names=("spectrum_assembly",)))
        a.pop("timings")
        b.pop("timings")
        assert render_json(a) == render_json(b)

    def test_unknown_check_name(self):
        with pytest.raises(ParameterError):
            run_suite(names=("nonexistent",))

    def test_unknown_level(self):
        with pytest.raises(ParameterError):
            SuiteConfig.for_level("galactic")

    def test_checks_run_in_the_calling_thread(self, monkeypatch):
        names = ("mixing_numbers", "probability_bounds")
        threads = []

        def recorded(check):
            def run(config):
                threads.append(threading.current_thread())
                return check(config)
            return run

        for name in names:
            monkeypatch.setitem(acceptance.ALL_CHECKS, name, recorded(ALL_CHECKS[name]))
        start = time.perf_counter()
        report = run_suite(names=names)
        wall = time.perf_counter() - start
        assert threads == [threading.current_thread()] * len(names)
        # each timing is rounded to the millisecond
        assert sum(report.timings.values()) <= wall + 0.5e-3 * len(names)

    def test_schema_for_unknown_command(self):
        with pytest.raises(ParameterError):
            schema_for("nonsense")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "interchange", "mix", "--graph", "complete:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lmix"] == 2
