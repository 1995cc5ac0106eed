import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import interchange
from interchange import acceptance, chain, cli, group_algebra, irreps
from interchange.acceptance import ALL_CHECKS, SuiteConfig, run_suite
from interchange.cli import RunConfig, main, render_json
from interchange.errors import ParameterError
from interchange.graphs import WeightFunction, parse_graph_spec
from oracles import child_env, dump_weight_file, schema_for

# a device every write to which fails, where the system has one
DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")

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

    @pytest.mark.parametrize(
        "graph, n", [("path:12", 12), ("cycle:40", 40), ("path:1024", 1024)]
    )
    def test_octopus_beyond_ten_vertices_on_small_supports(self, capsys, graph, n):
        # each hub's gap lives on the hub and its two neighbours
        code, out = run_cli(capsys, ["octopus", "--graph", graph])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert [entry["hub"] for entry in payload["hubs"]] == list(range(n))
        check_against_schema(payload, "octopus")

    def test_octopus_gaps_live_on_the_hub_star(self, capsys, monkeypatch):
        # a cycle hub has two neighbours, so no gap may span more than 3 points
        sizes = []
        decide = group_algebra.is_psd

        def counted(a, *args, **kwargs):
            sizes.append(a.n)
            return decide(a, *args, **kwargs)

        monkeypatch.setattr(group_algebra, "is_psd", counted)
        code, _ = run_cli(capsys, ["octopus", "--graph", "cycle:64"])
        assert code == 0
        assert len(sizes) == 64
        assert max(sizes) <= 3

    @pytest.mark.parametrize("graph", ["star:10", "path:1024", "file"])
    def test_octopus_arms_from_the_edge_list(self, capsys, monkeypatch, tmp_path, graph):
        # the same JSON, byte for byte, as listing each hub's arms off its row
        # of the dense weight matrix
        if graph == "file":
            # pairs out of order, either end first, hubs with arms on both sides
            (tmp_path / "w.txt").write_text(
                "7 10\n6 0 2.5\n0 1 0.75\n3 1 1.25\n1 5 3.0\n2 1 0.5\n"
                "4 2 1.75\n3 4 2.25\n5 6 0.3\n2 6 1.1\n0 3 0.9\n"
            )
            graph = f"file:{tmp_path / 'w.txt'}"

        def dense_rows(w, config):
            hubs = []
            for hub, row in enumerate(w.dense()):
                arms = row[row > 0]
                if arms.size:
                    verdict = group_algebra.is_psd(
                        group_algebra.octopus_gap(len(arms) + 1, 0, arms), tol=config.tol)
                    hubs.append({"hub": hub, **verdict._asdict()})
            passed = all(entry["psd"] for entry in hubs)
            return {"tol": config.tol, "hubs": hubs, "passed": passed}, passed

        argv = ["octopus", "--graph", graph]
        got = run_cli(capsys, argv)
        octopus = cli._SUBCOMMANDS["octopus"]
        monkeypatch.setitem(cli._SUBCOMMANDS, "octopus", octopus._replace(run=dense_rows))
        assert got == run_cli(capsys, argv)
        assert got[0] == 0

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
        sizes = []
        solve = np.linalg.eigvalsh

        def counted(block):
            sizes.append(len(block))
            return solve(block)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, _ = run_cli(capsys, ["compare", "--graph", "path:5"])
        assert code == 0
        # one solve per conjugate pair: [1^5], [2,1^3] and [2,2,1] are read
        # off [5], [4,1] and [3,2]; [3,1,1] is self-conjugate
        kept = [(5,), (4, 1), (3, 2), (3, 1, 1)]
        assert len(sizes) == 4
        assert sorted(sizes) == sorted(irreps.hook_dim(p) for p in kept) == [1, 4, 5, 6]

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

    def test_cycles_past_the_irrep_cap_by_monte_carlo(self, capsys):
        code, out = run_cli(
            capsys,
            ["cycles", "--graph", "path:11", "--k", "1", "--t", "1",
             "--samples", "1000", "--seed", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectral"] is None and payload["brute"] is None
        # each marble walks by the Laplacian's rates, so E alpha_1(t) = tr exp(-t L_w)
        dense = parse_graph_spec("path:11").dense()
        want = np.exp(-np.linalg.eigvalsh(np.diag(dense.sum(axis=1)) - dense)).sum()
        assert abs(payload["mc"] - want) <= 4 * payload["stderr"]
        check_against_schema(payload, "cycles")

    @pytest.mark.parametrize("t", ["1e17", "1e200"])
    def test_cycles_reports_each_exact_route_on_its_own(self, capsys, tmp_path, t):
        # rounding leaves the regular representation a negative eigenvalue
        # that t would blow up, so brute refuses; the spectral blocks hold
        # none.  Vertex 3 stays put and the others are uniform on S_3, so
        # E s_2 = 1/2
        path = tmp_path / "stiff.w"
        path.write_text("4 3\n0 1 1\n1 2 1\n2 3 1e-300\n")
        code, out = run_cli(capsys, ["cycles", "--graph", f"file:{path}", "--k", "2", "--t", t])
        assert code == 0
        payload = json.loads(out)
        assert payload["spectral"] == pytest.approx(0.5, rel=0.0, abs=1e-12)
        assert payload["brute"] is None and payload["mc"] is None
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

    @pytest.mark.parametrize("command", ["mix", "octopus", "verify-doubling", "compare"])
    def test_seed_only_where_random_numbers_are_drawn(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--graph", "complete:3", "--seed", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

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
            (["verify-doubling", "--graph", "file:{tmp}/big.w"], "exceeds the cap"),
            (["mix", "--graph", "file:{tmp}/big.w"], "exceeds the cap"),
            (["octopus", "--graph", "file:{tmp}/big2.w"], "exceeds the cap"),
            (["octopus", "--graph", "file:{tmp}/overflow.w"], "exceeds the cap"),
            (["octopus", "--graph", "star:11"], "irreducible blocks capped at 10 points, got 11"),
            # valid weights that mix too slowly for double precision
            (["mix", "--graph", "file:{tmp}/slow.w"], "rounding drifted the row sums of P^"),
            (["compare", "--graph", "file:{tmp}/slow.w"], "rounding drifted the row sums of P^"),
            (["mix", "--graph", "file:{tmp}/slower.w"], "no mixing condition holds by t = 2^60"),
            (["compare", "--graph", "file:{tmp}/slower.w"], "no mixing condition holds by t = 2^60"),
            (["cycles", "--graph", "path:11", "--k", "1", "--t", "1"],
             "irreducible blocks capped at 10 points, got 11; give --samples"),
            # a subnormal transition probability or stationary weight, whose
            # 1 / pi would overflow in the chi-distance certificates
            (["mix", "--graph", "file:{tmp}/subnormal.w"],
             "a transition probability on a weighted edge is below the normal float range"),
            (["compare", "--graph", "file:{tmp}/subnormal2.w"],
             "a transition probability on a weighted edge is below the normal float range"),
            (["mix", "--graph", "file:{tmp}/subnormal_pi.w"],
             "the stationary weight of vertex 0 is below the normal float range"),
            (["mix", "--graph", "file:{tmp}/one_vertex.w"], "need at least 2 vertices, got n=1"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, tmp_path, argv, message):
        (tmp_path / "nan.w").write_text("3 2\n0 1 nan\n1 2 1.0\n")
        (tmp_path / "inf.w").write_text("3 2\n0 1 inf\n1 2 1.0\n")
        (tmp_path / "extreme.w").write_text("3 2\n0 1 1e-300\n1 2 1e100\n")
        (tmp_path / "overflow.w").write_text("3 2\n0 1 1e-300\n1 2 1e300\n")
        (tmp_path / "huge.w").write_text("1000000000 0\n")
        (tmp_path / "big.w").write_text("3 2\n0 1 1e308\n1 2 1e308\n")
        (tmp_path / "big2.w").write_text("2 1\n0 1 1e308\n")
        (tmp_path / "slow.w").write_text("4 3\n0 1 1\n1 2 1e-7\n2 3 1\n")
        (tmp_path / "slower.w").write_text("4 3\n0 1 1\n1 2 1e-30\n2 3 1\n")
        (tmp_path / "subnormal.w").write_text("3 2\n1 2 0.5\n0 2 5e-324\n")
        (tmp_path / "subnormal2.w").write_text("4 4\n0 3 1e-320\n1 2 1e-320\n0 2 2\n1 3 1e-320\n")
        (tmp_path / "subnormal_pi.w").write_text("4 3\n0 1 1e-300\n1 2 1e-290\n2 3 1e10\n")
        (tmp_path / "one_vertex.w").write_text("1 0\n")
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, points",
        [
            (["compare", "--graph", "path:11"], 11),
            (["compare", "--graph", "path:13"], 13),
            (["compare", "--graph", "path:1024"], 1024),
            (["octopus", "--graph", "star:11"], 11),
            (["verify-doubling", "--graph", "path:11"], 11),
            (["cycles", "--graph", "path:11", "--k", "2", "--t", "1"], 11),
        ],
    )
    def test_every_spectral_route_names_one_reach(self, capsys, argv, points):
        # one reach, one message: only the count differs, and cycles adds the
        # Monte Carlo hint because its other route is refused too
        suffix = "; give --samples for a Monte Carlo estimate" if argv[0] == "cycles" else ""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: irreducible blocks capped at 10 points, got {points}{suffix}\n"

    @pytest.mark.parametrize(
        "argv",
        [["octopus", "--graph", "star:1024"], ["verify-doubling", "--graph", "path:1024"]],
        ids=["octopus", "verify-doubling"],
    )
    def test_psd_commands_refuse_before_building_a_gap(self, capsys, argv):
        # a gap on 1024 points and its copies take tens of MB, so each command
        # asks the irreducible blocks' reach with its largest support first
        main(argv)  # loads whatever the command imports
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: irreducible blocks capped at 10 points, got 1024\n"
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "body, message",
        [
            ("3 2\n0 1 1.0\n1 0 2.0\n", "duplicate pair (0, 1)"),
            ("3 2\n0 1 0.0\n1 0 2.0\n", "duplicate pair (0, 1)"),
            ("3 2\n1 0 2.0\n0 1 0\n", "duplicate pair (0, 1)"),
            ("3 2\n0 1 1.0\n1 2 -0.5\n", "negative weight -0.5 on pair (1, 2)"),
            ("3 2\n0 1 nan\n1 2 1.0\n", "non-finite weight nan on pair (0, 1)"),
            ("3 2\n0 1 1.0\n2 2 1.0\n", "self pair (2, 2) is not allowed"),
            ("3 2\n0 1 1.0\n1 3 1.0\n", "pair (1, 3) out of range for n=3"),
            ("3 1\n-1 1 1.0\n", "pair (-1, 1) out of range for n=3"),
            ("3 1\n0 99999999999999999999 1.0\n", "out of range for n=3"),
            ("3 2\n0 1 1e308\n1 2 1e308\n", "exceeds the cap"),
        ],
    )
    def test_malformed_weight_file_names_the_file(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.w"
        path.write_text(body)
        code = main(["mix", "--graph", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err and f"in {path}" in captured.err
        assert "Traceback" not in captured.err

    def test_degenerate_weights_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.w"
        path.write_text("3 0\n")
        code = main(["octopus", "--graph", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "at least one vertex with an edge" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mix", "--graph", "complete:3", "--out", "{tmp}/missing/report.json"],
            ["mix", "--graph", "complete:3", "--out", "{tmp}"],
            ["compare", "--graph", "path:3", "--csv", "{tmp}/missing/rows.csv"],
            ["compare", "--graph", "path:3", "--csv", "{tmp}"],
            # the error document of a DisconnectedError
            ["mix", "--graph", "file:{tmp}/disc.w", "--out", "{tmp}/missing/error.json"],
            # paths that pass the check before the work and fail when written
            pytest.param(["mix", "--graph", "complete:3", "--out", "/dev/full"], marks=DEV_FULL),
            pytest.param(["mix", "--graph", "file:{tmp}/disc.w", "--out", "/dev/full"],
                         marks=DEV_FULL),
        ],
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        dump_weight_file(WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0}), tmp_path / "disc.w")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        target = argv[-1]  # every case ends with its output path
        assert captured.err.startswith(f"error: cannot write {target}: ")
        if target == "/dev/full":
            assert captured.err == "error: cannot write /dev/full: No space left on device\n"
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--csv", "{tmp}/missing/t.csv"],
            ["mix", "--graph", "complete:3", "--out", "{tmp}"],
            ["compare", "--graph", "path:3", "--csv", "{tmp}"],
        ],
    )
    def test_output_path_checked_before_the_work(self, capsys, tmp_path, monkeypatch, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]

        def never(w, config):
            raise AssertionError("the handler ran although its output path is unusable")

        handler = cli._SUBCOMMANDS[argv[0]]._replace(run=never)
        monkeypatch.setitem(cli._SUBCOMMANDS, argv[0], handler)
        assert main(argv) == 2
        captured = capsys.readouterr()
        target = next(arg for arg in argv if arg.startswith(str(tmp_path)))
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert not (tmp_path / "missing").exists()

    def test_cycles_at_the_largest_time(self, capsys):
        code, out = run_cli(capsys, ["cycles", "--graph", "complete:4", "--k", "2", "--t", "1e308"])
        assert code == 0
        payload = json.loads(out)
        assert payload["spectral"] == 0.5
        assert payload["brute"] == pytest.approx(0.5, abs=1e-12)

    def test_qhf_at_the_float_limit(self, capsys):
        code, out = run_cli(
            capsys, ["qhf", "--graph", "complete:1023", "--t", "0", "--samples", "10"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["z"], payload["m_sq"]) == (2.0**1023, 1023.0)
        assert main(["qhf", "--graph", "complete:1024", "--t", "0", "--samples", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: partition function")

    @pytest.mark.parametrize(
        "body, min_vertex_weight, codes, message",
        [
            # (min_i w_i)^2 is below the float range, the bound 3.33e-171 is not
            ("2 1\n0 1 1e-170\n", 1e-170, (0, 0), None),
            # the bound is below the float range, or subnormal
            ("3 2\n0 1 1e-200\n1 2 1\n", None, (2, 2), "min_i w_i / w_tot = 5e-201"),
            ("3 2\n0 1 1e-160\n1 2 1\n", None, (2, 2), "min_i w_i / w_tot = 5e-161"),
            # the bound is 7.56e-192, and a* over it exceeds the float range
            ("3 2\n0 1 1e-20\n1 2 4.9e149\n", 1e-20, (0, 2), "exceeds the float range"),
        ],
        ids=["square-underflows", "bound-underflows", "bound-subnormal", "ratio-overflows"],
    )
    def test_theorem_bound_at_the_float_limits(
        self, capsys, tmp_path, body, min_vertex_weight, codes, message
    ):
        path = tmp_path / "w.txt"
        path.write_text(body)
        reports = {}
        for command, want in zip(("mix", "compare"), codes):
            code = main([command, "--graph", f"file:{path}"])
            captured = capsys.readouterr()
            assert code == want, (command, captured.err)
            if want == 0:
                reports[command] = json.loads(captured.out)
                continue
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert message in captured.err
        if "mix" in reports:
            report = reports["mix"]
            ratio = min_vertex_weight / parse_graph_spec(f"file:{path}").total_weight
            want_bound = report["delta"] / report["lmix"] * ratio * min_vertex_weight
            assert report["theorem_bound"] >= np.finfo(float).tiny
            assert report["theorem_bound"] == pytest.approx(want_bound, rel=1e-12, abs=0.0)
        if "compare" in reports:
            assert reports["compare"]["theorem_bound"] == reports["mix"]["theorem_bound"]
            assert math.isfinite(reports["compare"]["empirical_c"])

    def test_compare_on_tiny_weights_is_compare_on_unit_weights(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 1\n0 1 1e-170\n")
        code, out = run_cli(capsys, ["compare", "--graph", f"file:{path}"])
        assert code == 0
        _, unit = run_cli(capsys, ["compare", "--graph", "complete:2"])
        assert json.loads(unit)["empirical_c"] == 3.0
        assert json.loads(out)["empirical_c"] == pytest.approx(3.0, rel=0.0, abs=1e-12)

    def test_run_config_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(command="mix", graph="complete:3", tol=0.0)
        with pytest.raises(ParameterError):
            RunConfig(command="qhf", graph="complete:3", seed=-1)
        with pytest.raises(ParameterError):
            RunConfig(command="qhf", graph="complete:3", samples=0)

    def test_absent_flags_take_the_run_config_defaults(self):
        # the parsers suppress absent flags, so RunConfig alone holds defaults
        parser = cli._build_parser()
        args = vars(parser.parse_args(["octopus", "--graph", "star:5"]))
        assert args == {"command": "octopus", "graph": "star:5"}
        assert RunConfig(**args).tol == cli._DEFAULT_TOL == group_algebra.PSD_TOL
        suite = RunConfig(**vars(parser.parse_args(["suite"])))
        assert (suite.level, suite.seed, suite.csv, suite.out) == ("desk", 0, None, None)
        assert not any("default" in options for options in cli._FLAGS.values())


class TestSuitePlumbing:
    def test_check_registry(self):
        assert tuple(ALL_CHECKS) == EXPECTED_CHECKS

    def test_subset_report_matches_schema(self, monkeypatch):
        names = ("mixing_numbers", "probability_bounds")
        monkeypatch.setattr(acceptance, "ALL_CHECKS", {name: ALL_CHECKS[name] for name in names})
        report = run_suite()
        payload = json.loads(render_json(report))
        check_against_schema(payload, "suite")
        assert payload["passed"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "mixing_numbers",
            "probability_bounds",
        ]

    def test_subset_deterministic_modulo_timings(self, monkeypatch):
        name = "spectrum_assembly"
        monkeypatch.setattr(acceptance, "ALL_CHECKS", {name: ALL_CHECKS[name]})
        a = json.loads(render_json(run_suite()))
        b = json.loads(render_json(run_suite()))
        a.pop("timings")
        b.pop("timings")
        assert render_json(a) == render_json(b)

    def test_suite_csv_is_the_table_in_the_report(self, capsys, tmp_path, monkeypatch):
        name = "comparison_constants"
        monkeypatch.setattr(acceptance, "ALL_CHECKS", {name: ALL_CHECKS[name]})
        solved = []
        solve = acceptance.comparison_constant

        def counted(w):
            solved.append(w)
            return solve(w)

        monkeypatch.setattr(acceptance, "comparison_constant", counted)
        path = tmp_path / "table.csv"
        code, out = run_cli(capsys, ["suite", "--csv", str(path)])
        assert code == 0
        (check,) = json.loads(out)["checks"]
        table = check["measured"]["table"]
        with open(path, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["graph", "n", "a_star", "theorem_bound", "empirical_c",
                          "a_star_times_m"]
        assert all(set(row) == set(header) for row in table)
        assert rows == [
            ["" if row[key] is None else str(row[key]) for key in header] for row in table
        ]
        assert [row[-1] for row in rows if not row[0].startswith("hamming2:")] == [""] * 7
        for graph, w in acceptance.TABLE_GRAPHS:
            assert sum(s is w for s in solved) == 1, graph

    def test_unknown_level(self):
        with pytest.raises(ParameterError):
            SuiteConfig.for_level("galactic")
        with pytest.raises(ParameterError):
            SuiteConfig("galactic", 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "1", True, None])
    def test_seed_outside_the_suite_range(self, seed):
        # numpy would raise its own ValueError or TypeError, or take 2**64
        with pytest.raises(ParameterError, match="suite seed must be an int"):
            run_suite("desk", seed)

    def test_extended_level_fields(self):
        # pinned without running the extended suite; the level fixes the rest
        assert [f.name for f in dataclasses.fields(SuiteConfig)] == ["level", "seed"]
        extended = SuiteConfig.for_level("extended", 2**64 - 1)
        assert (extended.level, extended.seed, extended.mc_samples,
                extended.scalarity_max_n) == ("extended", 2**64 - 1, 1_000_000, 10)
        desk = SuiteConfig.for_level("desk")
        assert (desk.level, desk.seed, desk.mc_samples, desk.scalarity_max_n) == (
            "desk", 0, 100_000, 8)

    def test_checks_run_in_the_calling_thread(self, monkeypatch):
        names = ("mixing_numbers", "probability_bounds")
        threads = []

        def recorded(check):
            def run(config):
                threads.append(threading.current_thread())
                return check(config)
            return run

        monkeypatch.setattr(
            acceptance, "ALL_CHECKS", {name: recorded(ALL_CHECKS[name]) for name in names}
        )
        start = time.perf_counter()
        report = run_suite()
        wall = time.perf_counter() - start
        assert threads == [threading.current_thread()] * len(names)
        # each timing is rounded to the millisecond
        assert sum(report.timings.values()) <= wall + 0.5e-3 * len(names)

    def test_schema_for_unknown_command(self):
        with pytest.raises(ParameterError):
            schema_for("nonsense")


def readme_examples() -> list[list[str]]:
    """The argument lists of the README's Examples block, suite left out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]
    # test_acceptance runs the suite check by check
    return [argv for argv in argvs if argv[0] != "suite"]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_examples(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, argv)
    assert code == 0
    check_against_schema(json.loads(out), argv[0])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "interchange", "mix", "--graph", "complete:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lmix"] == 2


def assert_within_contract(got, want, where: str = "") -> None:
    """got matches want key for key and value for value, floats within
    1e-12 * max(1, |value|): the output contract across BLAS settings."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_within_contract(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (item, expected) in enumerate(zip(got, want)):
            assert_within_contract(item, expected, f"{where}[{index}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


# the last bits of a float move with the OpenBLAS kernel and thread count:
# compare path:10 by 4.5e-14 relative, and octopus star:10's min_eigenvalue of
# hub 0, which is rounding noise near zero, reads -1.07e-14 or -1.24e-14
@pytest.mark.parametrize(
    "argv", ["compare --graph path:10", "mix --graph path:300", "octopus --graph star:10"]
)
def test_json_agrees_across_blas_settings(argv):
    settings = [{}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_CORETYPE": "Sandybridge"}]
    reports = [
        json.loads(subprocess.run(
            [sys.executable, "-m", "interchange", *argv.split()],
            capture_output=True, text=True, check=True, env=child_env(**setting),
        ).stdout)
        for setting in settings
    ]
    for report in reports[1:]:
        assert_within_contract(report, reports[0])


def _loaded_after(code: str, package: str = "interchange") -> set[str]:
    """The modules of package a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(interchange.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = (
        "import json, sys; "
        f"print(json.dumps([m for m in sys.modules if m.startswith({package!r})]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


CLI_MODULES = {"interchange", "interchange.cli", "interchange.errors", "interchange.graphs"}


def test_cli_import_loads_no_subcommand_module():
    assert _loaded_after("import interchange.cli") == CLI_MODULES


# the modules each subcommand loads beyond the CLI's own: only the mixing
# routes (mix, compare's b(w) and the suite) load chain, a PSD check loads
# irreps only for a support of more than 5 points, and the Monte Carlo
# routes load no exact module
SUBCOMMAND_MODULES = {
    "mix --graph path:4": {"chain"},
    "octopus --graph star:5": {"group_algebra"},
    "verify-doubling --graph complete:5": {"group_algebra"},
    "compare --graph path:5": {"chain", "group_algebra", "irreps"},
    "cycles --graph path:6 --k 2 --t 1": {"cycles", "group_algebra", "irreps"},
    "large-cycles --graph path:6 --t 1 --samples 10": {"cycles"},
    "qhf --graph path:4 --t 1 --samples 10": {"cycles", "qhf"},
    "suite": {"acceptance", "chain", "cycles", "group_algebra", "irreps", "qhf"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES), ids=lambda c: c.split()[0])
def test_subcommand_loads_only_what_it_runs(command):
    # the suite runs with its checks cleared: what it loads is its imports
    setup = "import interchange.acceptance as a; a.ALL_CHECKS.clear()\n"
    loaded = _loaded_after(
        f"{setup if command == 'suite' else ''}"
        f"from interchange.cli import main; main({command.split()!r})"
    )
    assert loaded == CLI_MODULES | {f"interchange.{name}" for name in SUBCOMMAND_MODULES[command]}


# past the irreducible blocks' reach, which graphs holds, a command refuses or
# answers by Monte Carlo without loading irreps; cycles still loads
# group_algebra, whose brute-force route decides its own reach of 5 points
PAST_THE_BLOCKS_MODULES = {
    "cycles --graph path:11 --k 2 --t 1 --samples 10": {"cycles", "group_algebra"},
    "octopus --graph star:11": {"group_algebra"},
    "verify-doubling --graph path:11": {"group_algebra"},
}


@pytest.mark.parametrize("command", sorted(PAST_THE_BLOCKS_MODULES), ids=lambda c: c.split()[0])
def test_commands_past_the_blocks_leave_irreps_unloaded(command):
    loaded = _loaded_after(f"from interchange.cli import main; main({command.split()!r})")
    modules = PAST_THE_BLOCKS_MODULES[command]
    assert loaded == CLI_MODULES | {f"interchange.{name}" for name in modules}


def test_the_oracle_grid_loads_no_exact_module():
    loaded = _loaded_after(
        "from interchange.cycles import oracle_t_grid\n"
        "from interchange.graphs import path\n"
        "oracle_t_grid(path(11))"
    )
    assert not loaded & {"interchange.irreps", "interchange.group_algebra"}


def test_the_operator_modules_leave_chain_unloaded():
    # comparison_constant imports mixing_report when it runs, and the lifted
    # weights the doubling check reads live beside it in group_algebra
    loaded = _loaded_after("import interchange.group_algebra, interchange.irreps")
    assert "interchange.chain" not in loaded
    moved = ("LiftedWeight", "lift_lazy", "double_weight", "_MAX_LIFTED_MASS")
    assert all(hasattr(group_algebra, name) for name in moved)
    for name in (*moved, "tv_mix", "delta", "DeltaResult"):
        assert not hasattr(chain, name)


def test_every_subcommand_has_its_modules_pinned():
    assert {command.split()[0] for command in SUBCOMMAND_MODULES} == set(cli._SUBCOMMANDS)


def test_the_monte_carlo_layer_loads_no_exact_module():
    # cycles imports irreps and group_algebra only inside its exact routes
    assert _loaded_after("import interchange.cycles") == {
        "interchange", "interchange.cycles", "interchange.errors", "interchange.graphs",
    }


def test_spectral_cycles_leave_numpy_random_unloaded():
    # numpy loads numpy.random (about 6 MB) on first use; only the Monte
    # Carlo routes draw, so a spectral-only run does without it
    assert not _loaded_after("import interchange.cycles", "numpy.random")
    assert not _loaded_after(
        "from interchange.cli import main\n"
        "main(['cycles', '--graph', 'path:10', '--k', '2', '--t', '1'])",
        "numpy.random",
    )
    assert _loaded_after(
        "from interchange.cli import main\n"
        "main(['cycles', '--graph', 'path:10', '--k', '2', '--t', '1', '--samples', '1'])",
        "numpy.random",
    )
