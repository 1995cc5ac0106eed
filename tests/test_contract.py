"""The command line's error contract, searched by a derandomized property test.

Each case is a subcommand with its flags at edge values, on a family spec or a
small random weight file.  Whatever the input, `interchange` must end in exit 0
or 1 with a document its shipped schema accepts (or, at exit 1, the error
document of a DisconnectedError), or in exit 2 with one `error:` line on stderr
and nothing on stdout.  It must never end in a traceback or raise a warning.
Work is capped so that the search takes a few seconds: weight files of at
most 7 vertices or of 11 (past the reach of the irreducible blocks), at most
200 samples, no Monte Carlo run whose expected event count is large but under
the engine's cap, and a suite of the one cheapest check.

Every run tries the same 400 cases.  A longer search sets CONTRACT_SEED to
draw random cases from that seed instead, CONTRACT_EXAMPLES of them (400 if
unset); a case it breaks becomes a fixed example below.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from interchange import acceptance, cli
from interchange.cycles import MC_MAX_EVENTS
from interchange.errors import InterchangeError
from interchange.graphs import parse_graph_spec
from oracles import schema_for

WEIGHTS = [0.0, 1.0, 2.0, 0.5, 1e-9, 1e-7, 1e-20, 1e-200, 1e-300, 2.2e-308, 1e-320, 5e-324,
           1e5, 1e150, 4.9e149, 1e308]
# each flag's values as (ordinary, edge): the edge values are refused, and
# None leaves the flag off
TIMES = (["0", "-0.0", "5e-324", "1e-9", "0.3", "1", "25", "1e17", "1e308"], ["inf", "nan", "-1"])
KS = (["1", "2", "3", "7"], ["0", "-1", "8", "18446744073709551616", "1.5"])
SAMPLES = (["1", "2", "200"], ["0", "-1", "18446744073709551616", "1.5"])
SEEDS = ([None, "0", "1", "18446744073709551615"], ["18446744073709551616", "-1", "1.5"])
TOLS = ([None, "1e-9", "5e-324", "1e308"], ["0", "-1", "nan", "inf"])
CSVS = ([None, "{tmp}/rows.csv"], ["{tmp}/missing/rows.csv", "{tmp}"])
LEVELS = ([None, "desk", "extended"], ["galactic"])
OUTS = ([None, "{tmp}/report.json"], ["{tmp}/missing/report.json", "{tmp}"])
# path:11, star:11 and path:13 lie past the reach of the irreducible blocks
SPECS = (["complete:2", "complete:5", "cycle:6", "path:7", "star:6", "hypercube:2",
          "hamming2:2", "regular-tree:3,1", "complete:1", "path:11", "star:11", "path:13"],
         ["complete:0", "path:-1", "complete:1.5", "nosuch:3", "hypercube:40"])
# expected swap events past which a Monte Carlo case is skipped, unless the
# engine's own cap refuses it before drawing
LONG_RUN = 2e4
WEIGHT_FILE = "file:{tmp}/w.txt"
SUBNORMAL_FILES = [
    ("mix", "3 2\n1 2 0.5\n0 2 5e-324\n"),
    ("compare", "4 4\n0 3 1e-320\n1 2 1e-320\n0 2 2\n1 3 1e-320\n"),
    # pi(0) = 5e-311 is subnormal, every transition probability is at least 5e-301
    ("mix", "4 3\n0 1 1e-300\n1 2 1e-290\n2 3 1e10\n"),
]
STIFF_FILE = "4 3\n0 1 1\n1 2 1\n2 3 1e-300\n"
SEARCH_SEED = os.environ.get("CONTRACT_SEED")


@st.composite
def weight_files(draw) -> str:
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 11]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    lines = [f"{i} {j} {draw(st.sampled_from(WEIGHTS))!r}" for i, j in chosen]
    return "\n".join([f"{n} {len(chosen)}", *lines]) + "\n"


def values(ordinary: list, edge: list) -> st.SearchStrategy:
    """An edge value one draw in four, so that most cases reach the numerics."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(edge if i == 0 else ordinary))


@st.composite
def cases(draw) -> tuple[list[str], str | None]:
    """An argv, with {tmp} for a scratch directory, and the weight file it reads."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    flags = cli._SUBCOMMANDS[command].flags
    ordinary_samples, edge_samples = SAMPLES
    if command == "cycles":  # the other Monte Carlo commands default to 10^5 samples
        ordinary_samples = [None, *ordinary_samples]
    choices = {"t": TIMES, "k": KS, "samples": (ordinary_samples, edge_samples),
               "seed": SEEDS, "tol": TOLS, "csv": CSVS, "level": LEVELS, "out": OUTS}
    argv, body = [command], None
    if "graph" in flags:
        body = draw(st.one_of(st.none(), weight_files()))
        argv += ["--graph", WEIGHT_FILE if body else draw(values(*SPECS))]
    # the suite's one check keeps no table for --csv
    for flag in (f for f in (*flags, "out") if f != "graph" and (command, f) != ("suite", "csv")):
        value = draw(values(*choices[flag]))
        if value is not None:
            argv += [f"--{flag}", value]
    return argv, body


def _expected_events(argv: list[str]) -> float:
    """Expected swap events of the case's Monte Carlo run, 0 where none is drawn."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    try:
        samples, t = int(flags["--samples"]), float(flags["--t"])
        w = parse_graph_spec(flags["--graph"])
    except (KeyError, ValueError, InterchangeError):
        return 0.0
    if samples < 1 or not math.isfinite(t) or t <= 0:
        return 0.0
    return samples * float(w.weights.sum()) * t


def _run(argv: list[str]) -> tuple[int, str, str, bool]:
    """main(argv) in process with every warning an error.

    Returns the status, stdout, stderr and whether argparse refused the flags.
    """
    out, err = io.StringIO(), io.StringIO()
    # the suite runs its cheapest check alone; test_acceptance runs them all
    cheapest = {"mixing_numbers": acceptance.ALL_CHECKS["mixing_numbers"]}
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), mock.patch.object(acceptance, "ALL_CHECKS", cheapest):
        warnings.simplefilter("error")
        try:
            return cli.main(argv), out.getvalue(), err.getvalue(), False
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), True


@settings(max_examples=int(os.environ.get("CONTRACT_EXAMPLES", "400")),
          derandomize=SEARCH_SEED is None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@(seed(int(SEARCH_SEED)) if SEARCH_SEED else lambda test: test)
@given(case=cases())
@example(case=(["mix", "--graph", WEIGHT_FILE], SUBNORMAL_FILES[0][1]))
@example(case=(["compare", "--graph", WEIGHT_FILE], SUBNORMAL_FILES[1][1]))
@example(case=(["mix", "--graph", WEIGHT_FILE], SUBNORMAL_FILES[2][1]))
@example(case=(["cycles", "--graph", WEIGHT_FILE, "--k", "2", "--t", "1e17"], STIFF_FILE))
def test_every_argv_keeps_the_error_contract(case):
    template, body = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.format(tmp=tmp) for arg in template]
        if body is not None:
            Path(tmp, "w.txt").write_text(body)
        assume(not LONG_RUN < _expected_events(argv) <= MC_MAX_EVENTS)
        code, out, err, by_argparse = _run(argv)
        assert code in (0, 1, 2), code
        if code == 2:
            error_lines = [line for line in err.splitlines() if "error: " in line]
            assert out == "" and len(error_lines) == 1, err
            # argparse prints its usage above its error line
            assert by_argparse or err == f"{error_lines[0]}\n" and err.startswith("error: "), err
            return
        assert not by_argparse and err == ""
        if "--out" in argv:
            assert out == ""
            out = Path(argv[argv.index("--out") + 1]).read_text()
        payload = json.loads(out)
    if code == 1 and "error" in payload:
        assert set(payload) == {"error"} and payload["error"]["type"] == "DisconnectedError"
        return
    jsonschema.validate(payload, schema_for(template[0]))

