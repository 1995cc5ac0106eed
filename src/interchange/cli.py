"""Command-line front end.

Every subcommand emits a single JSON document (sorted keys, two-space
indent), either to stdout or to --out.  Identical configurations produce
byte-identical documents, except for the suite report's "timings" section,
which records wall-clock seconds and is documented as non-deterministic.
Schemas for all eight documents ship under interchange/schemas/.

Each subcommand imports the modules it runs when it runs, so a command-line
call loads only what its subcommand needs.

Exit status: 0 on success, 1 when a verified property fails or the requested
quantity does not exist (for example mixing numbers of a disconnected
graph), 2 for unusable flags or parameters, size caps, and degenerate
weights (for example a graph with no edges).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    CapError,
    DegenerateWeightError,
    DisconnectedError,
    InterchangeError,
    ParameterError,
)
from .graphs import MAX_SEED, WeightFunction, parse_graph_spec

if TYPE_CHECKING:
    from .acceptance import SuiteReport

SUBCOMMANDS = (
    "mix",
    "octopus",
    "verify-doubling",
    "compare",
    "cycles",
    "large-cycles",
    "qhf",
    "suite",
)

_DEFAULT_SAMPLES = 100_000
_DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation."""

    command: str
    graph: str | None = None
    t: float | None = None
    k: int | None = None
    samples: int | None = None
    seed: int = 0
    tol: float = _DEFAULT_TOL
    csv: str | None = None
    out: str | None = None
    level: str = "desk"

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"--tol must be finite and > 0, got {self.tol}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ParameterError(f"--seed must be in [0, 2**64 - 1], got {self.seed}")
        if self.samples is not None and self.samples < 1:
            raise ParameterError(f"--samples must be >= 1, got {self.samples}")
        if self.t is not None and not (math.isfinite(self.t) and self.t >= 0):
            raise ParameterError(f"--t must be finite and >= 0, got {self.t}")

    def weights(self) -> WeightFunction:
        assert self.graph is not None
        return parse_graph_spec(self.graph)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(key): _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def render_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(payload: dict, out: str | None) -> None:
    text = render_json(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _partition_text(p) -> str:
    return "+".join(str(part) for part in p)


def schema_for(command: str) -> dict:
    """The JSON schema shipped for a subcommand's report."""
    if command not in SUBCOMMANDS:
        raise ParameterError(f"unknown subcommand {command!r}")
    from importlib import resources

    path = resources.files("interchange").joinpath("schemas", f"{command}.schema.json")
    return json.loads(path.read_text())


def _cmd_mix(config: RunConfig) -> tuple[dict, bool]:
    from .chain import mixing_report

    w = config.weights()
    report = mixing_report(w)
    if not math.isfinite(report.lmix):
        raise DisconnectedError(
            "mixing numbers are infinite on a disconnected weight function"
        )
    payload = {
        "graph": config.graph,
        "n": w.n,
        "lmix": report.lmix,
        "mix": report.mix,
        "delta": report.delta,
        "epsilons": list(report.epsilons),
        "theorem_bound": report.theorem_bound,
        "clause_bounds": dict(report.clause_bounds._asdict()),
    }
    return payload, True


def _cmd_octopus(config: RunConfig) -> tuple[dict, bool]:
    from .group_algebra import octopus_check

    w = config.weights()
    dense = w.dense()
    hubs = []
    for hub, row in enumerate(dense):
        # the gap lives on the hub and its neighbours: hub 0, arms 1 .. deg
        arms = row[row > 0]
        if not arms.size:
            continue
        verdict = octopus_check(len(arms) + 1, 0, arms, tol=config.tol)
        hubs.append(
            {"hub": hub, "psd": verdict.psd, "min_eigenvalue": verdict.min_eigenvalue}
        )
    if not hubs:
        raise DegenerateWeightError("octopus needs at least one vertex with an edge")
    passed = all(entry["psd"] for entry in hubs)
    payload = {
        "graph": config.graph,
        "n": w.n,
        "tol": config.tol,
        "hubs": hubs,
        "passed": passed,
    }
    return payload, passed


def _cmd_verify_doubling(config: RunConfig) -> tuple[dict, bool]:
    from .chain import lift_lazy
    from .group_algebra import doubling_inequality_check

    w = config.weights()
    u = lift_lazy(w)
    verdict = doubling_inequality_check(u, tol=config.tol)
    payload = {
        "graph": config.graph,
        "n": w.n,
        "tol": config.tol,
        "epsilon": u.epsilon,
        "psd": verdict.psd,
        "min_eigenvalue": verdict.min_eigenvalue,
        "passed": verdict.psd,
    }
    return payload, verdict.psd


def _cmd_compare(config: RunConfig) -> tuple[dict, bool]:
    from .irreps import comparison_constant

    w = config.weights()
    report = comparison_constant(w)
    aldous = report.aldous
    rows = [
        {
            "partition": list(row.partition),
            "dim": row.dim,
            "lambda_complete": row.lambda_complete,
            "lambda_min": row.lambda_min,
            "ratio": row.ratio,
        }
        for row in report.rows
    ]
    payload = {
        "graph": config.graph,
        "n": w.n,
        "a_star": report.a_star,
        "argmin_partition": list(report.argmin_partition) if report.argmin_partition else None,
        "aldous": aldous.holds,
        "aldous_margin": aldous.margin if math.isfinite(aldous.margin) else "inf",
        "aldous_worst_partition": list(aldous.worst_partition) if aldous.worst_partition else None,
        "spectral_gap": aldous.spectral_gap,
        "theorem_bound": report.theorem_bound,
        "empirical_c": report.empirical_c,
        "rows": rows,
    }
    if config.csv:
        _write_csv(
            config.csv,
            ["partition", "dim", "lambda_complete", "lambda_min", "ratio"],
            [
                [
                    _partition_text(row["partition"]),
                    row["dim"],
                    row["lambda_complete"],
                    row["lambda_min"],
                    "" if row["ratio"] is None else row["ratio"],
                ]
                for row in rows
            ],
        )
    return payload, aldous.holds


def _cmd_cycles(config: RunConfig) -> tuple[dict, bool]:
    from .cycles import exact_cycles_bruteforce, expected_cycles_mc, expected_cycles_spectral
    from .group_algebra import EXACT_SEMIGROUP_MAX_N

    w = config.weights()
    if config.k is None or config.t is None:
        raise ParameterError("cycles needs --k and --t")
    spectral = expected_cycles_spectral(w, config.k, config.t)
    mc = stderr = None
    if config.samples is not None:
        mc, stderr = expected_cycles_mc(w, config.k, config.t, config.samples, config.seed)
    brute = None
    if w.n <= EXACT_SEMIGROUP_MAX_N:
        brute = exact_cycles_bruteforce(w, config.k, config.t)
    payload = {
        "graph": config.graph,
        "n": w.n,
        "k": config.k,
        "t": config.t,
        "spectral": spectral,
        "mc": mc,
        "stderr": stderr,
        "brute": brute,
        "samples": config.samples,
        "seed": config.seed,
    }
    return payload, True


def _cmd_large_cycles(config: RunConfig) -> tuple[dict, bool]:
    from .cycles import large_cycle_probability

    w = config.weights()
    if config.t is None:
        raise ParameterError("large-cycles needs --t")
    samples = config.samples if config.samples is not None else _DEFAULT_SAMPLES
    estimate, stderr = large_cycle_probability(w, config.t, samples, config.seed)
    payload = {
        "graph": config.graph,
        "n": w.n,
        "t": config.t,
        "samples": samples,
        "seed": config.seed,
        "estimate": estimate,
        "stderr": stderr,
    }
    return payload, True


def _cmd_qhf(config: RunConfig) -> tuple[dict, bool]:
    from .qhf import qhf_mc

    w = config.weights()
    if config.t is None:
        raise ParameterError("qhf needs --t")
    samples = config.samples if config.samples is not None else _DEFAULT_SAMPLES
    estimate = qhf_mc(w, config.t, samples, config.seed)
    payload = {
        "graph": config.graph,
        "n": w.n,
        "t": estimate.t,
        "z": estimate.z,
        "z_stderr": estimate.z_stderr,
        "m_sq": estimate.m_sq,
        "m_sq_stderr": estimate.m_sq_stderr,
        "samples": estimate.samples,
        "seed": estimate.seed,
        "batches": estimate.batches,
    }
    return payload, True


def _suite_payload(report: "SuiteReport") -> dict:
    return {
        "level": report.level,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "verdict": c.verdict,
                "measured": c.measured,
                "threshold": c.threshold,
                "inputs": c.inputs,
            }
            for c in report.checks
        ],
        "timings": report.timings,
    }


def _cmd_suite(config: RunConfig) -> tuple[dict, bool]:
    from .acceptance import empirical_constant_table, run_suite

    report = run_suite(level=config.level, seed=config.seed)
    if config.csv:
        table = empirical_constant_table()
        _write_csv(
            config.csv,
            ["graph", "n", "a_star", "theorem_bound", "empirical_c", "a_star_times_m"],
            [
                [
                    row["graph"],
                    row["n"],
                    row["a_star"],
                    row["theorem_bound"],
                    row["empirical_c"],
                    "" if row["a_star_times_m"] is None else row["a_star_times_m"],
                ]
                for row in table
            ],
        )
    return _suite_payload(report), report.passed


_COMMANDS = {
    "mix": _cmd_mix,
    "octopus": _cmd_octopus,
    "verify-doubling": _cmd_verify_doubling,
    "compare": _cmd_compare,
    "cycles": _cmd_cycles,
    "large-cycles": _cmd_large_cycles,
    "qhf": _cmd_qhf,
    "suite": _cmd_suite,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interchange",
        description="Interchange process mixing, spectra, cycles, and ferromagnet estimates.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, graph: bool, t: bool = False, k: bool = False,
            samples: bool = False, tol: bool = False, csv_flag: bool = False,
            level: bool = False) -> None:
        sub = subparsers.add_parser(name, help=help_text)
        if graph:
            sub.add_argument("--graph", required=True,
                             help="family:params (e.g. complete:5) or file:path")
        if t:
            sub.add_argument("--t", type=float, required=True, help="time, >= 0")
        if k:
            sub.add_argument("--k", type=int, required=True, help="cycle length")
        if samples:
            sub.add_argument("--samples", type=int, default=None,
                             help="Monte Carlo trajectory count")
        if tol:
            sub.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                             help="PSD tolerance (relative to operator scale)")
        if csv_flag:
            sub.add_argument("--csv", default=None, help="also write the table as CSV")
        if level:
            sub.add_argument("--level", choices=["desk", "extended"], default="desk")
        sub.add_argument("--seed", type=int, default=0, help="master seed")
        sub.add_argument("--out", default=None, help="write the JSON report here")

    add("mix", "lazy chain mixing numbers and the delta factor", graph=True)
    add("octopus", "verify the octopus inequality hub by hub", graph=True, tol=True)
    add("verify-doubling", "verify the lifted doubling inequality", graph=True, tol=True)
    add("compare", "comparison constant a* and per-partition spectra", graph=True,
        csv_flag=True)
    add("cycles", "expected k-cycle count by spectral, exact, and MC routes",
        graph=True, t=True, k=True, samples=True)
    add("large-cycles", "probability of a cycle longer than n/2", graph=True, t=True,
        samples=True)
    add("qhf", "ferromagnet partition function and magnetization", graph=True, t=True,
        samples=True)
    add("suite", "run the acceptance suite", graph=False, csv_flag=True, level=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fields = {
        key: value
        for key, value in vars(args).items()
        if key in {"command", "graph", "t", "k", "samples", "seed", "tol", "csv",
                   "out", "level"}
    }
    try:
        config = RunConfig(**fields)
        payload, passed = _COMMANDS[config.command](config)
    except (ParameterError, CapError, DegenerateWeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterchangeError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              getattr(args, "out", None))
        return 1
    _emit(payload, config.out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
