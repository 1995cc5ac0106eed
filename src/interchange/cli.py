"""Command-line front end.

Every subcommand emits a single JSON document (sorted keys, two-space
indent), either to stdout or to --out.  The document is the record the
library returns, rendered by its fields (a dataclass) or by `_asdict` (a
NamedTuple), plus "graph" and "n" for every subcommand that takes --graph.
Identical configurations produce byte-identical documents on one
numpy/OpenBLAS build, CPU kernel and BLAS thread count, except for the suite
report's "timings" section, which records wall-clock seconds and is
documented as non-deterministic.  Across kernels and thread counts the keys
and non-float values stay the same, and every float agrees within
1e-12 * max(1, |value|).  Schemas for all eight documents ship under
interchange/schemas/.  A --csv table is written from the same rows the JSON
carries: one column per field.

Each subcommand is declared once, in `_SUBCOMMANDS`, with its handler,
flags and help.  Handlers import what they run when they run, and refuse
before they import or compute: only mix, compare and suite load `chain`;
large-cycles and qhf, which draw by Monte Carlo alone, load neither `irreps`
nor `group_algebra`; octopus and verify-doubling import `group_algebra` after
their irreducible-block reach check; and cycles runs its Monte Carlo
estimate, whose argument and cap checks come first, before its exact routes.

Exit status: 0 on success, 1 when a verified property fails or the requested
quantity does not exist (for example mixing numbers of a disconnected
graph), 2 for unusable flags or parameters, size caps, degenerate weights
(for example a graph with no edges), and output paths that cannot be
written.
"""

import argparse
import dataclasses
import errno
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CapError, DegenerateWeightError, InterchangeError, ParameterError
from .graphs import MAX_SEED, PSD_TOL, WeightFunction, check_irrep_reach, parse_graph_spec

_USAGE_ERRORS = (ParameterError, CapError, DegenerateWeightError)


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation."""

    command: str
    graph: str | None = None
    t: float | None = None
    k: int | None = None
    samples: int | None = None
    seed: int = 0
    tol: float = PSD_TOL
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


def _fields(record):
    """A dataclass as a dict of its fields, a NamedTuple by `_asdict`, else as is."""
    if dataclasses.is_dataclass(record):
        return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    if isinstance(record, tuple) and hasattr(record, "_asdict"):
        return record._asdict()
    return record


def _jsonable(value):
    value = _fields(value)
    if isinstance(value, dict):
        return {str(key): _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def render_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path: str | None) -> None:
    """Refuse, before any work, a path that is a directory or lies in a missing one."""
    if path is None:
        return
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        reason = errno.ENOENT
    else:
        return
    raise ParameterError(f"cannot write {path}: {os.strerror(reason)}")


def _emit(payload, out: str | None) -> None:
    text = render_json(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, tuple):  # a partition
        return "+".join(str(part) for part in value)
    return value


def _write_csv(path: str, rows: Sequence) -> None:
    """One line per row record under a header of its keys."""
    import csv

    records = [_fields(row) for row in rows]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(records[0])
    writer.writerows([_csv_cell(v) for v in record.values()] for record in records)
    _write_text(path, buffer.getvalue())


class _Subcommand(NamedTuple):
    run: Callable[[WeightFunction | None, RunConfig], tuple[object, bool]]
    flags: tuple[str, ...]
    help: str


# argparse destinations are RunConfig fields, whose defaults stand for the
# flags left off; --out goes on every subcommand, --seed on those that draw
# random numbers, and a subcommand with --graph gets the parsed WeightFunction
_FLAGS = {
    "graph": {"required": True, "help": "family:params (e.g. complete:5) or file:path"},
    "t": {"type": float, "required": True, "help": "time, >= 0"},
    "k": {"type": int, "required": True, "help": "cycle length"},
    "samples": {"type": int, "help": "Monte Carlo trajectory count"},
    "tol": {"type": float,
            "help": "PSD tolerance, relative to the largest regular-representation entry"},
    "csv": {"help": "also write the table as CSV"},
    "level": {"choices": ["desk", "extended"]},
    "seed": {"type": int, "help": "master seed"},
    "out": {"help": "write the JSON report here"},
}
_EVERY_SUBCOMMAND = ("out",)


def _mix(w: WeightFunction, config: RunConfig):
    from .chain import mixing_report

    return mixing_report(w), True


def _octopus(w: WeightFunction, config: RunConfig):
    # edges() runs in (i, j) order, so each hub lists its arms by neighbour
    arms: list[list[float]] = [[] for _ in range(w.n)]
    for (i, j), weight in w.edges():
        arms[i].append(weight)
        arms[j].append(weight)
    shapes = [tuple(hub_arms) for hub_arms in arms]
    # each hub's gap has the hub and its neighbours as its support
    check_irrep_reach(max(map(len, shapes)) + 1)
    from .group_algebra import is_psd, octopus_gap

    # the gap lives on the hub and its neighbours: hub 0, arms 1 .. deg, so
    # hubs with equal arm tuples share one gap, decided once
    verdicts = {shape: is_psd(octopus_gap(len(shape) + 1, 0, shape), tol=config.tol)
                for shape in dict.fromkeys(shapes) if shape}
    hubs = [{"hub": hub, **verdicts[shape]._asdict()} for hub, shape in enumerate(shapes) if shape]
    if not hubs:
        raise DegenerateWeightError("octopus needs at least one vertex with an edge")
    passed = all(entry["psd"] for entry in hubs)
    return {"tol": config.tol, "hubs": hubs, "passed": passed}, passed


def _verify_doubling(w: WeightFunction, config: RunConfig):
    # row i of the gap has off-diagonal sum 2 eps w_i + u2_ii, so its support
    # is every vertex of positive weight
    check_irrep_reach(int(np.count_nonzero(w.vertex_weights)))
    from .group_algebra import doubling_gap, is_psd, lift_lazy

    u = lift_lazy(w)
    verdict = is_psd(doubling_gap(u), tol=config.tol)
    payload = {"tol": config.tol, "epsilon": u.epsilon, **verdict._asdict(), "passed": verdict.psd}
    return payload, verdict.psd


def _compare(w: WeightFunction, config: RunConfig):
    from .irreps import comparison_constant

    report = comparison_constant(w)
    if config.csv:
        _write_csv(config.csv, report.rows)
    aldous = report.aldous
    payload = {
        **_fields(report),
        "aldous": aldous.holds,
        "aldous_margin": aldous.margin if math.isfinite(aldous.margin) else "inf",
        "aldous_worst_partition": aldous.worst_partition,
        "spectral_gap": aldous.spectral_gap,
    }
    return payload, aldous.holds


def _cycles(w: WeightFunction, config: RunConfig):
    from .cycles import exact_cycles_by_k, expected_cycles_by_k, expected_cycles_mc

    k, ks = config.k, (config.k,)
    # the Monte Carlo run checks its arguments and caps before any exact work
    mc = stderr = None
    if config.samples is not None:
        mc, stderr = expected_cycles_mc(w, ks, config.t, config.samples, config.seed)[k]
    # each exact route decides its own reach: one that refuses reads null
    answers, refusals = [], []
    for route in (expected_cycles_by_k, exact_cycles_by_k):
        try:
            answers.append(route(w, ks, config.t)[k])
        except CapError as exc:
            answers.append(None)
            refusals.append(exc)
    spectral, brute = answers
    if config.samples is None and len(refusals) == len(answers):
        raise CapError(f"{refusals[0]}; give --samples for a Monte Carlo estimate")
    payload = {"k": k, "t": config.t, "spectral": spectral, "mc": mc, "stderr": stderr,
               "brute": brute, "samples": config.samples, "seed": config.seed}
    return payload, True


def _large_cycles(w: WeightFunction, config: RunConfig):
    from .cycles import MC_DEFAULT_SAMPLES, large_cycle_probability

    samples = config.samples if config.samples is not None else MC_DEFAULT_SAMPLES
    estimate, stderr = large_cycle_probability(w, config.t, samples, config.seed)
    payload = {"t": config.t, "samples": samples, "seed": config.seed, "estimate": estimate,
               "stderr": stderr}
    return payload, True


def _qhf(w: WeightFunction, config: RunConfig):
    from .cycles import MC_DEFAULT_SAMPLES
    from .qhf import qhf_mc

    samples = config.samples if config.samples is not None else MC_DEFAULT_SAMPLES
    return qhf_mc(w, config.t, samples, config.seed), True


def _suite(w: None, config: RunConfig):
    from .acceptance import run_suite

    report = run_suite(level=config.level, seed=config.seed)
    if config.csv:
        constants = next(c for c in report.checks if c.name == "comparison_constants")
        _write_csv(config.csv, constants.measured["table"])
    return report, report.passed


_SUBCOMMANDS = {
    "mix": _Subcommand(_mix, ("graph",), "lazy chain mixing numbers and the delta factor"),
    "octopus": _Subcommand(
        _octopus, ("graph", "tol"), "verify the octopus inequality hub by hub"),
    "verify-doubling": _Subcommand(
        _verify_doubling, ("graph", "tol"), "verify the lifted doubling inequality"),
    "compare": _Subcommand(
        _compare, ("graph", "csv"), "comparison constant a* and per-partition spectra"),
    "cycles": _Subcommand(
        _cycles, ("graph", "t", "k", "samples", "seed"),
        "expected k-cycle count by spectral, exact, and MC routes"),
    "large-cycles": _Subcommand(
        _large_cycles, ("graph", "t", "samples", "seed"),
        "probability of a cycle longer than n/2"),
    "qhf": _Subcommand(
        _qhf, ("graph", "t", "samples", "seed"),
        "ferromagnet partition function and magnetization"),
    "suite": _Subcommand(_suite, ("csv", "level", "seed"), "run the acceptance suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interchange",
        description="Interchange process mixing, spectra, cycles, and ferromagnet estimates.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=subcommand.help, argument_default=argparse.SUPPRESS)
        for flag, options in _FLAGS.items():
            if flag in subcommand.flags + _EVERY_SUBCOMMAND:
                sub.add_argument(f"--{flag}", **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
        _check_writable(config.out)
        _check_writable(config.csv)
        w = None if config.graph is None else parse_graph_spec(config.graph)
        payload, passed = _SUBCOMMANDS[config.command].run(w, config)
        if w is not None:
            payload = {**_fields(payload), "graph": config.graph, "n": w.n}
        _emit(payload, config.out)
        return 0 if passed else 1
    except _USAGE_ERRORS as exc:
        failure = exc
    except InterchangeError as exc:
        try:
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, config.out)
            return 1
        except ParameterError as write_error:
            failure = write_error
    print(f"error: {failure}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
