"""Output checks: each job's output against its schema and an oracle.

Every check returns a list of problems; an empty list means the job's output
is correct.  Monte Carlo estimates are compared with an exact value at
5 standard errors.  A failure for some seed is a finding to report; the
benchmark never re-seeds or resizes a job to make it pass.
"""

import json
import math
from functools import lru_cache
from pathlib import Path

import jsonschema

from workloads import laplacian_gap

MC_SIGMAS = 5.0
GAP_TOL = 1e-9

# Integer lmix of each fixed graph the exact workload runs.
PINNED_LMIX = {"hypercube:10": 35, "path:128": 13580}


class Oracles:
    """Exact reference values, computed once per run and only when needed."""

    def __init__(self, root: Path):
        self.schemas = root / "src" / "interchange" / "schemas"

    @lru_cache(maxsize=None)
    def schema(self, command: str) -> dict:
        return json.loads((self.schemas / f"{command}.schema.json").read_text())

    @lru_cache(maxsize=None)
    def weights(self, spec: str):
        from interchange.graphs import parse_graph_spec

        return parse_graph_spec(spec)

    @lru_cache(maxsize=None)
    def cycle_partitions(self, n: int, k: int) -> list[tuple[int, ...]]:
        from interchange.cycles import cycle_coefficients

        return [p for p, _ in cycle_coefficients(n, k).terms]

    @lru_cache(maxsize=None)
    def cycles(self, graph: str, k: int, t: float) -> float:
        from interchange.cycles import expected_cycles_spectral

        return expected_cycles_spectral(self.weights(graph), k, t)

    @lru_cache(maxsize=None)
    def large_cycles(self, graph: str, t: float) -> float:
        # At most one cycle is longer than n/2, so P(some cycle > n/2) equals
        # the expected number of such cycles.
        n = self.weights(graph).n
        return sum(self.cycles(graph, k, t) for k in range(n // 2 + 1, n + 1))

    @lru_cache(maxsize=None)
    def qhf(self, graph: str, t: float) -> tuple[float, float]:
        from interchange.qhf import qhf_exact

        return qhf_exact(self.weights(graph), t)

    @lru_cache(maxsize=None)
    def gap(self, graph: str) -> float:
        return laplacian_gap(self.weights(graph).dense())


def _within(name: str, value: float, want: float, stderr: float) -> list[str]:
    if not stderr > 0 or abs(value - want) > MC_SIGMAS * stderr:
        return [f"{name} {value} is not within {MC_SIGMAS} x {stderr} of {want}"]
    return []


def check_job(job: dict, rc: int, text: str, oracles: Oracles) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if "argv" in job:
        try:
            jsonschema.validate(payload, oracles.schema(job["argv"][0]))
        except jsonschema.ValidationError as exc:
            return [f"schema: {exc.message}"]
    kind = job["check"]
    if kind == "cycles":
        want = oracles.cycles(job["graph"], job["k"], job["t"])
        problems = _within("cycles mc", payload["mc"], want, payload["stderr"])
        if not math.isclose(payload["spectral"], want, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"spectral {payload['spectral']} != oracle {want}")
        return problems
    if kind == "qhf":
        z, m_sq = oracles.qhf(job["graph"], job["t"])
        return (_within("qhf z", payload["z"], z, payload["z_stderr"])
                + _within("qhf m_sq", payload["m_sq"], m_sq, payload["m_sq_stderr"]))
    if kind == "large_cycles":
        want = oracles.large_cycles(job["graph"], job["t"])
        return _within("large-cycles", payload["estimate"], want, payload["stderr"])
    if kind == "compare":
        want = oracles.gap(job["graph"])
        problems = []
        if abs(payload["spectral_gap"] - want) > GAP_TOL * max(1.0, abs(want)):
            problems.append(f"spectral gap {payload['spectral_gap']} != Laplacian {want}")
        if payload["aldous"] is not True:
            problems.append("Aldous property reported false")
        return problems
    if kind == "passed":
        return [] if payload["passed"] is True else ["passed is not true"]
    if kind == "mix":
        problems = []
        if not payload["lmix"] / 8 <= payload["mix"] <= payload["lmix"]:
            problems.append(f"mix {payload['mix']} outside [lmix/8, lmix]")
        if payload["lmix"] != PINNED_LMIX[job["graph"]]:
            problems.append(f"lmix {payload['lmix']} != {PINNED_LMIX[job['graph']]}")
        return problems
    if kind == "prob_bounds":
        problems = [] if payload["holds"] is True else ["probability bounds fail"]
        if payload["lmix"] != PINNED_LMIX[job["graph"]]:
            problems.append(f"lmix {payload['lmix']} != {PINNED_LMIX[job['graph']]}")
        return problems
    if kind == "suite":
        failed = [c["name"] for c in payload["checks"] if c["verdict"] != "pass"]
        problems = [f"suite check failed: {name}" for name in failed]
        if payload["passed"] is not True or len(payload["checks"]) != 11:
            problems.append("suite did not pass all 11 checks")
        return problems
    raise ValueError(f"unknown check {kind!r}")
