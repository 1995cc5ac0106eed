"""Work counts computed from a pass's inputs and outputs, never measured.

They repeat exactly run to run, so a change in one is a change in the work
a workload asks for, not noise.  Counts are nominal: they follow what each
job's definition requires (one block eigensolve per partition per PSD
element), not how the current code happens to compute it.
"""

import math

import numpy as np

from tracer import REGULAR_ROUTE_MAX_N

# Monte Carlo trajectories of `suite --level desk`, from the suite's
# definition: (graph, trajectories, time or "half_gap" for t = 0.5 / gap).
SUITE_DESK_TRAJECTORIES = (
    ("complete:6", 100_000, "half_gap"),
    ("complete:8", 100_000, "half_gap"),
    ("hamming2:2", 100_000, "half_gap"),
    ("hamming2:3", 100_000, "half_gap"),
    ("complete:4", 100_000, 0.3),
    *((g, 256, 0.0) for g in (
        "complete:3", "complete:5", "complete:8", "cycle:5", "cycle:8", "path:4",
        "path:6", "star:5", "hypercube:3", "hypercube:4", "hamming2:2", "hamming2:3",
        "regular-tree:3,2")),
    *((g, 50, 0.7) for g in (
        "complete:3", "complete:5", "complete:8", "cycle:5", "cycle:8", "path:4")),
)


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, cap), 0, -1)
            for rest in partitions(n - first, first)]


def hook_dim(p: tuple[int, ...]) -> int:
    """Dimension of the irreducible representation by the hook length formula."""
    n = sum(p)
    cols = [sum(1 for row in p if row > c) for c in range(p[0])] if p else []
    hooks = 1
    for r, row in enumerate(p):
        for c in range(row):
            hooks *= (row - c - 1) + (cols[c] - r - 1) + 1
    return math.factorial(n) // hooks


def _dims(n: int) -> list[int]:
    return [hook_dim(p) for p in partitions(n)]


def _octopus_supports(dense: np.ndarray) -> list[int]:
    """Support size of each hub's octopus gap element (hubs with an edge)."""
    sizes = []
    for hub in range(len(dense)):
        arms = int((dense[hub] > 0).sum())
        if arms:
            sizes.append(1 + arms + arms * (arms - 1) // 2)
    return sizes


def _doubling_support(dense: np.ndarray) -> int:
    """Identity plus every pair joined by the lift or the doubled lift."""
    u = dense + np.diag(dense.sum(axis=1))
    doubled = (u / u.sum(axis=1)[None, :]) @ u
    i, j = np.triu_indices(len(dense), k=1)
    return 1 + int(((u[i, j] > 0) | (doubled[i, j] > 0)).sum())


def _rate(w) -> float:
    """Total clock rate R = sum of the pair weights; R * t events on average."""
    return sum(weight for _, weight in w.edges())


def pass_counts(jobs: list[dict], outputs: list[dict | None], oracles) -> dict:
    """Per-pass counts for a workload, from its job list and parsed outputs."""
    c = dict.fromkeys(
        ("graphs.edges", "chain.lmix", "chain.matmul_gflop", "chain.matrix_bytes",
         "irreps.rep_dim_sum", "irreps.eig_flop", "group_algebra.support",
         "group_algebra.rep_matrix_calls", "cycles.traj", "cycles.events"), 0)
    for job, out in zip(jobs, outputs):
        if job["check"] == "suite":
            for spec, samples, t in SUITE_DESK_TRAJECTORIES:
                w = oracles.weights(spec)
                if t == "half_gap":
                    t = 0.5 / oracles.gap(spec)
                c["cycles.traj"] += samples
                c["cycles.events"] += samples * _rate(w) * t
            continue
        w = oracles.weights(job["graph"])
        n = w.n
        dense = w.dense()
        c["graphs.edges"] += len(list(w.edges()))
        if "samples" in job:
            c["cycles.traj"] += job["samples"]
            c["cycles.events"] += job["samples"] * _rate(w) * job["t"]
        if job["check"] == "cycles":
            parts = oracles.cycle_partitions(n, job["k"])
            dims = [hook_dim(p) for p in parts]
            c["irreps.rep_dim_sum"] += sum(dims)
            c["irreps.eig_flop"] += sum(d**3 for d in dims)
        if job["check"] in ("mix", "prob_bounds") and out is not None:
            c["chain.lmix"] += out["lmix"]
            c["chain.matmul_gflop"] += out["lmix"] * 2 * n**3 / 1e9
            c["chain.matrix_bytes"] = max(c["chain.matrix_bytes"], 8 * n * n)
        supports = []
        if job["check"] == "compare":
            dims = _dims(n)
            c["irreps.rep_dim_sum"] += sum(dims)
            c["irreps.eig_flop"] += sum(d**3 for d in dims)
        elif job.get("argv", [""])[0] == "octopus":
            supports = _octopus_supports(dense)
        elif job.get("argv", [""])[0] == "verify-doubling":
            supports = [_doubling_support(dense)]
        c["group_algebra.support"] += sum(supports)
        if supports and n > REGULAR_ROUTE_MAX_N:
            dims = _dims(n)
            c["irreps.rep_dim_sum"] += sum(dims)
            c["irreps.eig_flop"] += len(supports) * sum(d**3 for d in dims)
            c["group_algebra.rep_matrix_calls"] += sum(supports) * len(dims)
    return c
