"""The three workloads: job lists generated from the workload seed.

A job is a JSON-able dict.  CLI jobs carry the argv given to
`interchange.cli.main`; the one library job (`prob_bounds`) names the path
length of `verify_probability_bounds(lazy_chain(path(n)), path(n))`.  The
`check` field says which oracle checks.py applies to the job's output, and
`metric` names the end-to-end job time the job counts towards.

Why these workloads (see README.md for the full table):
  mc          nearly all time in the trajectory simulator; short trajectories
              (about 3 events) expose per-trajectory overhead, the long one
              (about 2250 events) per-event work
  exact       no Monte Carlo: Young reps, block eigensolves, PSD routes and
              lazy-chain matrix powers, in cache (n = 128) and beyond L2
              (n = 1024)
  suite_desk  the acceptance gate users run, with its thread pool
"""

from pathlib import Path

import numpy as np

WORKLOADS = ("mc", "exact", "suite_desk")

# Trajectory counts per MC job: enough for a 5-stderr oracle check and about
# two seconds of simulator time each on a 2-core x86 machine.
CYCLES_SAMPLES = 20_000
QHF_SAMPLES = 20_000
LARGE_CYCLES_SAMPLES = 4_000

WEIGHTS_N = 9
PROB_BOUNDS_N = 128


def program_seed(seed: int) -> int:
    """The seed handed to the program, drawn from the workload seed.

    Keeps every program seed inside the range the CLI accepts, whatever
    non-negative workload seed the benchmark is given.
    """
    return int(np.random.default_rng([seed, 0]).integers(2**31))


def laplacian_gap(dense: np.ndarray) -> float:
    """Second-smallest eigenvalue of the weighted graph Laplacian."""
    laplacian = np.diag(dense.sum(axis=1)) - dense
    return float(np.linalg.eigvalsh(laplacian)[1])


def write_random_weights(path: Path, n: int, seed: int) -> None:
    """Complete graph on n vertices with weights uniform in [0.25, 4)."""
    rng = np.random.default_rng([seed, 1])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = rng.uniform(0.25, 4.0, size=len(pairs))
    rows = [f"{n} {len(pairs)}"]
    rows += [f"{i} {j} {w!r}" for (i, j), w in zip(pairs, weights.tolist())]
    path.write_text("\n".join(rows) + "\n")


def _mc_jobs(seed: int) -> list[dict]:
    from interchange.graphs import parse_graph_spec

    s = str(program_seed(seed))
    t_cycles = 0.5 / laplacian_gap(parse_graph_spec("hamming2:3").dense())
    return [
        {"name": "cycles", "metric": "cycles_s", "check": "cycles", "kind": "short",
         "graph": "hamming2:3", "k": 2, "t": t_cycles, "samples": CYCLES_SAMPLES,
         "argv": ["cycles", "--graph", "hamming2:3", "--k", "2", "--t", repr(t_cycles),
                  "--samples", str(CYCLES_SAMPLES), "--seed", s]},
        {"name": "qhf", "metric": "qhf_s", "check": "qhf", "kind": "short",
         "graph": "complete:5", "t": 0.3, "samples": QHF_SAMPLES,
         "argv": ["qhf", "--graph", "complete:5", "--t", "0.3",
                  "--samples", str(QHF_SAMPLES), "--seed", s],
         "replay": {"graph": "complete:5", "t": 0.3, "samples": QHF_SAMPLES,
                    "seed": int(s)}},
        {"name": "large_cycles", "metric": "large_cycles_s", "check": "large_cycles",
         "kind": "long", "graph": "path:10", "t": 250.0, "samples": LARGE_CYCLES_SAMPLES,
         "argv": ["large-cycles", "--graph", "path:10", "--t", "250",
                  "--samples", str(LARGE_CYCLES_SAMPLES), "--seed", s]},
    ]


def _exact_jobs(seed: int, workdir: Path) -> list[dict]:
    weights = workdir / f"weights{WEIGHTS_N}-{seed}.txt"
    write_random_weights(weights, WEIGHTS_N, seed)
    spec = f"file:{weights}"
    return [
        {"name": "compare_path10", "metric": "compare_s", "check": "compare",
         "graph": "path:10", "argv": ["compare", "--graph", "path:10"]},
        {"name": "compare_weights9", "metric": "compare_s", "check": "compare",
         "graph": spec, "input_file": str(weights), "argv": ["compare", "--graph", spec]},
        {"name": "octopus_star10", "metric": "octopus_s", "check": "passed",
         "graph": "star:10", "argv": ["octopus", "--graph", "star:10"]},
        {"name": "verify_doubling_complete5", "metric": "verify_doubling_s",
         "check": "passed", "graph": "complete:5",
         "argv": ["verify-doubling", "--graph", "complete:5"]},
        {"name": "verify_doubling_hamming2_3", "metric": "verify_doubling_s",
         "check": "passed", "graph": "hamming2:3",
         "argv": ["verify-doubling", "--graph", "hamming2:3"]},
        {"name": "mix_hypercube10", "metric": "mix_s", "check": "mix",
         "graph": "hypercube:10", "argv": ["mix", "--graph", "hypercube:10"]},
        {"name": "prob_bounds_path128", "metric": "prob_bounds_s", "check": "prob_bounds",
         "graph": f"path:{PROB_BOUNDS_N}", "call_n": PROB_BOUNDS_N},
    ]


def _suite_jobs(seed: int) -> list[dict]:
    return [{"name": "suite", "metric": "suite_s", "check": "suite",
             "argv": ["suite", "--level", "desk", "--seed", str(program_seed(seed))]}]


def make_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The job list of one workload; the same seed gives the same list."""
    if workload == "mc":
        return _mc_jobs(seed)
    if workload == "exact":
        return _exact_jobs(seed, workdir)
    if workload == "suite_desk":
        return _suite_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
