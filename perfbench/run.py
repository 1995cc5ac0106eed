"""Benchmark runner for the interchange package.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc --seed 1 --seconds 10 --trace 0

Runs one workload as a closed loop: one client, jobs one after another, each
job in a fresh interpreter (worker.py), repeated until --seconds have passed
(always at least one pass).  Every output is checked (checks.py).  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics; the lines before it are a readable report.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes, runs the
layer probes, and reports the per-layer metrics.  README.md lists them all.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Oracles, check_job
from counts import hook_dim, partitions, pass_counts
from tracer import LAYERS, TRACED
from workloads import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(".bench_build") / "perfbench"  # relative to ROOT, the workers' cwd

SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # the whole run; a run must end within 180 s

# Probes per workload: n values whose Young reps are built directly, and the
# workloads whose traced runs time each acceptance check on its own.  `mc`
# carries the checks because the desk suite's time is mostly Monte Carlo and
# suite_desk is too unsteady to be a benchmark workload (README.md).
REP_BUILD_NS = {"mc": (9,), "exact": (9, 10), "suite_desk": tuple(range(2, 10))}
CHECKS_PROBE_WORKLOADS = ("mc", "suite_desk")
CHECK_NAMES = tuple(
    name.removeprefix("check_") for name in TRACED["acceptance"]
    if name.startswith("check_"))


class Runner:
    """Starts workers one at a time; counts operations and their failures."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "INTERCHANGE_THREADS"}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: dict[str, str] = {}

    def call(self, request: dict, label: str) -> tuple[dict | None, float]:
        """Run one worker; returns (reply or None, wall seconds)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(request), capture_output=True, text=True,
                cwd=ROOT, env=self.env,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            self.errors[label] = "timed out"
            return None, time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors[label] = f"worker exit {proc.returncode}: {tail[0]}"
            return None, wall
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), wall
        except (IndexError, json.JSONDecodeError):
            self.errors[label] = "worker printed no reply"
            return None, wall

    def op(self, label: str, problems: list[str]) -> None:
        """Count one attempted operation and record its problems, if any."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def op_reply(self, label: str, reply: dict | None) -> None:
        """Count an operation whose only check is that its worker replied."""
        self.op(label, [] if reply is not None else [self.errors.get(label, "no reply")])


def run_pass(runner: Runner, jobs: list[dict], trace: bool) -> dict:
    start = time.perf_counter()
    replies = []
    for job in jobs:
        request = {"mode": "job", "job": job, "trace": trace}
        replies.append(runner.call(request, job["name"])[0])
    return {"wall": time.perf_counter() - start, "replies": replies}


def check_pass(runner: Runner, jobs: list[dict], run: dict, oracles) -> list:
    """Check every job of a pass; returns the parsed outputs (None if failed)."""
    outputs = []
    for job, reply in zip(jobs, run["replies"]):
        if reply is None:
            runner.op_reply(job["name"], reply)
            outputs.append(None)
            continue
        try:
            problems = check_job(job, reply["rc"], reply["output"], oracles)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        runner.op(job["name"], problems)
        outputs.append(None if problems else json.loads(reply["output"]))
    return outputs


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cache_bytes": _cache_sizes(),
        "machine": platform.machine(),
    }


def _cache_sizes() -> dict:
    """L1d, L2 and L3 sizes in bytes from glibc's sysconf (None elsewhere)."""
    names = {"l1d": 188, "l2": 191, "l3": 194}  # glibc _SC_LEVEL*_CACHE_SIZE
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return dict.fromkeys(names)
    return {name: int(libc.sysconf(code)) for name, code in names.items()}


def _blas_threads() -> int | str:
    """OpenBLAS's own thread count, read through its C API when it is bundled."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spans(run: dict) -> dict:
    """Sum the traced pass's spans over its jobs: name -> [calls, total, self]."""
    total: dict[str, list] = {}
    for reply in run["replies"]:
        if reply is None:
            continue
        for name, (calls, elapsed, own) in reply["trace"]["spans"].items():
            entry = total.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += elapsed
            entry[2] += own
    return total


def _span_total(spans: dict, *names: str) -> float:
    return sum(spans.get(name, (0, 0.0, 0.0))[1] for name in names)


def _us_per_traj(jobs: list[dict], run: dict, kind: str) -> float:
    calls, elapsed = 0, 0.0
    for job, reply in zip(jobs, run["replies"]):
        if reply is None or job.get("kind", "short") != kind:
            continue
        entry = reply["trace"]["spans"].get("cycles.simulate_interchange", (0, 0.0, 0.0))
        calls += entry[0]
        elapsed += entry[1]
    return 1e6 * elapsed / calls if calls else 0.0


def run_probes(runner: Runner, workload: str, seed: int, jobs: list[dict]) -> dict:
    """Time single layers directly, each probe in its own fresh worker."""
    probes = {}
    reply, _ = runner.call({"mode": "probe", "probe": "rep_build",
                            "ns": REP_BUILD_NS[workload]}, "rep_build probe")
    runner.op_reply("rep_build probe", reply)
    if reply is not None:
        probes["rep_build"] = reply["rep_build"]
        runner.op("rep_build dims", [
            f"n={n}: dim sum {dims}" for n, (_, dims) in reply["rep_build"].items()
            if dims != sum(hook_dim(p) for p in partitions(int(n)))])
    for job in jobs:
        if "replay" in job:
            reply, _ = runner.call({"mode": "probe", "probe": "replay",
                                    "replay": job["replay"]}, "replay probe")
            runner.op_reply("replay probe", reply)
            if reply is not None:
                probes["replay_s"] = reply["replay_s"]
    if workload in CHECKS_PROBE_WORKLOADS:
        reply, _ = runner.call({"mode": "probe", "probe": "checks",
                                "seed": program_seed(seed)}, "checks probe")
        runner.op_reply("checks probe", reply)
        if reply is not None:
            probes["checks"] = reply["checks"]
            for name, (_, passed) in reply["checks"].items():
                runner.op(f"check_{name}", [] if passed else ["check failed"])
    return probes


def layer_metrics(jobs: list[dict], plain: list[dict], traced: list[dict],
                  probes: dict, counts: dict) -> dict:
    """Per-layer values from the traced passes, the probes and the counts."""
    # One traced pass: the one whose wall time is the median.
    run = sorted(traced, key=lambda r: r["wall"])[len(traced) // 2]
    spans = _spans(run)
    m = {
        "graphs.parse_s": _span_total(spans, "graphs.parse_graph_spec"),
        "chain.mixing_report_s": _span_total(spans, "chain.mixing_report"),
        "chain.theorem_bound_s": _span_total(spans, "chain.theorem_bound"),
        "chain.prob_bounds_s": _span_total(spans, "chain.verify_probability_bounds"),
        "irreps.rep_build_s": sum(t for t, _ in probes.get("rep_build", {}).values()),
        "irreps.all_spectra_s": _span_total(spans, "irreps.all_spectra"),
        "irreps.aldous_check_s": _span_total(spans, "irreps.aldous_check"),
        "group_algebra.gap_build_s": _span_total(
            spans, "group_algebra.octopus_gap", "group_algebra.doubling_gap"),
        "group_algebra.is_psd_s.regular": _span_total(
            spans, "group_algebra.is_psd.regular"),
        "group_algebra.is_psd_s.irrep": _span_total(spans, "group_algebra.is_psd.irrep"),
        "cycles.short.us_per_traj": _us_per_traj(jobs, run, "short"),
        "cycles.long.us_per_traj": _us_per_traj(jobs, run, "long"),
        "cycles.spectral_s": _span_total(spans, "cycles.expected_cycles_spectral"),
        "qhf.mc_s": _span_total(spans, "qhf.qhf_mc"),
        "qhf.self_s": (_span_total(spans, "qhf.qhf_mc") - probes["replay_s"]
                       if "replay_s" in probes else 0.0),
    }
    m.update(counts)
    checks = probes.get("checks", {})
    suite = [(reply["job_s"], json.loads(reply["output"])["timings"])
             for job, reply in zip(jobs, plain[0]["replies"])
             if job["check"] == "suite" and reply is not None]
    suite_s, reported = suite[0] if suite else (0.0, {})
    for name in CHECK_NAMES:
        m[f"acceptance.{name}_s"] = checks.get(name, (0.0, True))[0]
        m[f"acceptance.{name}.reported_s"] = float(reported.get(name, 0.0))
    sequential = sum(t for t, _ in checks.values())
    m["acceptance.pool_excess_s"] = suite_s - sequential if sequential and suite_s else 0.0
    m["acceptance.pool_inflation"] = (
        sum(reported.values()) / sequential if sequential and reported else 0.0)
    m["cli.import_s"] = _median(
        [r["import_s"] for p in plain + traced for r in p["replies"] if r is not None])
    m["cli.self_s"] = sum(
        r["trace"]["layer_self"]["cli"] for r in run["replies"] if r is not None)
    m["cli.render_s"] = _span_total(spans, "cli.render_json")
    for layer in LAYERS:
        m[f"{layer}.span_self_s"] = sum(
            r["trace"]["layer_self"][layer] for r in run["replies"] if r is not None)
        m[f"{layer}.calls"] = sum(
            entry[0] for name, entry in spans.items() if name.startswith(layer + "."))
    m["trace.overhead_s"] = (_median([r["wall"] for r in traced])
                             - _median([r["wall"] for r in plain]))
    return m


def job_report(jobs: list[dict], passes: list[dict]) -> dict:
    """End-to-end job times named as users know them (median over passes)."""
    times: dict[str, list[float]] = {job["metric"]: [] for job in jobs}
    traj_rates = []
    for run in passes:
        per_pass = dict.fromkeys(times, 0.0)
        samples, mc_time = 0, 0.0
        for job, reply in zip(jobs, run["replies"]):
            if reply is None:
                continue
            per_pass[job["metric"]] += reply["job_s"]
            if "samples" in job:
                samples += job["samples"]
                mc_time += reply["job_s"]
        for name, value in per_pass.items():
            times[name].append(value)
        if mc_time:
            traj_rates.append(samples / mc_time)
    report = {name: _median(values) for name, values in times.items()}
    if traj_rates:
        report["traj_per_s"] = _median(traj_rates)
    return report


UNITS = {"traj_per_s": "1/s", "acceptance.pool_inflation": "ratio"}
SUFFIX_UNITS = (("us_per_traj", "us"), ("_s", "s"), ("_mb", "MB"), ("_gflop", "GFLOP"),
                ("_bytes", "bytes"))


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("group_algebra.is_psd_s."):
        return "s"
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "interchange" / "cli.py").is_file():
        print(f"error: no interchange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    runner = Runner(deadline=started + RUN_LIMIT_S)
    (ROOT / WORKDIR).mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()

    setup = {"mode": "setup", "workload": args.workload, "seed": args.seed,
             "workdir": str(WORKDIR)}
    setup_walls, job_lists = [], []
    for rep in range(SETUP_REPS):
        reply, wall = runner.call(setup, f"setup {rep}")
        runner.op_reply(f"setup {rep}", reply)
        if reply is not None:
            setup_walls.append(wall)
            job_lists.append(reply["jobs"])
    if not job_lists:
        print("error: set-up failed: " + "; ".join(runner.problems), file=sys.stderr)
        return 1
    runner.op("setup", [] if all(j == job_lists[0] for j in job_lists)
              else ["inputs differ between set-ups of one seed"])
    jobs = job_lists[0]

    plain, traced = [], []
    measure_start = time.perf_counter()
    while (not plain or time.perf_counter() - measure_start < args.seconds) \
            and time.perf_counter() < runner.deadline:
        plain.append(run_pass(runner, jobs, trace=False))
        if args.trace:
            traced.append(run_pass(runner, jobs, trace=True))
    probes = run_probes(runner, args.workload, args.seed, jobs) if args.trace else {}
    load_after = os.getloadavg()
    measured_s = time.perf_counter() - started

    oracles = Oracles(ROOT)
    outputs = [check_pass(runner, jobs, run, oracles) for run in plain + traced]
    counts = pass_counts(jobs, outputs[0], oracles)
    for job in jobs:
        if "input_file" in job:
            (ROOT / job["input_file"]).unlink(missing_ok=True)

    replies = [r for run in plain + traced for r in run["replies"] if r is not None]
    if args.trace:
        metrics = layer_metrics(jobs, plain, traced, probes, counts)
    else:
        metrics = {
            "setup_s": _median(setup_walls),
            "wall_s": _median([run["wall"] for run in plain]),
            "peak_rss_mb": max((r["maxrss_kb"] for r in replies), default=0) / 1024,
        }
    env = environment()
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(load_after)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)}+{len(traced)}  measured {measured_s:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in job_report(jobs, plain).items():
        print(f"  {name:36s} {value:14.6g} {_unit(name)}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {_unit(name)}")
    print(f"  {'failed_ops_ratio':36s} {runner.failed / runner.attempted:14.6g} "
          f"ratio (base {runner.attempted} operations)")
    if metrics.get("chain.matrix_bytes"):
        l2, l3 = env["cache_bytes"]["l2"], env["cache_bytes"]["l3"]
        print(f"  chain matrix {metrics['chain.matrix_bytes']} bytes vs L2 {l2}, L3 {l3}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    detail = {**result, "environment": env, "jobs": jobs, "setup_walls": setup_walls,
              "pass_walls": [run["wall"] for run in plain],
              "job_times": job_report(jobs, plain), "problems": runner.problems}
    out = ROOT / WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
