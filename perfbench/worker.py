"""One benchmark step in a fresh interpreter.

run.py starts this file once per job, so every job pays what a command-line
user pays on every invocation: interpreter start, `import interchange.cli`,
and cold caches (the Young representations behind `irreps._rep` in
particular).  The request is one JSON object on stdin; the reply is one JSON
object on the last line of stdout.

Modes:
  setup  import the CLI and generate the workload's inputs from the seed
  job    run one job (a CLI argv, or the probability-bounds library call),
         optionally with spans around the package's public functions
  probe  time one layer directly: Young-rep construction, the qhf job's
         trajectories through the simulator alone, or the acceptance checks
         one after another
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _import_cli():
    start = time.perf_counter()
    from interchange import cli

    return cli, time.perf_counter() - start


def _setup(request: dict) -> dict:
    from workloads import make_jobs

    _import_cli()
    workdir = Path(request["workdir"])
    return {"jobs": make_jobs(request["workload"], request["seed"], workdir)}


def _prob_bounds(n: int) -> dict:
    from interchange import chain, graphs

    w = graphs.path(n)
    report = chain.verify_probability_bounds(chain.lazy_chain(w), w)
    return {"n": n, "lmix": report.lmix, "holds": report.holds,
            "worst_slack": report.worst_slack}


def _replay(spec: dict) -> float:
    """Time the same (seed, index) trajectories through the simulator alone."""
    from interchange.cycles import simulate_interchange
    from interchange.graphs import parse_graph_spec

    w = parse_graph_spec(spec["graph"])
    start = time.perf_counter()
    for index in range(spec["samples"]):
        simulate_interchange(w, spec["t"], spec["seed"], index)
    return time.perf_counter() - start


def _job(request: dict) -> dict:
    job = request["job"]
    cli, import_s = _import_cli()
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("interchange")
    out = io.StringIO()
    start = time.perf_counter()
    if "argv" in job:
        with contextlib.redirect_stdout(out):
            rc = cli.main(job["argv"])
        text = out.getvalue()
    else:
        rc = 0
        text = json.dumps(_prob_bounds(job["call_n"]))
    job_s = time.perf_counter() - start
    reply = {"rc": rc, "output": text, "import_s": import_s, "job_s": job_s}
    if tracer is not None:
        reply["trace"] = tracer.snapshot()
    return reply


def _probe(request: dict) -> dict:
    if request["probe"] == "rep_build":
        from interchange.irreps import YoungOrthogonalRep, partitions

        times = {}
        for n in request["ns"]:
            start = time.perf_counter()
            dims = [YoungOrthogonalRep(p).dim for p in partitions(n)]
            times[str(n)] = [time.perf_counter() - start, sum(dims)]
        return {"rep_build": times}
    if request["probe"] == "replay":
        return {"replay_s": _replay(request["replay"])}
    if request["probe"] == "checks":
        from interchange import acceptance

        config = acceptance.SuiteConfig.for_level("desk", request["seed"])
        checks = {}
        for name, check in acceptance.ALL_CHECKS.items():
            start = time.perf_counter()
            passed = check(config).passed
            checks[name] = [time.perf_counter() - start, passed]
        return {"checks": checks}
    raise ValueError(f"unknown probe {request['probe']!r}")


def main() -> None:
    request = json.loads(sys.stdin.read())
    handler = {"setup": _setup, "job": _job, "probe": _probe}[request["mode"]]
    reply = handler(request)
    reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
