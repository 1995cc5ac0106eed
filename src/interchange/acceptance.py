"""The acceptance suite behind the `suite` subcommand.

Each check is a self-contained function taking a SuiteConfig and returning a
CheckResult.  Checks own their randomness (a counter-based stream per check,
derived from the master seed), so the suite is reproducible under any thread
count and any execution order.  Wall-clock timings are collected by the
runner but kept out of the check records so reports stay byte-deterministic.
"""

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import (
    lazy_chain,
    lmix,
    min_stationary_ratio,
    mixing_report,
    tv_distance,
    verify_probability_bounds,
)
from .chain import LiftedWeight
from .cycles import (
    coefficient_dimension_sum,
    cycle_coefficients,
    cycle_count_blocks,
    exact_cycles_bruteforce,
    expected_cycles_spectral,
    family_lambda_dim,
    first_family_range,
    mc_per_sample,
    oracle_t_grid,
    second_family_range,
)
from .errors import ParameterError
from .graphs import (
    WeightFunction,
    complete,
    cycle,
    hamming2,
    hypercube,
    path,
    regular_tree,
    star,
)
from .group_algebra import (
    delta_of_weights,
    doubling_inequality_check,
    interchange_tv_mix_exact,
    octopus_check,
    octopus_gap,
    regular_rep_matrix,
)
from .irreps import (
    YoungOrthogonalRep,
    aldous_check,
    assembled_spectrum,
    comparison_constant,
    content_sum,
    delta_on_irrep,
    hook_dim,
    lambda_kn,
    partitions,
)
from .qhf import qhf_exact, qhf_mc

THREAD_ENV_VAR = "INTERCHANGE_THREADS"

SUITE_GRAPHS: tuple[tuple[str, WeightFunction], ...] = (
    ("complete:3", complete(3)),
    ("complete:5", complete(5)),
    ("complete:8", complete(8)),
    ("cycle:5", cycle(5)),
    ("cycle:8", cycle(8)),
    ("path:4", path(4)),
    ("path:6", path(6)),
    ("star:5", star(5)),
    ("hypercube:3", hypercube(3)),
    ("hypercube:4", hypercube(4)),
    ("hamming2:2", hamming2(2)),
    ("hamming2:3", hamming2(3)),
    ("regular_tree:3,2", regular_tree(3, 2)),
)

# graphs whose lazy chains are regular, for the strengthened heat kernel bound
REGULAR_SUITE_GRAPHS = tuple(
    (name, w)
    for name, w in SUITE_GRAPHS
    if name.split(":")[0] in {"complete", "cycle", "hypercube", "hamming2"}
)

# n <= 10 keeps every row inside the irrep caps
TABLE_GRAPHS: tuple[tuple[str, WeightFunction], ...] = (
    ("complete:5", complete(5)),
    ("complete:8", complete(8)),
    ("cycle:6", cycle(6)),
    ("path:5", path(5)),
    ("star:6", star(6)),
    ("hypercube:3", hypercube(3)),
    ("hamming2:2", hamming2(2)),
    ("hamming2:3", hamming2(3)),
    ("regular_tree:3,2", regular_tree(3, 2)),
)


@dataclass(frozen=True)
class SuiteConfig:
    level: str = "desk"
    seed: int = 0
    mc_samples: int = 100_000
    scalarity_max_n: int = 8

    @classmethod
    def for_level(cls, level: str, seed: int = 0) -> "SuiteConfig":
        if level == "desk":
            return cls(level="desk", seed=seed)
        if level == "extended":
            return cls(
                level="extended", seed=seed, mc_samples=1_000_000, scalarity_max_n=10
            )
        raise ParameterError(f"unknown suite level {level!r} (desk or extended)")


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str  # "pass" or "fail"
    measured: dict
    threshold: str
    inputs: str  # digest of the check's configuration

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class SuiteReport:
    level: str
    seed: int
    passed: bool
    checks: tuple[CheckResult, ...]
    timings: dict[str, float]  # seconds; excluded from the determinism guarantee


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _result(name: str, passed: bool, measured: dict, threshold: str, inputs: dict) -> CheckResult:
    return CheckResult(
        name=name,
        verdict="pass" if passed else "fail",
        measured=measured,
        threshold=threshold,
        inputs=_digest({"name": name, **inputs}),
    )


def _check_rng(config: SuiteConfig, check_index: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, check_index])


def random_connected_weights(rng: np.random.Generator, n: int) -> WeightFunction:
    """Random positive weights on a random connected support."""
    while True:
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    entries[(i, j)] = float(rng.uniform(0.2, 3.0))
        if not entries:
            continue
        w = WeightFunction(n, entries)
        if w.is_connected() and (w.vertex_weights > 0).all():
            return w


def check_octopus_psd(config: SuiteConfig) -> CheckResult:
    rng = _check_rng(config, 1)
    trials = 200
    worst = math.inf
    failures = 0
    for n in (3, 4, 5):
        for _ in range(trials):
            arms = rng.uniform(0.0, 2.0, size=n - 1)
            arms[rng.random(n - 1) < 0.2] = 0.0
            if arms.max() == 0.0:
                arms[int(rng.integers(n - 1))] = 1.0
            verdict = octopus_check(n, int(rng.integers(n)), arms)
            worst = min(worst, verdict.min_eigenvalue)
            failures += not verdict.psd
    star3 = np.linalg.eigvalsh(regular_rep_matrix(octopus_gap(3, 0, [1.0, 1.0])))
    star3_ok = bool(np.allclose(np.sort(star3), [0, 0, 0, 3, 3, 3], atol=1e-9))
    passed = failures == 0 and star3_ok
    return _result(
        "octopus_psd",
        passed,
        {
            "random_trials": 3 * trials,
            "psd_failures": failures,
            "worst_min_eigenvalue": worst,
            "star3_multiset_exact": star3_ok,
        },
        "min eigenvalue >= -1e-9 * scale; star(3) multiset {0,0,0,3,3,3} to 1e-9",
        {"seed": config.seed, "ns": [3, 4, 5], "trials": trials},
    )


def check_doubling_inequality(config: SuiteConfig) -> CheckResult:
    rng = _check_rng(config, 2)
    trials = 100
    worst = math.inf
    failures = 0
    for n in (3, 4):
        for _ in range(trials):
            a = rng.uniform(0.1, 2.0, size=(n, n))
            u = (a + a.T) / 2.0
            off = np.triu_indices(n, k=1)
            kill = rng.random(len(off[0])) < 0.2
            u[off[0][kill], off[1][kill]] = 0.0
            u[off[1][kill], off[0][kill]] = 0.0
            verdict = doubling_inequality_check(LiftedWeight(u), tol=1e-9)
            worst = min(worst, verdict.min_eigenvalue)
            failures += not verdict.psd
    return _result(
        "doubling_inequality",
        failures == 0,
        {"random_trials": 2 * trials, "psd_failures": failures, "worst_min_eigenvalue": worst},
        "(2 + 2 eps) Delta_u - Delta_{u^(2)} PSD at 1e-9",
        {"seed": config.seed, "ns": [3, 4], "trials": trials},
    )


def check_schur_scalarity(config: SuiteConfig) -> CheckResult:
    worst_off = 0.0
    worst_value = 0.0
    for n in range(2, config.scalarity_max_n + 1):
        op = delta_of_weights(complete(n))
        for p in partitions(n):
            m = YoungOrthogonalRep(p).delta_matrix(op)
            diag = n * (n - 1) // 2 - content_sum(p)
            off = m - np.diag(np.diag(m))
            worst_off = max(worst_off, float(np.abs(off).max()) / max(diag, 1))
            worst_value = max(worst_value, float(np.abs(np.diag(m) - diag).max()) / max(diag, 1))
    families = 0
    formula_failures = 0
    for n in range(2, 11):
        for k in range(1, n + 1):
            for family, rng_ in (
                ("first", first_family_range(n, k)),
                ("second", second_family_range(n, k)),
            ):
                for i in rng_:
                    lam, dim = family_lambda_dim(n, k, i, family)
                    if family == "first":
                        p = (k - i - 1, n - k + 1) + (1,) * i
                    else:
                        p = (n - k, k - i) + (1,) * i
                    families += 1
                    formula_failures += lam != lambda_kn(p) or dim != hook_dim(p)
    passed = worst_off <= 1e-9 and worst_value <= 1e-9 and formula_failures == 0
    return _result(
        "schur_scalarity",
        passed,
        {
            "max_off_diagonal_ratio": worst_off,
            "max_value_deviation": worst_value,
            "family_entries_checked": families,
            "family_formula_failures": formula_failures,
        },
        f"off-diag <= 1e-9 * diag for n <= {config.scalarity_max_n}; "
        "family formulas exact for n <= 10",
        {"max_n": config.scalarity_max_n},
    )


def check_spectrum_assembly(config: SuiteConfig) -> CheckResult:
    rng = _check_rng(config, 4)
    worst = 0.0
    graphs = 0
    for n, count in ((3, 7), (4, 7), (5, 6)):
        for _ in range(count):
            w = random_connected_weights(rng, n)
            assembled = assembled_spectrum(w)
            regular = np.sort(np.linalg.eigvalsh(regular_rep_matrix(delta_of_weights(w))))
            worst = max(worst, float(np.abs(assembled - regular).max()))
            graphs += 1
    return _result(
        "spectrum_assembly",
        worst <= 1e-8,
        {"graphs": graphs, "max_multiset_deviation": worst},
        "sorted irrep-assembled spectrum matches regular representation within 1e-8",
        {"seed": config.seed, "graphs": 20},
    )


def check_mixing_numbers(config: SuiteConfig) -> CheckResult:
    r3 = mixing_report(complete(3))
    exact_ok = (
        r3.lmix == 2 and r3.mix == 1 and abs(r3.delta - 16.0 / 33.0) <= 1e-12
    )
    sandwich_failures = []
    monotone_failures = []
    for name, w in SUITE_GRAPHS:
        report = mixing_report(w)
        if not (report.lmix / 8.0 <= report.mix <= report.lmix):
            sandwich_failures.append(name)
        if report.delta < 1.0 / (2.0 * report.lmix) - 1e-12:
            sandwich_failures.append(name + ":delta")
        chain = lazy_chain(w)
        ratios = [min_stationary_ratio(chain, t) for t in range(1, report.lmix + 3)]
        tvs = [tv_distance(chain, t) for t in range(1, report.lmix + 3)]
        if any(b < a - 1e-12 for a, b in zip(ratios, ratios[1:])):
            monotone_failures.append(name + ":ratio")
        if any(b > a + 1e-12 for a, b in zip(tvs, tvs[1:])):
            monotone_failures.append(name + ":tv")
    passed = exact_ok and not sandwich_failures and not monotone_failures
    return _result(
        "mixing_numbers",
        passed,
        {
            "complete3": {"lmix": r3.lmix, "mix": r3.mix, "delta": r3.delta},
            "complete3_exact": exact_ok,
            "sandwich_failures": sandwich_failures,
            "monotonicity_failures": monotone_failures,
            "graphs": len(SUITE_GRAPHS),
        },
        "complete(3) -> (2, 1, 16/33 +- 1e-12); lmix/8 <= mix <= lmix; "
        "delta >= 1/(2 lmix); monotone profiles",
        {"graphs": [name for name, _ in SUITE_GRAPHS]},
    )


def check_probability_bounds(config: SuiteConfig) -> CheckResult:
    failures = []
    worst_slack = math.inf
    worst_regular_slack = math.inf
    for name, w in SUITE_GRAPHS:
        report = verify_probability_bounds(lazy_chain(w), w)
        worst_slack = min(worst_slack, report.worst_slack)
        if not report.holds:
            failures.append(name)
    for name, w in REGULAR_SUITE_GRAPHS:
        report = verify_probability_bounds(lazy_chain(w), w)
        if not report.regular:
            failures.append(name + ":not-regular")
            continue
        worst_regular_slack = min(worst_regular_slack, report.regular_worst_slack)
        if not report.regular_holds:
            failures.append(name + ":regular-bound")
    return _result(
        "probability_bounds",
        not failures,
        {
            "failures": failures,
            "worst_slack": worst_slack,
            "worst_regular_slack": worst_regular_slack,
            "graphs": len(SUITE_GRAPHS),
            "regular_graphs": len(REGULAR_SUITE_GRAPHS),
        },
        "p_t(i,j) <= (30/sqrt(t)) w_i/min* w_ij for t <= lmix; "
        "regular graphs also p_t <= 30/t^(1/4)",
        {"graphs": [name for name, _ in SUITE_GRAPHS]},
    )


def _mc_cycle_table(
    w: WeightFunction, ks: tuple[int, ...], t: float, samples: int, seed: int
) -> dict[int, tuple[float, float]]:
    """Shared-trajectory MC means and standard errors for several k at once."""
    values = mc_per_sample(w, t, samples, seed, lambda c: c[:, list(ks)])
    means = values.mean(axis=0)
    stderrs = values.std(axis=0, ddof=1) / math.sqrt(samples)
    return {k: (float(means[c]), float(stderrs[c])) for c, k in enumerate(ks)}


def check_cycle_formula_routes(config: SuiteConfig) -> CheckResult:
    zero_sum_failures = sum(
        coefficient_dimension_sum(n, k) != 0
        for n in range(2, 11)
        for k in range(2, n + 1)
    )

    w3 = complete(3)
    closed_dev = 0.0
    for t in oracle_t_grid(w3):
        closed_dev = max(
            closed_dev,
            abs(expected_cycles_spectral(w3, 2, t) - 0.5 * (1 - math.exp(-6 * t))),
            abs(expected_cycles_spectral(w3, 3, t) - (1 - math.exp(-3 * t)) ** 2 / 3),
        )

    brute_dev = 0.0
    for w in (complete(3), path(4), star(4), cycle(5), complete(5)):
        for t in oracle_t_grid(w):
            for k in range(1, w.n + 1):
                brute_dev = max(
                    brute_dev,
                    abs(exact_cycles_bruteforce(w, k, t) - expected_cycles_spectral(w, k, t)),
                )

    mc_failures = []
    mc_rows = {}
    for name, w in (
        ("complete:6", complete(6)),
        ("complete:8", complete(8)),
        ("hamming2:2", hamming2(2)),
        ("hamming2:3", hamming2(3)),
    ):
        gap = delta_on_irrep(w, (w.n - 1, 1)).lambda_min
        t = 0.5 / gap
        ks = (2, w.n // 2 + 1)
        table = _mc_cycle_table(w, ks, t, config.mc_samples, config.seed)
        for k, (mean, stderr) in table.items():
            want = expected_cycles_spectral(w, k, t)
            mc_rows[f"{name}:k={k}"] = {"mc": mean, "stderr": stderr, "spectral": want}
            if abs(mean - want) > 4 * stderr:
                mc_failures.append(f"{name}:k={k}")

    passed = (
        zero_sum_failures == 0
        and closed_dev <= 1e-10
        and brute_dev <= 1e-8
        and not mc_failures
    )
    return _result(
        "cycle_formula_routes",
        passed,
        {
            "zero_sum_failures": zero_sum_failures,
            "closed_form_deviation": closed_dev,
            "brute_force_deviation": brute_dev,
            "mc_failures": mc_failures,
            "mc_rows": mc_rows,
        },
        "brute vs spectral 1e-8 (n <= 5, 6-point grid, all k); MC within 4 stderr; "
        "complete(3) closed forms 1e-10; zero-sum exact for k >= 2, n <= 10",
        {"seed": config.seed, "samples": config.mc_samples},
    )


def check_aldous_inequality(config: SuiteConfig) -> CheckResult:
    rng = _check_rng(config, 8)
    worst_margin = math.inf
    failures = 0
    for n in (4, 5, 6, 7):
        for _ in range(25):
            report = aldous_check(random_connected_weights(rng, n), tol=1e-9)
            if math.isfinite(report.margin):
                worst_margin = min(worst_margin, report.margin)
            failures += not report.holds
    return _result(
        "aldous_inequality",
        failures == 0,
        {"graphs": 100, "failures": failures, "worst_margin": worst_margin},
        "lambda_1(w, rho) >= lambda_1(w, [n-1,1]) - 1e-9 for all rho != [n]",
        {"seed": config.seed, "ns": [4, 5, 6, 7], "per_n": 25},
    )


def check_mixing_comparison(config: SuiteConfig) -> CheckResult:
    rng = _check_rng(config, 9)
    reference = interchange_tv_mix_exact(complete(4))
    worst_ratio = 0.0
    failures = 0
    for _ in range(20):
        w = random_connected_weights(rng, 4)
        a_star = comparison_constant(w).a_star
        imix = interchange_tv_mix_exact(w)
        bound = (4.0 / a_star) * reference
        worst_ratio = max(worst_ratio, imix / bound)
        failures += imix > bound + 1e-6
    return _result(
        "mixing_comparison",
        failures == 0,
        {
            "graphs": 20,
            "failures": failures,
            "reference_imix_complete4": reference,
            "worst_ratio_to_bound": worst_ratio,
        },
        "imix(w) <= (4 / a*) imix(K_4) + 1e-6 for 20 random connected graphs, n = 4",
        {"seed": config.seed, "graphs": 20},
    )


def empirical_constant_table(
    graphs: tuple[tuple[str, WeightFunction], ...] = TABLE_GRAPHS,
) -> list[dict]:
    """Rows {graph, n, a_star, theorem_bound, empirical_c} for the constant study."""
    rows = []
    for name, w in graphs:
        report = comparison_constant(w)
        row = {
            "graph": name,
            "n": w.n,
            "a_star": report.a_star,
            "theorem_bound": report.theorem_bound,
            "empirical_c": report.empirical_c,
            "a_star_times_m": None,
        }
        if name.startswith("hamming2:"):
            row["a_star_times_m"] = report.a_star * int(name.split(":")[1])
        rows.append(row)
    return rows


def check_comparison_constants(config: SuiteConfig) -> CheckResult:
    complete_dev = max(
        abs(comparison_constant(complete(n)).a_star - 1.0) for n in range(2, 9)
    )
    path3_dev = abs(comparison_constant(path(3)).a_star - 1.0 / 3.0)
    table = empirical_constant_table()
    table_ok = all(
        row["a_star"] > 0
        and row["theorem_bound"] > 0
        and row["empirical_c"] > 0
        and math.isfinite(row["empirical_c"])
        for row in table
    )
    passed = complete_dev <= 1e-12 and path3_dev <= 1e-9 and table_ok
    return _result(
        "comparison_constants",
        passed,
        {
            "complete_a_star_deviation": complete_dev,
            "path3_a_star_deviation": path3_dev,
            "table_all_positive_finite": table_ok,
            "table": table,
        },
        "a*(complete(n)) = 1 +- 1e-12 for n <= 8; a*(path(3)) = 1/3 +- 1e-9; "
        "table entries positive and finite",
        {"table_graphs": [name for name, _ in TABLE_GRAPHS]},
    )


def check_qhf_observables(config: SuiteConfig) -> CheckResult:
    zero_failures = []
    for name, w in SUITE_GRAPHS:
        est = qhf_mc(w, 0.0, samples=256, seed=config.seed)
        if est.z != float(2**w.n) or est.m_sq != float(w.n):
            zero_failures.append(name)

    w4 = complete(4)
    want_z, want_m = qhf_exact(w4, 0.3)
    est = qhf_mc(w4, 0.3, samples=config.mc_samples, seed=config.seed)
    oracle_ok = (
        abs(est.z - want_z) <= 4 * est.z_stderr
        and abs(est.m_sq - want_m) <= 4 * est.m_sq_stderr
    )

    invariant_failures = 0
    for name, w in SUITE_GRAPHS[:6]:
        for counts in cycle_count_blocks(w, 0.7, 50, config.seed):
            weighted = counts @ np.arange(w.n + 1) ** 2
            invariant_failures += int((weighted > w.n**2).sum())

    passed = not zero_failures and oracle_ok and invariant_failures == 0
    return _result(
        "qhf_observables",
        passed,
        {
            "time_zero_failures": zero_failures,
            "mc": {"z": est.z, "z_stderr": est.z_stderr, "m_sq": est.m_sq,
                   "m_sq_stderr": est.m_sq_stderr},
            "exact": {"z": want_z, "m_sq": want_m},
            "oracle_within_4_stderr": oracle_ok,
            "invariant_failures": invariant_failures,
        },
        "Z(0) = 2^n and m^2(0) = n exactly; MC within 4 stderr of exact; "
        "sum k^2 alpha_k <= n^2 per trajectory",
        {"seed": config.seed, "samples": config.mc_samples},
    )


ALL_CHECKS = {
    "octopus_psd": check_octopus_psd,
    "doubling_inequality": check_doubling_inequality,
    "schur_scalarity": check_schur_scalarity,
    "spectrum_assembly": check_spectrum_assembly,
    "mixing_numbers": check_mixing_numbers,
    "probability_bounds": check_probability_bounds,
    "cycle_formula_routes": check_cycle_formula_routes,
    "aldous_inequality": check_aldous_inequality,
    "mixing_comparison": check_mixing_comparison,
    "comparison_constants": check_comparison_constants,
    "qhf_observables": check_qhf_observables,
}


def _thread_count() -> int:
    raw = os.environ.get(THREAD_ENV_VAR)
    if raw is not None:
        try:
            count = int(raw)
        except ValueError:
            raise ParameterError(f"{THREAD_ENV_VAR} must be an integer, got {raw!r}")
        if count < 1:
            raise ParameterError(f"{THREAD_ENV_VAR} must be >= 1, got {count}")
        return count
    return min(4, os.cpu_count() or 1)


def run_suite(
    level: str = "desk", seed: int = 0, names: tuple[str, ...] | None = None
) -> SuiteReport:
    """Run the acceptance checks in a work pool and assemble the report.

    `names` restricts the run to a subset (used by fast tests); the full
    suite runs every check exactly once.
    """
    config = SuiteConfig.for_level(level, seed)
    selected = tuple(ALL_CHECKS) if names is None else names
    for name in selected:
        if name not in ALL_CHECKS:
            raise ParameterError(f"unknown check {name!r}")

    def timed(name: str) -> tuple[str, CheckResult, float]:
        start = time.perf_counter()
        result = ALL_CHECKS[name](config)
        return name, result, time.perf_counter() - start

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        outcomes = list(pool.map(timed, selected))
    by_name = {name: (result, elapsed) for name, result, elapsed in outcomes}
    checks = tuple(by_name[name][0] for name in selected)
    timings = {name: round(by_name[name][1], 3) for name in selected}
    return SuiteReport(
        level=config.level,
        seed=config.seed,
        passed=all(c.passed for c in checks),
        checks=checks,
        timings=timings,
    )
