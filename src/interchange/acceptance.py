"""The acceptance suite behind the `suite` subcommand.

Each check is a self-contained function taking a SuiteConfig and returning a
CheckResult.  Checks own their randomness (a counter-based stream per check,
derived from the master seed), so the suite is reproducible in any execution
order.  Wall-clock timings are collected by the runner but kept out of the
check records so reports stay byte-deterministic.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .chain import (
    LazyChain,
    min_stationary_ratio,
    mixing_report,
    tv_distance,
    verify_probability_bounds,
)
from .cycles import (
    MC_DEFAULT_SAMPLES,
    coefficient_dimension_sum,
    cycle_count_blocks,
    exact_cycles_by_k,
    expected_cycles_by_k,
    expected_cycles_mc,
    family_members,
    oracle_t_grid,
)
from .errors import ParameterError
from .graphs import (
    MAX_SEED,
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
    LiftedWeight,
    delta_of_weights,
    doubling_gap,
    interchange_tv_mix_exact,
    is_psd,
    octopus_gap,
    regular_rep_matrix,
)
from .irreps import (
    aldous_check,
    all_spectra,
    assembled_spectrum,
    comparison_constant,
    content_sum,
    delta_blocks,
    hook_dim,
    lambda_kn,
    partitions,
)
from .qhf import qhf_exact, qhf_mc

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


# Monte Carlo samples and the largest n of the scalarity check, by level
_LEVEL_SETTINGS = {"desk": (MC_DEFAULT_SAMPLES, 8), "extended": (1_000_000, 10)}


@dataclass(frozen=True)
class SuiteConfig:
    level: str  # fixes every other setting
    seed: int

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= MAX_SEED:
            raise ParameterError(f"suite seed must be an int in [0, 2**64 - 1], got {seed!r}")
        if self.level not in _LEVEL_SETTINGS:
            raise ParameterError(f"unknown suite level {self.level!r} (desk or extended)")

    @classmethod
    def for_level(cls, level: str, seed: int = 0) -> "SuiteConfig":
        """Kept only because perfbench/ calls it by name."""
        return cls(level, seed)

    @property
    def mc_samples(self) -> int:
        return _LEVEL_SETTINGS[self.level][0]

    @property
    def scalarity_max_n(self) -> int:
        return _LEVEL_SETTINGS[self.level][1]


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
        if w.is_connected():
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
            verdict = is_psd(octopus_gap(n, int(rng.integers(n)), arms))
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
            verdict = is_psd(doubling_gap(LiftedWeight(u)))
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
        for p, m in delta_blocks(op, partitions(n)):
            diag = n * (n - 1) // 2 - content_sum(p)
            off = m - np.diag(np.diag(m))
            worst_off = max(worst_off, float(np.abs(off).max()) / max(diag, 1))
            worst_value = max(worst_value, float(np.abs(np.diag(m) - diag).max()) / max(diag, 1))
    families = 0
    formula_failures = 0
    for n in range(2, 11):
        for k in range(1, n + 1):
            for member in family_members(n, k):
                p = member.partition
                families += 1
                formula_failures += member.eigenvalue != lambda_kn(p) or member.dim != hook_dim(p)
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
        chain = LazyChain(w)
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
    regular_names = {name for name, _ in REGULAR_SUITE_GRAPHS}
    for name, w in SUITE_GRAPHS:
        report = verify_probability_bounds(LazyChain(w), w)
        worst_slack = min(worst_slack, report.worst_slack)
        if not report.holds:
            failures.append(name)
        if name not in regular_names:
            continue
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


def check_cycle_formula_routes(config: SuiteConfig) -> CheckResult:
    zero_sum_failures = sum(
        coefficient_dimension_sum(n, k) != 0
        for n in range(2, 11)
        for k in range(2, n + 1)
    )

    # each route takes the whole t grid and every k of a graph at once: one
    # solve per (graph, partition), and one brute-force solve per graph
    w3 = complete(3)
    closed_dev = 0.0
    brute_dev = 0.0
    for w in (w3, path(4), star(4), cycle(5), complete(5)):
        t = oracle_t_grid(w)
        spectral = expected_cycles_by_k(w, range(1, w.n + 1), t)
        brute = exact_cycles_by_k(w, spectral, t)
        for k, want in spectral.items():
            deviation = brute[k] - want
            brute_dev = max(brute_dev, float(np.abs(deviation).max()))
        if w is w3:
            closed_dev = float(max(
                np.abs(spectral[2] - 0.5 * (1 - np.exp(-6 * t))).max(),
                np.abs(spectral[3] - (1 - np.exp(-3 * t)) ** 2 / 3).max(),
            ))

    mc_failures = []
    mc_rows = {}
    for name, w in (
        ("complete:6", complete(6)),
        ("complete:8", complete(8)),
        ("hamming2:2", hamming2(2)),
        ("hamming2:3", hamming2(3)),
    ):
        t = oracle_t_grid(w)[3]  # 0.5 / gap
        ks = (2, w.n // 2 + 1)
        table = expected_cycles_mc(w, ks, t, config.mc_samples, config.seed)
        spectral = expected_cycles_by_k(w, ks, t)
        for k, (mean, stderr) in table.items():
            want = spectral[k]
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
            report = aldous_check(all_spectra(random_connected_weights(rng, n)))
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


def empirical_constant_table() -> list[dict]:
    """Rows {graph, n, a_star, theorem_bound, empirical_c, a_star_times_m} over TABLE_GRAPHS."""
    rows = []
    for name, w in TABLE_GRAPHS:
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


def run_suite(level: str = "desk", seed: int = 0) -> SuiteReport:
    """Run every acceptance check once, one after another, and assemble the report."""
    config = SuiteConfig(level, seed)
    checks = []
    timings = {}
    for name, check in ALL_CHECKS.items():
        start = time.perf_counter()
        checks.append(check(config))
        timings[name] = round(time.perf_counter() - start, 3)
    return SuiteReport(
        level=config.level,
        seed=config.seed,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        timings=timings,
    )
