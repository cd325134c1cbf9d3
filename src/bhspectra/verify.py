"""Machine-checkable verification suites for the package invariants.

Each suite runs a set of named checks with explicit tolerances and returns a
report of measured values; the CLI `verify` command serializes it and maps
any failure to exit code 3. All randomness is seeded, so a fresh run with
default seeds is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .blackholes import BlackHoleState, Emission, Family, bh_entropy, horizon_radius
from .cascade import (
    CascadePolicy,
    cascade_ensemble_stats,
    chain_identity,
    chain_log_probability,
    enumerate_chains,
    sample_cascade,
)
from .errors import UsageError
from .grids import GridSpec, Normalization
from .information import (
    chain_information_ledger,
    conditional_entropy,
    mutual_information,
    pairwise_correlation,
)
from .spectrum import (
    build_spectrum,
    emission_log_weight,
    emission_log_weights_bulk,
    logsumexp,
    thermal_log_weight,
)
from .typicality import typicality_lab

SUITES = ("identities", "typicality", "cascade", "info")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "all_passed": self.all_passed,
            "wall_time_s": self.wall_time_s,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _max_check(name: str, measured: float, tol: float, detail: str = "") -> Check:
    return Check(name, bool(measured <= tol), float(measured), float(tol), detail)


def random_rn_tuples(rng: np.random.Generator, n: int):
    """Random valid (M, Q, omega, q) charged-emission tuples plus the
    closed-form exponent pi R'^2 - pi R^2, evaluated in longdouble.

    Tuples whose exponent lies within 1e-3 of zero are rejected: the check is
    a *relative* comparison and needs the exponent bounded away from zero to
    be well conditioned.
    """
    out: list[np.ndarray] = []
    kept = 0
    while kept < n:
        batch = max(1024, int(1.3 * (n - kept)))
        m = rng.uniform(0.5, 10.0, batch)
        qv = rng.uniform(0.0, 0.95, batch) * m
        w = rng.uniform(0.05, 0.9, batch) * m
        q_rem = rng.uniform(-0.99, 0.99, batch) * (m - w)
        qe = qv - q_rem
        ml, wl, q0l, q2l = (x.astype(np.longdouble) for x in (m, w, qv, q_rem))
        rp = (ml - wl) + np.sqrt((ml - wl) ** 2 - q2l * q2l)
        r0 = ml + np.sqrt(ml * ml - q0l * q0l)
        oracle = np.pi * rp * rp - np.pi * r0 * r0
        keep = np.abs(oracle) > 1e-3
        take = min(int(np.count_nonzero(keep)), n - kept)
        idx = np.nonzero(keep)[0][:take]
        out.append(
            np.stack([m[idx], qv[idx], w[idx], qe[idx], oracle[idx].astype(np.float64)])
        )
        kept += take
    m, qv, w, qe, oracle = np.concatenate(out, axis=1)
    return m, qv, w, qe, oracle


def _min_check(name: str, measured: float, bound: float, detail: str = "") -> Check:
    return Check(name, bool(measured >= bound), float(measured), float(bound), detail)


def chi2_sf(x: float, k: int) -> float:
    """P(X >= x) for X chi-square distributed with k >= 1 integer degrees of
    freedom: the upper regularized gamma function Q(k/2, h), h = x/2, as the
    finite series
        even k:  e^-h sum_{i=0}^{k/2-1} h^i / i!
        odd k:   erfc(sqrt h) + e^-h sum_{i=1}^{(k-1)/2} h^(i-1/2) / Gamma(i+1/2).
    Every term is positive and each is the one before times h / i (or
    h / (i + 1/2)), starting from the e^-h factor, so nothing cancels or
    overflows.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    if k % 2 == 0:
        term = total = math.exp(-h)
        for i in range(1, k // 2):
            term *= h / i
            total += term
        return total
    term = math.exp(-h) * 2.0 * math.sqrt(h / math.pi)  # i = 1: h^(1/2) / Gamma(3/2)
    total = math.erfc(math.sqrt(h))
    for i in range(1, (k + 1) // 2):
        total += term
        term *= h / (i + 0.5)
    return total


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def _random_chain(rng: np.random.Generator, alpha: float) -> tuple[BlackHoleState, CascadePolicy]:
    family = Family(rng.choice([f.value for f in Family]))
    eps = 0.125
    n = int(rng.integers(2, 9))
    stop_quanta = int(rng.integers(1, 4)) if alpha != 0.0 else int(rng.integers(0, 3))
    stop = stop_quanta * eps
    m = stop + n * eps
    q = j = 0.0
    qq = jq = None
    if family is not Family.SCHWARZSCHILD and rng.random() < 0.7:
        qq = 0.0625
        q = float(rng.integers(0, int(0.5 * m / qq) + 1)) * qq
    if family is Family.KERR_NEWMAN and rng.random() < 0.5:
        jq = 0.0625
        margin = m * m - q * q
        if margin > 0:
            j_max = 0.5 * m * math.sqrt(margin)
            jq_count = int(j_max / (2 * jq))
            j = float(rng.integers(0, jq_count + 1)) * jq
    state = BlackHoleState(family, m, q, j, alpha)
    policy = CascadePolicy(eps, stop_mass=stop, charge_quantum=qq, spin_quantum=jq)
    return state, policy


def suite_identities(seed: int = 0, alpha: float = 0.0) -> SuiteReport:
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    report = SuiteReport("identities")

    # Parikh-Wilczek form of the uncharged spectrum, bulk kernel route.
    n = 200_000
    m = rng.uniform(1e-3, 1.0, n) * 1000.0
    w = rng.uniform(0.0, 1.0, n) * m
    logw, valid = emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, 0.0, w)
    pw = -8.0 * np.pi * w * (m - w / 2.0)
    resid = np.max(np.abs(logw - pw) / (1.0 + np.abs(pw)))
    report.checks.append(
        _max_check("parikh_wilczek_match", resid, 1e-9, f"n={n}, scaled residual, valid={valid.all()}")
    )

    # Scalar operation agrees with the bulk kernel.
    worst = 0.0
    for i in range(0, n, n // 2000):
        v = emission_log_weight(BlackHoleState(Family.SCHWARZSCHILD, m[i]), Emission(w[i]))
        worst = max(worst, abs(v - logw[i]) / (1.0 + abs(logw[i])))
    report.checks.append(_max_check("scalar_matches_bulk", worst, 1e-11, "2000-point subsample"))

    # Charged-spectrum exponent against the closed-form radius expression.
    m, qv, w, qe, oracle = random_rn_tuples(rng, 20_000)
    logw, valid = emission_log_weights_bulk(Family.REISSNER_NORDSTROM, m, qv, 0.0, 0.0, w, qe)
    resid = np.max(np.abs(logw - oracle) / np.abs(oracle))
    report.checks.append(
        _max_check("rn_exponent_match", resid, 1e-9, f"n={m.size}, relative, valid={valid.all()}")
    )

    # Thermal limit: thermal - nonthermal = -4 pi omega^2 exactly.
    nt = 20_000
    m = rng.uniform(1e-3, 1.0, nt) * 1000.0
    w = rng.uniform(0.0, 1.0, nt) * np.minimum(m, 1.0)
    worst = 0.0
    for i in range(0, nt, max(1, nt // 5000)):
        s = BlackHoleState(Family.SCHWARZSCHILD, m[i])
        d = thermal_log_weight(s, w[i]) - emission_log_weight(s, Emission(w[i]))
        worst = max(worst, abs(d + 4.0 * math.pi * w[i] * w[i]))
    report.checks.append(_max_check("thermal_deviation_identity", worst, 1e-10, "5000-point sample"))

    # Corrected spectrum: entropy difference == prefactor + exponent oracle.
    alphas = [alpha] if alpha != 0.0 else [-1.0, -0.5, 0.5, 1.0]
    worst = 0.0
    for a in alphas:
        for _ in range(2000):
            mv = rng.uniform(0.5, 50.0)
            wv = rng.uniform(0.0, 0.9) * mv
            s = BlackHoleState(Family.SCHWARZSCHILD, mv, alpha=a)
            got = emission_log_weight(s, Emission(wv))
            r1, r2 = horizon_radius(s), 2.0 * (mv - wv)
            oracle = 2.0 * a * math.log(r2 / r1) + math.pi * (r2 * r2 - r1 * r1)
            worst = max(worst, abs(got - oracle))
    report.checks.append(_max_check("qg_correction_match", worst, 1e-10, f"alphas={alphas}"))

    # Telescoping of sampled chains across families and alpha.
    worst = 0.0
    for i, a in zip(range(300), [0.0, 1.0, -1.0] * 100):
        state, policy = _random_chain(rng, a)
        chain = sample_cascade(state, policy, seed, i)
        raw, _ = chain_log_probability(chain)
        drop = bh_entropy(chain.final_state) - bh_entropy(chain.initial)
        worst = max(worst, abs(raw - drop))
    report.checks.append(_max_check("chain_telescoping", worst, 1e-9, "300 chains, all families"))

    # Factorization p(w1+w2 | M) = p(w1 | M) p(w2 | M - w1).
    worst = 0.0
    for _ in range(5000):
        mv = rng.uniform(0.1, 10.0)
        w1 = rng.uniform(0.0, 0.6) * mv
        w2 = rng.uniform(0.0, 1.0) * (mv - w1)
        s = BlackHoleState(Family.SCHWARZSCHILD, mv)
        lhs = emission_log_weight(s, Emission(w1 + w2))
        rhs = emission_log_weight(s, Emission(w1)) + emission_log_weight(
            BlackHoleState(Family.SCHWARZSCHILD, mv - w1), Emission(w2)
        )
        worst = max(worst, abs(lhs - rhs))
    report.checks.append(_max_check("factorization_identity", worst, 1e-9, "5000 pairs"))

    # Family reductions are bitwise.
    exact = 0.0
    for _ in range(2000):
        mv = rng.uniform(0.1, 100.0)
        qv = rng.uniform(0.0, 1.0) * mv
        s_schw = bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, mv))
        s_rn0 = bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, mv))
        s_rn = bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, mv, qv))
        s_kn = bh_entropy(BlackHoleState(Family.KERR_NEWMAN, mv, qv))
        exact = max(exact, abs(s_rn0 - s_schw), abs(s_kn - s_rn))
    report.checks.append(_max_check("family_reduction_bitwise", exact, 0.0, "2000 draws"))

    # Unit-sum stability on a large grid.
    s = BlackHoleState(Family.SCHWARZSCHILD, 100.0)
    grid = build_spectrum(s, GridSpec(omega_max=100.0, n_omega=1_000_000), Normalization.UNIT_SUM)
    total = float(np.sum(grid.weights()))
    report.checks.append(_max_check("unitsum_total", abs(total - 1.0), 1e-10, "1e6 bins"))

    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------


def suite_typicality(seed: int = 0, alpha: float = 0.0) -> SuiteReport:
    t0 = time.perf_counter()
    report = SuiteReport("typicality")
    lab = typicality_lab(dim_b=4, dim_o=1 << 12, n_seeds=100, seed=seed)
    report.checks.append(
        _max_check("weights_l1_at_4096", lab.mean_l1_weights, 0.05, "100 seeds, dim_b=4")
    )
    ratio_ok = 0.35 <= lab.rms_ratio <= 0.7
    report.checks.append(
        Check(
            "offdiag_rms_halves",
            ratio_ok,
            lab.rms_ratio,
            0.7,
            f"rms {lab.offdiag_rms:.2e} -> {lab.offdiag_rms_scaled:.2e} at 4x dim_o",
        )
    )
    report.checks.append(
        _max_check("raw_mean_sq_near_one", abs(lab.mean_raw_sq - 1.0), 0.02, "paper-convention |C|^2")
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------


def suite_cascade(seed: int = 0, alpha: float = 0.0) -> SuiteReport:
    t0 = time.perf_counter()
    report = SuiteReport("cascade")
    # Binary quantum: float conservation is exact, not merely close.
    state = BlackHoleState(Family.SCHWARZSCHILD, 0.625)
    policy = CascadePolicy(energy_quantum=0.125)
    chains = enumerate_chains(state, policy)
    report.checks.append(
        Check("enumeration_count", len(chains) == 16, float(len(chains)), 16.0, "n=5 quanta")
    )
    raws = np.array([raw for _, raw, _ in chains])
    expect = -4.0 * math.pi * state.m * state.m
    report.checks.append(
        _max_check("enumeration_raw_equal", float(np.max(np.abs(raws - expect))), 1e-9,
                   "all chains at -4 pi M^2")
    )
    norms = np.array([nrm for _, _, nrm in chains])
    report.checks.append(
        _max_check("enumeration_norm_total", abs(float(logsumexp(norms))), 1e-9, "log-sum-exp of 16")
    )

    stats = cascade_ensemble_stats(state, policy, 200_000, seed, method="batch")
    expected = np.exp(norms) * stats.n_samples
    observed = np.array(
        [stats.identity_counts.get(chain_identity(chain, policy), 0) for chain, _, _ in chains],
        dtype=np.float64,
    )
    # Pearson's statistic, summed as scipy.stats.chisquare sums it.
    expected *= observed.sum() / expected.sum()
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    report.checks.append(
        _min_check("sampler_chisquare_p", chi2_sf(chi2, observed.size - 1), 0.01,
                   "2e5 batch samples vs enumeration")
    )

    worst = 0.0
    for i in range(200):
        chain = sample_cascade(state, policy, seed, i)
        total = chain.total_emission()
        worst = max(worst, abs(total.omega - (chain.initial.m - chain.final_state.m)))
    report.checks.append(_max_check("energy_conservation", worst, 0.0, "binary quantum, exact"))
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def suite_info(seed: int = 0, alpha: float = 0.0) -> SuiteReport:
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 404)))
    report = SuiteReport("info")

    worst = 0.0
    for _ in range(20_000):
        mv = rng.uniform(0.1, 10.0)
        w1 = rng.uniform(0.0, 0.5) * mv
        w2 = rng.uniform(0.0, 1.0) * (mv - w1)
        s = BlackHoleState(Family.SCHWARZSCHILD, mv)
        corr = pairwise_correlation(s, Emission(w1), Emission(w2))
        worst = max(worst, abs(corr - 8.0 * math.pi * w1 * w2))
    report.checks.append(_max_check("correlation_closed_form", worst, 1e-9, "2e4 pairs"))

    worst = 0.0
    for i in range(200):
        a = [0.0, 1.0, -1.0][i % 3]
        state, policy = _random_chain(rng, a)
        chain = sample_cascade(state, policy, seed, i)
        if not chain.is_complete:
            continue
        ledger = chain_information_ledger(chain)
        worst = max(worst, abs(ledger.residual))
    report.checks.append(_max_check("ledger_conservation", worst, 1e-9, "200 complete cascades"))

    s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
    mi = mutual_information(s, GridSpec(omega_max=0.5, n_omega=32))
    report.checks.append(_min_check("mi_nonnegative", mi.mi_numeric, -1e-10, "32x32 grid"))
    cov_identity = abs((mi.mi_moment_form - mi.mi_paper_form) - 8.0 * math.pi * mi.covariance)
    report.checks.append(_max_check("mi_covariance_identity", cov_identity, 1e-10, ""))

    big = BlackHoleState(Family.SCHWARZSCHILD, 10.0)
    spec = GridSpec(omega_max=0.01, n_omega=64)
    cond = conditional_entropy(big, build_spectrum(big, spec, Normalization.UNIT_SUM))
    rel = abs(cond.exact - cond.lowenergy) / cond.exact
    report.checks.append(_max_check("lowenergy_approximation", rel, 1e-4, "M=10, omega<=0.01"))

    report.wall_time_s = time.perf_counter() - t0
    return report


_SUITE_FUNCS = {
    "identities": suite_identities,
    "typicality": suite_typicality,
    "cascade": suite_cascade,
    "info": suite_info,
}


def run_suites(suite: str, seed: int = 0, alpha: float = 0.0) -> list[SuiteReport]:
    """Run one suite by name, or all of them; validates the alpha hook."""
    # The probe state rejects corrupted physics input (e.g. alpha = NaN)
    # before any suite runs.
    BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=alpha)
    if suite == "all":
        names = list(SUITES)
    elif suite in _SUITE_FUNCS:
        names = [suite]
    else:
        raise UsageError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    return [_SUITE_FUNCS[name](seed=seed, alpha=alpha) for name in names]
