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

from .blackholes import BlackHoleState, Emission, Family, bh_entropy, entropy_grid, logsumexp
from .cascade import (
    CascadePolicy,
    cascade_ensemble_stats,
    chain_identity,
    chain_log_probability,
    enumerate_chains,
    sample_cascade,
)
from .errors import SUITES, UsageError
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
)
from .typicality import lab_ledger, typicality_lab


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


# Double-double arithmetic for the RN oracle: a value is an unevaluated sum
# (hi, lo) of float64 arrays, good to ~2^-104 relative. It shares none of the
# package's own exact-product code.
_PI_DD = (math.pi, 1.2246467991473532e-16)


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _dd_add(x, y, sign=1.0):
    s, e = _two_sum(x[0], sign * y[0])
    return _two_sum(s, e + x[1] + sign * y[1])


def _dd_mul(x, y):
    a, b = x[0], y[0]
    ta, tb = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1: Dekker's split in halves
    ah, bh = ta - (ta - a), tb - (tb - b)
    al, bl, p = a - ah, b - bh, a * b
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # p + e == a b exactly
    return _two_sum(p, e + (a * y[1] + x[1] * b))


def _dd_sqrt(x):
    s = np.sqrt(x[0])
    p, e = _dd_mul((s, 0.0), (s, 0.0))
    return _two_sum(s, ((x[0] - p) - e + x[1]) / (2.0 * s))  # one Newton step


def rn_exponent_oracle(m, w, q0, q2) -> np.ndarray:
    """pi R'^2 - pi R^2 with R = M + sqrt(M^2 - Q^2) at (m, q0) and R' at
    (m - w, q2), in double-double, rounded to float64."""

    def radius(mass, q):
        return _dd_add(mass, _dd_sqrt(_dd_add(_dd_mul(mass, mass), _dd_mul((q, 0.0), (q, 0.0)),
                                              -1.0)))

    rp, r0 = radius(_two_sum(m, -w), q2), radius((m, 0.0), q0)
    return _dd_mul(_PI_DD, _dd_add(_dd_mul(rp, rp), _dd_mul(r0, r0), -1.0))[0]


def random_rn_tuples(rng: np.random.Generator, n: int):
    """Random valid (M, Q, omega, q) charged-emission tuples plus the
    closed-form exponent pi R'^2 - pi R^2 from rn_exponent_oracle.

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
        oracle = rn_exponent_oracle(m, w, qv, q_rem)
        keep = np.abs(oracle) > 1e-3
        take = min(int(np.count_nonzero(keep)), n - kept)
        idx = np.nonzero(keep)[0][:take]
        out.append(np.stack([m[idx], qv[idx], w[idx], qe[idx], oracle[idx]]))
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


def _schwarzschild_log_weights(m, omega, alpha: float = 0.0) -> np.ndarray:
    """Bulk emission log-weights of Schwarzschild holes of masses m."""
    return emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, alpha, omega)[0]


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
    m, w = m[:: nt // 5000], w[:: nt // 5000]
    d = -8.0 * math.pi * m * w - _schwarzschild_log_weights(m, w)
    worst = np.max(np.abs(d + 4.0 * math.pi * w * w))
    report.checks.append(_max_check("thermal_deviation_identity", worst, 1e-10, "5000-point sample"))

    # Corrected spectrum: entropy difference == prefactor + exponent oracle.
    alphas = [alpha] if alpha != 0.0 else [-1.0, -0.5, 0.5, 1.0]
    draws = rng.uniform([0.5, 0.0], [50.0, 0.9], size=(len(alphas), 2000, 2))
    worst = 0.0
    for a, (mv, u) in zip(alphas, draws.transpose(0, 2, 1)):
        wv = u * mv
        r1, r2 = 2.0 * mv, 2.0 * (mv - wv)
        oracle = 2.0 * a * np.log(r2 / r1) + math.pi * (r2 * r2 - r1 * r1)
        worst = max(worst, np.max(np.abs(_schwarzschild_log_weights(mv, wv, a) - oracle)))
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
    mv, u1, u2 = rng.uniform([0.1, 0.0, 0.0], [10.0, 0.6, 1.0], size=(5000, 3)).T
    w1 = u1 * mv
    w2 = u2 * (mv - w1)
    lhs = _schwarzschild_log_weights(mv, w1 + w2)
    rhs = _schwarzschild_log_weights(mv, w1) + _schwarzschild_log_weights(mv - w1, w2)
    worst = np.max(np.abs(lhs - rhs))
    report.checks.append(_max_check("factorization_identity", worst, 1e-9, "5000 pairs"))

    # Family reductions are bitwise.
    mv, u = rng.uniform([0.1, 0.0], [100.0, 1.0], size=(2000, 2)).T
    qv = u * mv
    s_schw = entropy_grid(Family.SCHWARZSCHILD, mv, 0.0, 0.0, 0.0)
    s_rn0 = entropy_grid(Family.REISSNER_NORDSTROM, mv, 0.0, 0.0, 0.0)
    s_rn = entropy_grid(Family.REISSNER_NORDSTROM, mv, qv, 0.0, 0.0)
    s_kn = entropy_grid(Family.KERR_NEWMAN, mv, qv, 0.0, 0.0)
    exact = max(np.max(np.abs(s_rn0 - s_schw)), np.max(np.abs(s_kn - s_rn)))
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
    dim_b, dim_o = 4, 1 << 12
    lab = typicality_lab(dim_b=dim_b, dim_o=dim_o, n_seeds=100, seed=seed)
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
    # A block entry of W_b sums Omega_b products of unit normals, so after
    # the trace (~dim_U) it has E|rho_ij|^2 = Omega_b / dim_U^2: the RMS over
    # the d(d - 1) off-diagonals. The mean of per-draw RMS sits a few % below.
    base = lab_ledger(dim_b, dim_o)
    law = math.sqrt(sum(g * (g - 1) * n for g, n in base.levels) / (dim_b * (dim_b - 1)))
    law /= base.dim_u
    scale = lab.offdiag_rms / law
    report.checks.append(
        Check("offdiag_rms_scale", 0.7 <= scale <= 1.2, scale, 1.2, f"rms against law {law:.3e}")
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

    mv, u1, u2 = rng.uniform([0.1, 0.0, 0.0], [10.0, 0.5, 1.0], size=(20_000, 3)).T
    w1 = u1 * mv
    w2 = u2 * (mv - w1)
    corr = (_schwarzschild_log_weights(mv, w1 + w2) - _schwarzschild_log_weights(mv, w1)
            - _schwarzschild_log_weights(mv, w2))
    worst = np.max(np.abs(corr - 8.0 * math.pi * w1 * w2))
    # The scalar route on every 10th pair, folded into the same max.
    for m, a, b in zip(mv[::10].tolist(), w1[::10].tolist(), w2[::10].tolist()):
        c = pairwise_correlation(BlackHoleState(Family.SCHWARZSCHILD, m), Emission(a), Emission(b))
        worst = max(worst, abs(c - 8.0 * math.pi * a * b))
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
    # before any suite runs; numpy seeds the suites and takes no negative seed.
    BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=alpha)
    if seed < 0:
        raise UsageError("seed must be a non-negative integer")
    if suite == "all":
        names = list(SUITES)
    elif suite in _SUITE_FUNCS:
        names = [suite]
    else:
        raise UsageError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    return [_SUITE_FUNCS[name](seed=seed, alpha=alpha) for name in names]
