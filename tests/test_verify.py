"""Structure and behavior of the verification suites."""

import dataclasses
import math
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bhspectra import DomainError, ReducedDensity, UsageError, typicality, verify
from bhspectra.blackholes import BlackHoleState, Emission, Family, bh_entropy, horizon_radius
from bhspectra.information import pairwise_correlation
from bhspectra.spectrum import emission_log_weight, thermal_log_weight
from bhspectra.verify import (
    SUITES,
    _random_chain,
    chi2_sf,
    random_rn_tuples,
    rn_exponent_oracle,
    run_suites,
    suite_cascade,
    suite_identities,
    suite_info,
    suite_typicality,
)


def test_fast_suites_pass_with_default_seed():
    for report in (suite_cascade(seed=0), suite_typicality(seed=0)):
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
        assert report.wall_time_s > 0.0


def test_report_serialization():
    report = suite_cascade(seed=0)
    payload = report.to_json_dict()
    assert payload["suite"] == "cascade"
    assert {c["name"] for c in payload["checks"]} == {c.name for c in report.checks}
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "measured", "tolerance", "detail"}


def test_offdiag_rms_scale_sees_scaled_offdiagonals(monkeypatch):
    # Off-diagonals times 3 sqrt(2), as if E|z|^2 were 18; the matrix stays
    # Hermitian with its trace. The ratio check cannot see this; the scale can.
    sample = typicality.sample_reduced_density

    def scaled(ledger, seed):
        rho, raw = sample(ledger, seed)
        m = rho.matrix * (3.0 * math.sqrt(2.0))
        np.fill_diagonal(m, np.diag(rho.matrix))
        return ReducedDensity(m), raw

    monkeypatch.setattr(typicality, "sample_reduced_density", scaled)
    report = suite_typicality(seed=0)
    assert [c.name for c in report.checks if not c.passed] == ["offdiag_rms_scale"]


def test_all_runs_every_suite():
    assert set(SUITES) == {"identities", "typicality", "cascade", "info"}


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_suites("bogus")


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0)], ids=["float", "np.float64"])
@pytest.mark.parametrize("suite", ["cascade", "all"])
def test_non_integer_seed_is_usage_error(suite, seed):
    with pytest.raises(UsageError, match="seed must be a non-negative integer"):
        run_suites(suite, seed)


def test_corrupted_alpha_rejected_before_running():
    with pytest.raises(DomainError):
        run_suites("cascade", alpha=float("nan"))


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    x = np.concatenate([np.geomspace(1e-8, 1.0, 60), np.linspace(0.0, 120.0, 1201)[1:]])
    for k in range(1, 40):
        want = chi2.sf(x, k)
        got = np.array([chi2_sf(v, k) for v in x.tolist()])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"k={k}")
    assert chi2_sf(0.0, 15) == 1.0


def test_sampler_chisquare_passes_at_a_seed_whose_own_draws_fail():
    # Drawn from --seed 1548685454, the ensemble read p = 6.4e-3 < 0.01.
    report = suite_cascade(seed=1548685454)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_sampler_chisquare_fails_a_cdf_that_disagrees_with_its_row(monkeypatch):
    # Swap the first two channels' probabilities in every row's CDF only: the
    # sampler draws the swapped law, enumeration reads the row's logp.
    from bhspectra import cascade

    build = cascade._TransitionTable.__missing__

    def swapped(self, key):
        row = build(self, key)
        if len(row.cdf) > 1:
            cdf = (row.cdf[1] - row.cdf[0], *row.cdf[1:])
            row = self[key] = dataclasses.replace(row, cdf=cdf)
        return row

    cascade._cached_table.cache_clear()
    monkeypatch.setattr(cascade._TransitionTable, "__missing__", swapped)
    try:
        checks = {c.name: c for c in suite_cascade(seed=0).checks}
    finally:
        cascade._cached_table.cache_clear()
    assert [c.name for c in checks.values() if not c.passed] == ["sampler_chisquare_p"]


def test_cascade_suite_runs_without_scipy(tmp_path):
    # A fresh interpreter, so scipy modules loaded by other tests do not count.
    code = (
        "import sys\n"
        "from bhspectra.cli import main\n"
        f"assert main(['verify', '--suite', 'cascade', '--output-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# The per-draw scalar loops that the vector checks replaced, kept as their
# oracle: one rng.uniform call, BlackHoleState and scalar weight per draw.


def _scalar_identities(seed: int, alpha: float) -> dict[str, float]:
    """Measured values of suite_identities' vector checks, from the scalar
    route, drawing from the suite's generator in the suite's order."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    rng.uniform(1e-3, 1.0, 200_000)  # parikh_wilczek_match
    rng.uniform(0.0, 1.0, 200_000)
    random_rn_tuples(rng, 20_000)  # rn_exponent_match
    out = {}

    nt = 20_000
    m = rng.uniform(1e-3, 1.0, nt) * 1000.0
    w = rng.uniform(0.0, 1.0, nt) * np.minimum(m, 1.0)
    worst = 0.0
    for i in range(0, nt, max(1, nt // 5000)):
        s = BlackHoleState(Family.SCHWARZSCHILD, m[i])
        d = thermal_log_weight(s, w[i]) - emission_log_weight(s, Emission(w[i]))
        worst = max(worst, abs(d + 4.0 * math.pi * w[i] * w[i]))
    out["thermal_deviation_identity"] = worst

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
    out["qg_correction_match"] = worst

    for a in [0.0, 1.0, -1.0] * 100:  # chain_telescoping
        _random_chain(rng, a)

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
    out["factorization_identity"] = worst

    exact = 0.0
    for _ in range(2000):
        mv = rng.uniform(0.1, 100.0)
        qv = rng.uniform(0.0, 1.0) * mv
        s_schw = bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, mv))
        s_rn0 = bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, mv))
        s_rn = bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, mv, qv))
        s_kn = bh_entropy(BlackHoleState(Family.KERR_NEWMAN, mv, qv))
        exact = max(exact, abs(s_rn0 - s_schw), abs(s_kn - s_rn))
    out["family_reduction_bitwise"] = exact
    return out


def _scalar_correlation(seed: int) -> float:
    """suite_info's correlation_closed_form from one scalar draw per double."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 404)))
    worst = 0.0
    for _ in range(20_000):
        mv = rng.uniform(0.1, 10.0)
        w1 = rng.uniform(0.0, 0.5) * mv
        w2 = rng.uniform(0.0, 1.0) * (mv - w1)
        s = BlackHoleState(Family.SCHWARZSCHILD, mv)
        corr = pairwise_correlation(s, Emission(w1), Emission(w2))
        worst = max(worst, abs(corr - 8.0 * math.pi * w1 * w2))
    return worst


@pytest.mark.parametrize("seed,alpha", [(0, 0.0), (3, 0.0), (7, 0.0), (0, 0.3), (7, -2.0)])
def test_identities_match_the_scalar_oracle_bitwise(seed, alpha):
    measured = {c.name: c.measured for c in suite_identities(seed=seed, alpha=alpha).checks}
    want = _scalar_identities(seed, alpha)
    assert {name: measured[name].hex() for name in want} == {
        name: float(value).hex() for name, value in want.items()
    }


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_qg_correction_match_sees_a_wrong_alpha(monkeypatch, seed):
    # Each of the four corrected batches priced with the next alpha.
    kernel = verify._schwarzschild_log_weights
    following = {-1.0: -0.5, -0.5: 0.5, 0.5: 1.0, 1.0: -1.0}
    monkeypatch.setattr(verify, "_schwarzschild_log_weights",
                        lambda m, w, alpha=0.0: kernel(m, w, following.get(alpha, alpha)))
    (check,) = [c for c in suite_identities(seed=seed).checks if c.name == "qg_correction_match"]
    assert not check.passed and check.measured > 1.0


@pytest.mark.parametrize("seed,alpha", [(0, 0.0), (5, 1.0)])
def test_correlation_matches_the_scalar_oracle_bitwise(seed, alpha):
    (check,) = [c for c in suite_info(seed=seed, alpha=alpha).checks
                if c.name == "correlation_closed_form"]
    assert check.measured.hex() == float(_scalar_correlation(seed)).hex()


@pytest.mark.parametrize("size", [(1000, 3), (4, 250, 3)])
def test_array_bounds_draw_the_interleaved_scalar_doubles(size):
    scalar_rng, vector_rng = (np.random.default_rng(np.random.SeedSequence((3, 101)))
                              for _ in range(2))
    n = math.prod(size[:-1])
    scalar = np.array([[scalar_rng.uniform(0.1, 10.0), scalar_rng.uniform(0.0, 0.6),
                        scalar_rng.uniform(0.0, 1.0)] for _ in range(n)])
    vector = vector_rng.uniform([0.1, 0.0, 0.0], [10.0, 0.6, 1.0], size=size)
    assert vector.reshape(n, 3).tobytes() == scalar.tobytes()
    assert scalar_rng.random() == vector_rng.random()  # the generators stay in step


_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def test_rn_oracle_is_correctly_rounded_on_the_seed_0_tuples(monkeypatch):
    # Every tuple rn_exponent_match draws at seed 0 (the 20,000 kept and the
    # rejected ones), recomputed in 40-digit decimal from the same doubles.
    calls = []

    def recording(*args):
        calls.append((args, rn_exponent_oracle(*args)))
        return calls[-1][1]

    monkeypatch.setattr("bhspectra.verify.rn_exponent_oracle", recording)
    rng = np.random.default_rng(np.random.SeedSequence((0, 101)))
    rng.uniform(1e-3, 1.0, 200_000)  # parikh_wilczek_match
    rng.uniform(0.0, 1.0, 200_000)
    assert random_rn_tuples(rng, 20_000)[0].size == 20_000
    args = [np.concatenate(x) for x in zip(*(a for a, _ in calls))]
    got = np.concatenate([r for _, r in calls])
    want = []
    with localcontext() as ctx:
        ctx.prec = 40
        for m, w, q0, q2 in zip(*(map(Decimal, x.tolist()) for x in args)):
            rp = (m - w) + ((m - w) ** 2 - q2 * q2).sqrt()
            r0 = m + (m * m - q0 * q0).sqrt()
            want.append(float(_PI_40 * (rp * rp - r0 * r0)))
    assert got.size > 20_000
    assert got.tolist() == want
