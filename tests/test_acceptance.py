"""Acceptance gate: one test per release criterion, each printing a verdict.

Every expected value is computed from a test-side oracle (closed forms,
exhaustive enumeration, chi-square against enumeration, shell counting);
tolerances are fixed here, not tuned. Run with `pytest tests/test_acceptance.py -v -s`
to see the measured margins.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy.stats import chisquare

from bhspectra import (
    BlackHoleState,
    CascadePolicy,
    Emission,
    Family,
    bh_entropy,
    cascade_ensemble_stats,
    chain_information_ledger,
    chain_log_probability,
    emission_log_weight,
    enumerate_chains,
    horizon_radius,
    sample_cascade,
    thermal_log_weight,
    typicality_lab,
)
from bhspectra.cascade import chain_identity
from bhspectra.spectrum import emission_log_weights_bulk
from bhspectra.verify import rn_exponent_oracle


def verdict(number: int, name: str, detail: str) -> None:
    print(f"[acceptance {number}] {name}: PASS ({detail})")


def test_criterion_1_parikh_wilczek_identity():
    # |log w + 8 pi w (M - w/2)| <= 1e-9 (1 + |value|) over 1e6 random pairs,
    # M in (0, 1e3], w in (0, M]; evaluated through the bulk kernel (the same
    # entropy-difference route the grid builder uses), with the scalar
    # operation cross-checked on a 2e4 subsample.
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 1_000_000
    m = rng.uniform(0.0, 1.0, n) * 1000.0 + 1e-9
    w = rng.uniform(0.0, 1.0, n) * m
    logw, valid = emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, 0.0, w)
    assert valid.all()
    oracle = -8.0 * np.pi * w * (m - w / 2.0)
    scaled = np.abs(logw - oracle) / (1.0 + np.abs(oracle))
    worst = float(np.max(scaled))
    assert worst <= 1e-9

    worst_scalar = 0.0
    for i in range(0, n, n // 20_000):
        v = emission_log_weight(BlackHoleState(Family.SCHWARZSCHILD, m[i]), Emission(w[i]))
        worst_scalar = max(worst_scalar, abs(v - logw[i]) / (1.0 + abs(logw[i])))
    assert worst_scalar <= 1e-11

    dt = time.perf_counter() - t0
    assert dt < 5.0
    verdict(1, "parikh-wilczek identity",
            f"max scaled residual {worst:.2e} <= 1e-9, scalar/bulk {worst_scalar:.2e}, {dt:.2f}s")


def test_criterion_2_reissner_nordstrom_identity():
    # Charged-spectrum exponent == pi R'^2 - pi R^2 to 1e-9 relative over 1e5
    # random valid (M, Q, w, q). Tuples whose exponent is within 1e-3 of zero
    # are redrawn: a relative comparison needs the value bounded away from 0.
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 100_000
    ms, qs, ws, qes, oracles = [], [], [], [], []
    kept = 0
    while kept < n:
        batch = max(4096, int(1.3 * (n - kept)))
        m = rng.uniform(0.5, 10.0, batch)
        qv = rng.uniform(0.0, 0.95, batch) * m
        w = rng.uniform(0.05, 0.9, batch) * m
        q_rem = rng.uniform(-0.99, 0.99, batch) * (m - w)
        qe = qv - q_rem
        oracle = rn_exponent_oracle(m, w, qv, q_rem)
        keep = np.nonzero(np.abs(oracle) > 1e-3)[0][: n - kept]
        ms.append(m[keep]); qs.append(qv[keep]); ws.append(w[keep]); qes.append(qe[keep])
        oracles.append(oracle[keep])
        kept += keep.size
    m, qv, w, qe, oracle = (np.concatenate(x) for x in (ms, qs, ws, qes, oracles))
    logw, valid = emission_log_weights_bulk(Family.REISSNER_NORDSTROM, m, qv, 0.0, 0.0, w, qe)
    assert valid.all()
    worst = float(np.max(np.abs(logw - oracle) / np.abs(oracle)))
    assert worst <= 1e-9

    worst_scalar = 0.0
    for i in range(0, n, n // 2000):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, m[i], qv[i])
        v = emission_log_weight(s, Emission(w[i], qe[i]))
        worst_scalar = max(worst_scalar, abs(v - oracle[i]) / abs(oracle[i]))
    assert worst_scalar <= 1e-9

    dt = time.perf_counter() - t0
    assert dt < 5.0
    verdict(2, "charged-spectrum identity",
            f"max relative residual {worst:.2e} <= 1e-9 over 1e5 tuples, {dt:.2f}s")


def _random_cascade_case(rng: np.random.Generator, alpha: float):
    family = (Family.SCHWARZSCHILD, Family.REISSNER_NORDSTROM, Family.KERR_NEWMAN)[
        int(rng.integers(0, 3))
    ]
    eps = 0.125
    stop = eps * (int(rng.integers(1, 3)) if alpha != 0.0 else int(rng.integers(0, 2)))
    n = int(rng.integers(2, 8))
    m = stop + n * eps
    q = j = 0.0
    qq = jq = None
    if family is not Family.SCHWARZSCHILD:
        qq = 0.0625
        q = int(rng.integers(0, max(1, int(0.4 * m / qq)))) * qq
    if family is Family.KERR_NEWMAN:
        jq = 0.0625
    state = BlackHoleState(family, m, q, j, alpha)
    policy = CascadePolicy(eps, stop_mass=stop, charge_quantum=qq, spin_quantum=jq)
    return state, policy


def test_criterion_3_factorization_and_telescoping():
    # 1e4 random chains across all families and alpha in {0, +1, -1}: the raw
    # chain log-probability equals S(final) - S(initial) to 1e-9. For the
    # 5-quantum enumeration every one of the 16 chains sits exactly at
    # -4 pi M^2 (total evaporation wipes out the full entropy).
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(10_000):
        alpha = (0.0, 1.0, -1.0)[i % 3]
        state, policy = _random_cascade_case(rng, alpha)
        chain = sample_cascade(state, policy, seed=3, sample_index=i)
        raw, _ = chain_log_probability(chain)
        drop = bh_entropy(chain.final_state) - bh_entropy(chain.initial)
        worst = max(worst, abs(raw - drop))
    assert worst <= 1e-9

    m = 0.625
    chains = enumerate_chains(
        BlackHoleState(Family.SCHWARZSCHILD, m), CascadePolicy(energy_quantum=0.125)
    )
    assert len(chains) == 16
    worst_enum = max(abs(raw + 4.0 * math.pi * m * m) for _, raw, _ in chains)
    assert worst_enum <= 1e-9

    dt = time.perf_counter() - t0
    assert dt < 10.0
    verdict(3, "factorization/telescoping",
            f"chain residual {worst:.2e}, enumeration residual {worst_enum:.2e}, {dt:.2f}s")


def test_criterion_4_thermal_limit_identity():
    # thermal - nonthermal = -4 pi w^2 to 1e-10 absolute for M <= 1e3, w <= 1.
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10_000):
        m = rng.uniform(0.0, 1.0) * 1000.0 + 1e-3
        w = rng.uniform(0.0, 1.0) * min(m, 1.0)
        s = BlackHoleState(Family.SCHWARZSCHILD, m)
        diff = thermal_log_weight(s, w) - emission_log_weight(s, Emission(w))
        worst = max(worst, abs(diff + 4.0 * math.pi * w * w))
    assert worst <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 1.0
    verdict(4, "thermal-limit identity", f"max |diff + 4 pi w^2| = {worst:.2e} <= 1e-10, {dt:.2f}s")


def test_criterion_5_correlation_witness_and_ledger():
    # pairwise correlation == 8 pi w1 w2 to 1e-9 over 1e5 random pairs, and
    # the per-chain self-information ledger balances S(initial) - S(final)
    # to 1e-9 over 1e3 complete cascades.
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    n = 100_000
    m = rng.uniform(0.1, 10.0, n)
    w1 = rng.uniform(0.0, 0.5, n) * m
    w2 = rng.uniform(0.0, 1.0, n) * (m - w1 - 1e-12)
    lw12, v = emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, 0.0, w1 + w2)
    lw1, _ = emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, 0.0, w1)
    lw2, _ = emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, 0.0, w2)
    assert v.all()
    corr = lw12 - lw1 - lw2
    worst = float(np.max(np.abs(corr - 8.0 * np.pi * w1 * w2)))
    assert worst <= 1e-9

    # scalar route spot check through pairwise_correlation itself
    from bhspectra import pairwise_correlation

    worst_scalar = 0.0
    for i in range(0, n, n // 1000):
        got = pairwise_correlation(
            BlackHoleState(Family.SCHWARZSCHILD, m[i]), Emission(w1[i]), Emission(w2[i])
        )
        worst_scalar = max(worst_scalar, abs(got - 8.0 * math.pi * w1[i] * w2[i]))
    assert worst_scalar <= 1e-9

    worst_ledger = 0.0
    for i in range(1000):
        alpha = (0.0, 1.0, -1.0)[i % 3]
        eps = 0.125
        stop = eps if alpha != 0.0 else 0.0
        n_quanta = 2 + i % 6
        state = BlackHoleState(Family.SCHWARZSCHILD, stop + n_quanta * eps, alpha=alpha)
        policy = CascadePolicy(eps, stop_mass=stop)
        chain = sample_cascade(state, policy, seed=5, sample_index=i)
        ledger = chain_information_ledger(chain)
        worst_ledger = max(worst_ledger, abs(ledger.residual))
    assert worst_ledger <= 1e-9

    dt = time.perf_counter() - t0
    assert dt < 10.0
    verdict(5, "correlation witness + information ledger",
            f"correlation residual {worst:.2e}, ledger residual {worst_ledger:.2e}, {dt:.2f}s")


def test_criterion_6_typicality_lab():
    # dim_b = 4, dim_o = 2^12, 100 seeds: the per-level diagonal sits within
    # 0.05 (L1) of the shell-counting weights, and quadrupling dim_o halves
    # the off-diagonal RMS (ratio within [0.35, 0.7]).
    t0 = time.perf_counter()
    lab = typicality_lab(dim_b=4, dim_o=1 << 12, n_seeds=100, seed=0, scale_factor=4)
    assert lab.mean_l1_weights < 0.05
    assert 0.35 <= lab.rms_ratio <= 0.7
    dt = time.perf_counter() - t0
    assert dt < 60.0
    verdict(6, "typicality lab",
            f"L1 {lab.mean_l1_weights:.2e} < 0.05, rms ratio {lab.rms_ratio:.3f} in [0.35, 0.7], {dt:.2f}s")


def test_criterion_7_sampler_chisquare():
    # 1e6 sampled 5-quantum cascades vs the exhaustive enumeration: the
    # empirical chain-identity frequencies pass chi-square at p = 0.01.
    t0 = time.perf_counter()
    state = BlackHoleState(Family.SCHWARZSCHILD, 0.625)
    policy = CascadePolicy(energy_quantum=0.125)
    chains = enumerate_chains(state, policy)
    assert len(chains) == 16
    probs = np.array([math.exp(nm) for _, _, nm in chains])
    idents = [chain_identity(c, policy) for c, _, _ in chains]

    stats = cascade_ensemble_stats(state, policy, 1_000_000, seed=7, method="batch")
    observed = np.array([stats.identity_counts.get(i, 0) for i in idents], dtype=np.float64)
    assert observed.sum() == stats.n_samples  # enumeration is exhaustive
    result = chisquare(observed, probs * observed.sum() / probs.sum())
    assert result.pvalue >= 0.01
    assert float(np.min(probs)) * stats.n_samples > 20  # chi-square validity

    dt = time.perf_counter() - t0
    assert dt < 30.0
    verdict(7, "sampler consistency", f"chi-square p = {result.pvalue:.3f} >= 0.01, {dt:.2f}s")


def test_criterion_8_quantum_gravity_correction():
    # For alpha != 0 the single corrected-entropy difference must equal
    # ln[(R'/R)^(2 alpha)] + pi (R'^2 - R^2), prefactor and exponent
    # evaluated separately here from horizon radii.
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for alpha in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        for _ in range(2000):
            m = rng.uniform(0.5, 50.0)
            w = rng.uniform(0.0, 0.9) * m
            s = BlackHoleState(Family.SCHWARZSCHILD, m, alpha=alpha)
            got = emission_log_weight(s, Emission(w))
            r0 = horizon_radius(s)
            r1 = 2.0 * (m - w)
            oracle = 2.0 * alpha * math.log(r1 / r0) + math.pi * (r1 * r1 - r0 * r0)
            worst = max(worst, abs(got - oracle))
    assert worst <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 1.0
    verdict(8, "quantum-gravity correction", f"max residual {worst:.2e} <= 1e-10, {dt:.2f}s")


def test_criterion_9_determinism_gate(tmp_path):
    # Fresh `verify --suite all` exits 0; repeated runs with fixed seeds are
    # byte-identical apart from the manifest timing block.
    t0 = time.perf_counter()

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bhspectra", *argv], capture_output=True, text=True
        )

    proc = cli("verify", "--suite", "all", "--seed", "0", "--output-dir", str(tmp_path / "v"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "v/report.json").read_text())
    assert report["all_passed"] is True

    spectrum_args = ("spectrum", "--mass", "2", "--omega-max", "2", "--bins", "64",
                     "--normalization", "unitsum", "--seed", "9")
    cascade_args = ("cascade", "--mass", "0.75", "--energy-quantum", "0.125",
                    "--n-samples", "50", "--seed", "9")
    for args, fname in ((spectrum_args, "spectrum.csv"), (cascade_args, "chains.jsonl")):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli(*args, "--output-dir", str(out_a)).returncode == 0
        assert cli(*args, "--output-dir", str(out_b)).returncode == 0
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        ma.pop("timing"), mb.pop("timing")
        ma["config"].pop("output_dir"), mb["config"].pop("output_dir")
        assert ma == mb

    dt = time.perf_counter() - t0
    assert dt < 180.0
    verdict(9, "determinism gate", f"verify all green, reruns byte-identical, {dt:.1f}s")
