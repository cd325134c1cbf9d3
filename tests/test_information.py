"""Entropy, conditional entropy, correlations, mutual information, ledgers."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhspectra import (
    BlackHoleState,
    CascadePolicy,
    CascadeStep,
    DomainError,
    Emission,
    EmissionChain,
    Family,
    GridSpec,
    MutualInformationResult,
    Normalization,
    SpectrumGrid,
    Termination,
    UsageError,
    apply_emission,
    bh_entropy,
    build_info_report,
    build_spectrum,
    chain_information_ledger,
    conditional_entropy,
    emission_log_weight,
    emission_log_weights,
    enumerate_chains,
    mutual_information,
    pairwise_correlation,
    radiation_entropy,
    sample_cascade,
    unit_sum,
)
from bhspectra import blackholes
from bhspectra.blackholes import entropy_grid, logsumexp
from bhspectra.information import ConditionalEntropyResult

SCHW1 = BlackHoleState(Family.SCHWARZSCHILD, 1.0)


def row_by_row_joint(state, spec):
    """Oracle for mutual_information's joint: one emission_log_weights call
    per remnant mass M - w_i, then a log-sum-exp over the open pairs."""
    w = spec.omega_nodes()
    logq = np.full((w.size, w.size), -np.inf)
    lw1, v1 = emission_log_weights(state, w)
    for i in range(w.size):
        if not v1[i]:
            continue
        lw2, v2 = emission_log_weights(state.with_hairs(state.m - w[i], 0.0, 0.0), w)
        row = lw1[i] + lw2
        row[~v2] = -np.inf
        logq[i] = row
    valid = np.isfinite(logq)
    log_z = logsumexp(logq[valid])
    with np.errstate(under="ignore"):
        return w, np.where(valid, np.exp(logq - log_z), 0.0)


def row_by_row_mutual_information(state, spec):
    w, q = row_by_row_joint(state, spec)
    q1, q2 = q.sum(axis=1), q.sum(axis=0)
    support = q > 0.0
    outer = np.outer(q1, q2)
    mi = float(np.sum(q[support] * (np.log(q[support]) - np.log(outer[support]))))
    mean1 = float(np.sum(q1 * w))
    mean2 = float(np.sum(q2 * w))
    moment = float(np.sum(q * np.outer(w, w)))
    return MutualInformationResult(
        mi_numeric=mi,
        mi_paper_form=8.0 * np.pi * mean1 * mean2,
        mi_moment_form=8.0 * np.pi * moment,
        mean_w1=mean1,
        mean_w2=mean2,
        covariance=moment - mean1 * mean2,
    )


def manual_unitsum_grid(omega_max, logw):
    """Unit-sum spectrum of SCHW1 with hand-set log-weights on the nodes of
    GridSpec(omega_max, len(logw)), for corner cases."""
    logw = np.asarray(logw, dtype=float)
    return SpectrumGrid(
        log_weight=logw,
        valid=np.ones(logw.shape, dtype=bool),
        normalization=Normalization.UNIT_SUM,
        source_state=SCHW1,
        grid_spec=GridSpec(omega_max=omega_max, n_omega=logw.size),
        log_norm=0.0,
    )


class TestRadiationEntropy:
    def test_single_bin_zero(self):
        grid = manual_unitsum_grid(0.1, [0.0])
        assert radiation_entropy(grid) == 0.0

    def test_two_equal_bins_ln2(self):
        grid = manual_unitsum_grid(0.2, [math.log(0.5)] * 2)
        assert radiation_entropy(grid) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_many_leaves_match_the_gathered_sum_bitwise(self):
        # 60,000 bins, 8 leaves: the sum has the bits of np.sum over the
        # valid bins gathered.
        state = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        spec = GridSpec(omega_max=1.5, n_omega=15_000, q_step=0.25, n_q=4)
        grid = build_spectrum(state, spec, Normalization.UNIT_SUM)
        logp = grid.log_weight[grid.valid]
        p = np.exp(logp)
        want = 0.0 - np.sum(np.where(p > 0.0, p * logp, 0.0))
        assert np.float64(radiation_entropy(grid)).tobytes() == want.tobytes()

    def test_raw_spectrum_rejected(self):
        grid = build_spectrum(SCHW1, GridSpec(omega_max=1.0, n_omega=8))
        with pytest.raises(UsageError):
            radiation_entropy(grid)

    def test_against_extended_precision_oracle(self):
        # Independent route: tunneling closed form in longdouble, normalized
        # and summed in longdouble.
        spec = GridSpec(omega_max=1.0, n_omega=64)
        grid = build_spectrum(SCHW1, spec, Normalization.UNIT_SUM)
        w = spec.omega_nodes().astype(np.longdouble)
        logw = -8.0 * np.longdouble(np.pi) * w * (np.longdouble(1.0) - w / 2.0)
        z = np.log(np.sum(np.exp(logw - logw.max()))) + logw.max()
        logp = logw - z
        p = np.exp(logp)
        oracle = float(-np.sum(p * logp))
        assert radiation_entropy(grid) == pytest.approx(oracle, abs=1e-10)


def flat_conditional_entropy(spectrum):
    """conditional_entropy as first written: the valid bins' hairs gathered
    into flat columns, the remnant hairs in place of them, one entropy_grid
    call on those, and masked copies of every column by definedness."""
    state, v = spectrum.source_state, spectrum.valid
    logp = spectrum.log_weight[v]
    with np.errstate(under="ignore"):
        p = np.exp(logp)
    hairs = [x[v.reshape(x.shape)] for x in np.broadcast_arrays(*spectrum.grid_spec.axes())]
    e_r, mean_q, mean_j = (float(np.sum(p * x)) for x in hairs)
    for total, x in zip((state.m, state.q, state.j), hairs):
        np.subtract(total, x, out=x)
    s_rem = entropy_grid(state.family, *hairs, state.alpha)
    defined = np.isfinite(s_rem)
    excluded = float(np.sum(p[~defined]))
    exact = float(np.sum(p[defined] * s_rem[defined]))
    lowenergy = bh_entropy(state.with_hairs(state.m - e_r, state.q - mean_q, state.j - mean_j))
    log_norm = spectrum.log_norm if spectrum.log_norm is not None else 0.0
    with np.errstate(under="ignore"):
        raw = np.exp(logp + log_norm)
    raw_weighted = float(np.sum(raw[defined] * s_rem[defined]))
    return ConditionalEntropyResult(
        exact=exact, lowenergy=lowenergy, raw_weighted=raw_weighted, e_r=e_r, mean_q=mean_q,
        mean_j=mean_j, excluded_mass=excluded, excluded_warning=excluded > 1e-6,
    )


def result_bits(result) -> dict:
    """Each field of a result dataclass, floats as their 8 bytes."""
    return {k: np.float64(x).tobytes() if isinstance(x, float) else x
            for k, x in dataclasses.asdict(result).items()}


RN = Family.REISSNER_NORDSTROM
KN = Family.KERR_NEWMAN
RN_SPEC = GridSpec(omega_max=1.5, n_omega=40, q_step=0.25, n_q=3)
KN_SPEC = GridSpec(omega_max=1.0, n_omega=30, q_step=0.125, n_q=3, j_step=-0.125, n_j=5)
# (state, grid) pairs for the conditional-entropy oracle: every family,
# alpha 0 and +-1.5, a j axis, a negative q step and a near-extremal source.
COND_CASES = {
    **{f"schw-alpha{a}": (BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=a),
                          GridSpec(omega_max=1.0, n_omega=64)) for a in (0.0, 1.5, -1.5)},
    **{f"rn-alpha{a}": (BlackHoleState(RN, 2.0, 1.0, alpha=a), RN_SPEC) for a in (0.0, 1.5, -1.5)},
    **{f"kn-alpha{a}": (BlackHoleState(KN, 2.0, 0.5, 0.5, alpha=a), KN_SPEC)
       for a in (0.0, 1.5, -1.5)},
    "rn-negative-q-step": (BlackHoleState(RN, 2.0, 1.0),
                           GridSpec(omega_max=1.0, n_omega=50, q_step=-0.25, n_q=4)),
    "rn-near-extremal": (BlackHoleState(RN, 1.0, 1.0 - 1e-9, alpha=0.5),
                         GridSpec(omega_max=0.01, n_omega=64, q_step=0.002, n_q=5)),
    # Several leaves of 8192 valid bins, and node blocks of the remnant entropies.
    "rn-many-leaves": (BlackHoleState(RN, 2.0, 1.0), dataclasses.replace(RN_SPEC, n_omega=9000)),
    "kn-many-leaves": (BlackHoleState(KN, 2.0, 0.5, 0.5, alpha=1.5),
                       dataclasses.replace(KN_SPEC, n_omega=2000)),
}


class TestConditionalEntropy:
    @pytest.mark.parametrize("normalization", [Normalization.UNIT_SUM, Normalization.RAW])
    @pytest.mark.parametrize("state,spec", COND_CASES.values(), ids=COND_CASES.keys())
    def test_matches_flat_valid_bins_oracle_bitwise(self, state, spec, normalization):
        # A raw grid goes in through unit_sum, as build_info_report takes it.
        grid = unit_sum(build_spectrum(state, spec, normalization))
        assert 0 < grid.n_valid
        want = flat_conditional_entropy(grid)
        assert result_bits(conditional_entropy(grid)) == result_bits(want)

    @pytest.mark.parametrize("n_omega", [KN_SPEC.n_omega, 2000])
    def test_excluded_bins_match_the_oracle_bitwise(self, n_omega):
        # Bins marked valid whose remnant is no macro-state: their entropy is
        # undefined, so their mass is excluded.
        state = BlackHoleState(KN, 2.0, 0.5, 0.5, alpha=1.5)
        grid = build_spectrum(state, dataclasses.replace(KN_SPEC, n_omega=n_omega))
        logw = np.where(grid.valid, grid.log_weight, -1.0)
        forced = unit_sum(dataclasses.replace(grid, log_weight=logw, valid=np.ones_like(grid.valid)))
        got = conditional_entropy(forced)
        assert got.excluded_mass > 1e-6 and got.excluded_warning
        assert result_bits(got) == result_bits(flat_conditional_entropy(forced))

    def test_concentrated_spectrum_returns_remnant_entropy(self):
        # All the weight on one node w0 > 0 (no grid node sits at 0): both
        # forms are the entropy of the one remnant, M - w0.
        w0 = 0.25
        grid = manual_unitsum_grid(w0, [0.0])
        cond = conditional_entropy(grid)
        remnant = bh_entropy(SCHW1.with_hairs(SCHW1.m - w0, 0.0, 0.0))
        assert cond.exact == cond.lowenergy == remnant
        assert cond.e_r == w0 and cond.excluded_mass == 0.0

    def test_low_energy_agreement_at_small_omega(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 10.0)
        grid = build_spectrum(s, GridSpec(omega_max=0.01, n_omega=64), Normalization.UNIT_SUM)
        cond = conditional_entropy(grid)
        assert abs(cond.exact - cond.lowenergy) / cond.exact <= 1e-4

    def test_exact_below_state_entropy(self):
        grid = build_spectrum(SCHW1, GridSpec(omega_max=1.0, n_omega=64), Normalization.UNIT_SUM)
        cond = conditional_entropy(grid)
        assert cond.exact < bh_entropy(SCHW1)

    def test_requires_unitsum(self):
        grid = build_spectrum(SCHW1, GridSpec(omega_max=1.0, n_omega=8))
        with pytest.raises(UsageError):
            conditional_entropy(grid)

    def test_second_order_scaling_of_lowenergy_gap(self):
        # gap(omega_max) ~ omega_max^2 in the regime 8 pi M omega_max << 1
        # (nearly flat weights over the span): a decade gives ~100x.
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        gaps = []
        for omega_max in (4e-4, 4e-3):
            grid = build_spectrum(
                s, GridSpec(omega_max=omega_max, n_omega=256), Normalization.UNIT_SUM
            )
            cond = conditional_entropy(grid)
            gaps.append(abs(cond.exact - cond.lowenergy))
        ratio = gaps[1] / gaps[0]
        assert 60.0 < ratio < 160.0

    def test_raw_weighted_diagnostic_scales_with_log_norm(self):
        # Raw weights are the unit-sum weights times exp(log_norm).
        grid = build_spectrum(SCHW1, GridSpec(omega_max=0.5, n_omega=16), Normalization.UNIT_SUM)
        cond = conditional_entropy(grid)
        p = grid.weights()[grid.valid]
        omega, _, _ = np.broadcast_arrays(*grid.grid_spec.axes())
        m2 = SCHW1.m - omega.ravel()[grid.valid]
        s_rem = 4.0 * math.pi * m2**2
        expect = float(np.sum(p * math.exp(grid.log_norm) * s_rem))
        assert cond.raw_weighted == pytest.approx(expect, rel=1e-10)


class TestPairwiseCorrelation:
    def test_closed_form_at_tenth(self):
        got = pairwise_correlation(SCHW1, Emission(0.1), Emission(0.1))
        assert got == pytest.approx(8.0 * math.pi * 0.01, abs=1e-12)

    def test_zero_second_emission(self):
        assert pairwise_correlation(SCHW1, Emission(0.1), Emission(0.0)) == 0.0

    def test_rn_against_hand_oracle(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)

        def logw(w, qe):
            rp = (2.0 - w) + math.sqrt((2.0 - w) ** 2 - (1.0 - qe) ** 2)
            r0 = 2.0 + math.sqrt(3.0)
            return math.pi * (rp * rp - r0 * r0)

        e1, e2 = Emission(0.3, 0.2), Emission(0.4, 0.1)
        oracle = logw(0.7, 0.3) - logw(0.3, 0.2) - logw(0.4, 0.1)
        got = pairwise_correlation(s, e1, e2)
        assert got == pytest.approx(oracle, abs=1e-10)

    @given(
        m=st.floats(0.1, 50.0),
        f1=st.floats(0.01, 0.5),
        f2=st.floats(0.01, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_property(self, m, f1, f2):
        w1, w2 = f1 * m, f2 * m
        got = pairwise_correlation(BlackHoleState(Family.SCHWARZSCHILD, m), Emission(w1), Emission(w2))
        assert abs(got - 8.0 * math.pi * w1 * w2) < 1e-9


class TestMutualInformation:
    def test_coarse_grid_rejected(self):
        with pytest.raises(UsageError):
            mutual_information(SCHW1, GridSpec(omega_max=0.5, n_omega=1))

    def test_requires_schwarzschild(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.5)
        with pytest.raises(UsageError):
            mutual_information(s, GridSpec(omega_max=0.5, n_omega=8))

    def test_nonnegative_and_covariance_identity(self):
        mi = mutual_information(SCHW1, GridSpec(omega_max=0.5, n_omega=32))
        assert mi.mi_numeric >= -1e-10
        assert mi.mi_numeric > 0.0  # correlations exist
        # moment - paper = 8 pi Cov; brute-force moments oracle
        assert (mi.mi_moment_form - mi.mi_paper_form) == pytest.approx(
            8.0 * math.pi * mi.covariance, abs=1e-10
        )

    def test_covariance_against_brute_force(self):
        spec = GridSpec(omega_max=0.5, n_omega=16)
        mi = mutual_information(SCHW1, spec)
        w, q = row_by_row_joint(SCHW1, spec)
        q1, q2 = q.sum(axis=1), q.sum(axis=0)
        cov = float(np.sum(q * np.outer(w, w)) - np.sum(q1 * w) * np.sum(q2 * w))
        assert mi.covariance == pytest.approx(cov, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    @pytest.mark.parametrize("mass,spec", [
        (1.0, GridSpec(omega_max=0.5, n_omega=32)),
        # omega_max = M: every pair with w1 + w2 > M is closed.
        (1.0, GridSpec(omega_max=1.0, n_omega=64)),
        (2.0, GridSpec(omega_max=2.0, n_omega=200)),
        # omega_min > 0: most pairs, and some whole rows, are closed.
        (1.0, GridSpec(omega_max=1.0, n_omega=24, omega_min=0.3)),
    ])
    @pytest.mark.parametrize("block", [None, 100], ids=["one-block", "row-blocks"])
    def test_matches_row_by_row_oracle_bitwise(self, monkeypatch, alpha, mass, spec, block):
        if block is not None:
            monkeypatch.setattr(blackholes, "_BLOCK", block)
        state = BlackHoleState(Family.SCHWARZSCHILD, mass, alpha=alpha)
        assert mutual_information(state, spec) == row_by_row_mutual_information(state, spec)

    def test_single_open_pair_is_uncorrelated(self):
        # M = 1 on nodes 0.4 and 0.8: only (0.4, 0.4) leaves a remnant.
        mi = mutual_information(SCHW1, GridSpec(omega_max=0.8, n_omega=2))
        assert mi.mean_w1 == mi.mean_w2 == 0.4
        assert mi.covariance == 0.0
        assert mi.mi_numeric == 0.0

    def test_all_closed_pairs_raise_domain_error(self):
        with pytest.raises(DomainError, match="every emission pair is a closed channel"):
            mutual_information(SCHW1, GridSpec(omega_max=1.0, n_omega=2, omega_min=0.6))


class TestChainLedger:
    def test_single_step_total_evaporation(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.1)
        chain = sample_cascade(s, CascadePolicy(energy_quantum=0.1), seed=0)
        ledger = chain_information_ledger(chain)
        assert ledger.total_self_information == pytest.approx(bh_entropy(s), abs=1e-12)
        assert ledger.residual == pytest.approx(0.0, abs=1e-12)

    def test_all_enumerated_chains_share_the_total(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.5)
        chains = enumerate_chains(s, CascadePolicy(energy_quantum=0.1))
        totals = {
            round(chain_information_ledger(c).total_self_information, 9) for c, _, _ in chains
        }
        assert totals == {round(4.0 * math.pi * 0.25, 9)}

    def test_corrected_chain_total(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=1.0)
        policy = CascadePolicy(energy_quantum=0.125, stop_mass=0.25)
        chain = sample_cascade(s, policy, seed=8)
        ledger = chain_information_ledger(chain)
        expect = bh_entropy(s) - bh_entropy(chain.final_state)
        assert ledger.total_self_information == pytest.approx(expect, abs=1e-11)

    def test_correlation_with_prior_closed_form(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.5)
        chain = sample_cascade(s, CascadePolicy(energy_quantum=0.1), seed=4)
        ledger = chain_information_ledger(chain)
        prior = 0.0
        for i, step in enumerate(chain.steps):
            if i > 0:
                expect = 8.0 * math.pi * prior * step.emission.omega
                assert ledger.correlation_with_prior[i] == pytest.approx(expect, abs=1e-10)
            prior += step.emission.omega
        assert ledger.correlation_with_prior[0] == 0.0

    def test_closed_single_emission_gives_nan_correlation(self):
        # The second emission taken alone from the initial state would leave
        # (0.5, 0.75), a super-extremal remnant: its correlation is undefined,
        # while the ledger itself still telescopes.
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.75)
        steps, current = [], s
        for e in (Emission(0.125, 0.5), Emission(0.5, 0.0)):
            after = apply_emission(current, e)
            logw = emission_log_weight(current, e)
            steps.append(CascadeStep(e, after, logw, logw))
            current = after
        chain = EmissionChain(s, tuple(steps), Termination.STOP_MASS)
        ledger = chain_information_ledger(chain)
        assert abs(ledger.residual) <= 1e-9
        assert ledger.correlation_with_prior[0] == 0.0
        assert math.isnan(ledger.correlation_with_prior[1])

    def test_incomplete_chain_rejected(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.875)
        stuck = sample_cascade(s, CascadePolicy(energy_quantum=0.25), seed=0)
        with pytest.raises(UsageError):
            chain_information_ledger(stuck)


class TestInfoReport:
    def test_schwarzschild_report_fields(self):
        spectrum = build_spectrum(SCHW1, GridSpec(omega_max=0.5, n_omega=16), Normalization.UNIT_SUM)
        report = build_info_report(spectrum)
        assert report.e_bprime == pytest.approx(1.0 - report.e_r)
        assert report.s_r > 0.0
        assert report.s_cond < bh_entropy(SCHW1)
        assert report.mi_numeric is not None and report.mi_numeric >= 0.0
        assert report.correlation_max >= report.correlation_mean > 0.0
        assert report.excluded_mass == 0.0 and not report.excluded_warning

    def test_correlation_max_matches_top_pair(self):
        spectrum = build_spectrum(SCHW1, GridSpec(omega_max=0.25, n_omega=8), Normalization.UNIT_SUM)
        report = build_info_report(spectrum)
        # top pair: both emissions at the largest node
        assert report.correlation_max == pytest.approx(8.0 * math.pi * 0.25 * 0.25, abs=1e-9)

    def test_charged_report_has_no_mi(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        spectrum = build_spectrum(s, GridSpec(omega_max=0.5, n_omega=8), Normalization.UNIT_SUM)
        report = build_info_report(spectrum)
        assert report.mi_numeric is None
        assert report.s_r > 0.0

    @pytest.mark.parametrize("state,spec", [
        (SCHW1, GridSpec(omega_max=0.5, n_omega=16)),
        (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0, alpha=0.5),
         GridSpec(omega_max=1.5, n_omega=40, q_step=0.25, n_q=3)),
    ], ids=["schw", "rn-alpha"])
    def test_raw_spectrum_gives_the_unit_sum_report(self, state, spec):
        raw = build_info_report(build_spectrum(state, spec))
        unit = build_info_report(build_spectrum(state, spec, Normalization.UNIT_SUM))
        assert raw.to_json_dict() == unit.to_json_dict()

    def test_peak_memory_per_bin(self):
        # The report's temporaries above its unit-sum input: the remnant
        # entropies of the valid bins (8 B per valid bin), a few bool masks
        # and leaf-sized blocks. Measured: 10.7 B per bin at 2^19 bins.
        n_omega = 1 << 17
        state = BlackHoleState(RN, 2.0, 1.0)
        spec = GridSpec(omega_max=1.5, n_omega=n_omega, q_step=0.25, n_q=4)
        grid = build_spectrum(state, spec, Normalization.UNIT_SUM)
        tracemalloc.start()
        try:
            build_info_report(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 13 * spec.n_bins

    @pytest.mark.filterwarnings("error")
    def test_a_source_entropy_float64_cannot_hold_is_read_by_nothing(self):
        # S(M) overflows, but the report reads only the remnants' entropies,
        # which float64 holds: every field is finite.
        s = BlackHoleState(Family.SCHWARZSCHILD, 3.8e153)
        with pytest.raises(FloatingPointError):
            bh_entropy(s)
        spec = GridSpec(omega_min=2e152, omega_max=3e152, n_omega=4)
        report = build_info_report(build_spectrum(s, spec, Normalization.UNIT_SUM))
        assert all(math.isfinite(v) for v in report.to_json_dict().values())

    @pytest.mark.filterwarnings("error")
    def test_a_remnant_entropy_float64_cannot_hold_is_a_numerical_failure(self):
        spectrum = build_spectrum(BlackHoleState(Family.SCHWARZSCHILD, 5e153),
                                  GridSpec(omega_max=1e150, n_omega=4))
        with pytest.raises(FloatingPointError, match="the entropy of .* not finite in float64"):
            build_info_report(spectrum)

    def test_json_round_trip(self):
        import json

        spectrum = build_spectrum(SCHW1, GridSpec(omega_max=0.5, n_omega=8), Normalization.UNIT_SUM)
        report = build_info_report(spectrum)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["e_r"] == report.e_r
