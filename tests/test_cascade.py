"""Evaporation cascades: sampling, enumeration oracle, conservation, ensembles."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from bhspectra import (
    BlackHoleState,
    CascadePolicy,
    Family,
    Termination,
    UsageError,
    bh_entropy,
    cascade_ensemble_stats,
    chain_log_probability,
    enumerate_chains,
    sample_cascade,
)
from bhspectra.blackholes import Emission
from bhspectra.cascade import (
    CascadeStep,
    EmissionChain,
    chain_identity,
    ensemble_stats_from_chains,
)

SCHW_HALF = BlackHoleState(Family.SCHWARZSCHILD, 0.5)
POLICY_5 = CascadePolicy(energy_quantum=0.1)  # 5 quanta from M = 0.5


class TestPolicyValidation:
    def test_bad_quanta(self):
        with pytest.raises(UsageError):
            CascadePolicy(energy_quantum=0.0)
        with pytest.raises(UsageError):
            CascadePolicy(energy_quantum=0.1, stop_mass=-1.0)
        with pytest.raises(UsageError):
            CascadePolicy(energy_quantum=0.1, max_steps=0)
        with pytest.raises(UsageError):
            CascadePolicy(energy_quantum=0.1, charge_quantum=0.0)

    def test_mass_must_be_integer_multiple(self):
        with pytest.raises(UsageError):
            sample_cascade(BlackHoleState(Family.SCHWARZSCHILD, 0.55), POLICY_5, 0)

    def test_alpha_needs_positive_stop_mass(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=1.0)
        with pytest.raises(UsageError):
            sample_cascade(s, CascadePolicy(energy_quantum=0.25), 0)

    def test_max_steps_must_cover_quanta(self):
        with pytest.raises(UsageError):
            sample_cascade(SCHW_HALF, CascadePolicy(energy_quantum=0.1, max_steps=3), 0)

    def test_stop_mass_above_mass(self):
        with pytest.raises(UsageError):
            sample_cascade(SCHW_HALF, CascadePolicy(energy_quantum=0.1, stop_mass=1.0), 0)


class TestSampling:
    def test_single_quantum_is_forced(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.1)
        chain = sample_cascade(s, POLICY_5, seed=0)
        assert chain.n_steps == 1
        assert chain.steps[0].log_prob == 0.0  # only one channel
        raw, _ = chain_log_probability(chain)
        assert raw == pytest.approx(-bh_entropy(s), abs=1e-12)
        assert chain.terminated is Termination.EXHAUSTED

    def test_deterministic_for_seed_and_index(self):
        a = sample_cascade(SCHW_HALF, POLICY_5, seed=9, sample_index=4)
        b = sample_cascade(SCHW_HALF, POLICY_5, seed=9, sample_index=4)
        assert [s.emission.omega for s in a.steps] == [s.emission.omega for s in b.steps]
        assert chain_log_probability(a) == chain_log_probability(b)

    def test_different_indices_differ(self):
        ids = {
            chain_identity(sample_cascade(SCHW_HALF, POLICY_5, seed=1, sample_index=i), POLICY_5)
            for i in range(50)
        }
        assert len(ids) > 3

    def test_telescoping_all_families_and_alphas(self):
        rng = np.random.default_rng(11)
        for trial in range(150):
            alpha = (0.0, 1.0, -1.0)[trial % 3]
            family = (Family.SCHWARZSCHILD, Family.REISSNER_NORDSTROM, Family.KERR_NEWMAN)[
                trial % 3
            ]
            eps = 0.125
            stop = eps * (1 if alpha != 0.0 else 0)
            n = int(rng.integers(2, 8))
            m = stop + n * eps
            q = j = 0.0
            qq = jq = None
            if family is not Family.SCHWARZSCHILD:
                qq = 0.0625
                q = int(rng.integers(0, int(0.4 * m / qq))) * qq
            if family is Family.KERR_NEWMAN:
                jq = 0.0625
            state = BlackHoleState(family, m, q, j, alpha)
            policy = CascadePolicy(eps, stop_mass=stop, charge_quantum=qq, spin_quantum=jq)
            chain = sample_cascade(state, policy, seed=2, sample_index=trial)
            raw, _ = chain_log_probability(chain)
            drop = bh_entropy(chain.final_state) - bh_entropy(chain.initial)
            assert abs(raw - drop) < 1e-9

    def test_step_bookkeeping_matches_apply_emission(self):
        # state_after(i) == apply_emission(state_after(i-1), emission(i)),
        # bitwise for binary quanta.
        from bhspectra import apply_emission

        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.875)
        policy = CascadePolicy(energy_quantum=0.125, charge_quantum=0.125)
        for i in range(20):
            chain = sample_cascade(s, policy, seed=17, sample_index=i)
            current = chain.initial
            for step in chain.steps:
                replayed = apply_emission(current, step.emission)
                assert (replayed.m, replayed.q, replayed.j) == (
                    step.state_after.m, step.state_after.q, step.state_after.j
                )
                current = step.state_after

    def test_energy_conservation_exact_binary_quantum(self):
        policy = CascadePolicy(energy_quantum=0.0625)
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        for i in range(50):
            chain = sample_cascade(s, policy, seed=5, sample_index=i)
            total = chain.total_emission()
            assert total.omega == s.m - chain.final_state.m
            assert chain.final_state.m == 0.0

    def test_charge_conservation_exact(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.875)
        policy = CascadePolicy(energy_quantum=0.25, charge_quantum=0.125)
        for i in range(30):
            chain = sample_cascade(s, policy, seed=6, sample_index=i)
            total = chain.total_emission()
            assert total.omega == s.m - chain.final_state.m
            assert total.q == s.q - chain.final_state.q

    def test_stuck_cascade_is_reported_not_raised(self):
        # Charged hole, no charge channel: every energy move is super-extremal.
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.875)
        chain = sample_cascade(s, CascadePolicy(energy_quantum=0.25), seed=0)
        assert chain.stuck and chain.n_steps == 0
        assert chain.terminated is Termination.STOP_MASS
        assert not chain.is_complete

    def test_partial_progress_then_stuck(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 0.875)
        chain = sample_cascade(s, CascadePolicy(energy_quantum=0.25), seed=5)
        assert chain.stuck
        assert chain.final_state.m >= 0.875  # stopped at the sub-extremality floor
        raw, _ = chain_log_probability(chain)
        drop = bh_entropy(chain.final_state) - bh_entropy(chain.initial)
        assert abs(raw - drop) < 1e-12

    def test_zero_quanta_chain_is_empty(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.25)
        chain = sample_cascade(s, CascadePolicy(energy_quantum=0.25, stop_mass=0.25), seed=0)
        assert chain.n_steps == 0 and chain.terminated is Termination.STOP_MASS
        assert chain_log_probability(chain) == (0.0, 0.0)

    def test_chain_sums_fold_left_to_right(self):
        # In step order, as the walk adds: 1 + 1e-16 rounds to 1, so the sum
        # is 0.0. A compensated sum (builtin sum from Python 3.12) gives 1e-16.
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        steps = tuple(CascadeStep(Emission(0.0), s, v, v) for v in (1.0, 1e-16, -1.0))
        chain = EmissionChain(s, steps, Termination.STOP_MASS)
        assert chain_log_probability(chain) == (0.0, 0.0)

    def test_alpha_chain_telescopes_to_corrected_entropies(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=1.0)
        policy = CascadePolicy(energy_quantum=0.125, stop_mass=0.25)
        chain = sample_cascade(s, policy, seed=3)
        raw, _ = chain_log_probability(chain)
        assert raw == pytest.approx(
            bh_entropy(chain.final_state) - bh_entropy(s), abs=1e-11
        )
        assert chain.final_state.m == 0.25


class TestEnumeration:
    def test_single_quantum(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.1)
        assert len(enumerate_chains(s, POLICY_5)) == 1

    def test_composition_count(self):
        assert len(enumerate_chains(SCHW_HALF, POLICY_5)) == 16  # 2^(5-1)

    def test_all_raw_log_probs_equal_total_entropy_drop(self):
        chains = enumerate_chains(SCHW_HALF, POLICY_5)
        expect = -4.0 * math.pi * 0.5**2
        for _, raw, _ in chains:
            assert raw == pytest.approx(expect, abs=1e-9)

    def test_normalized_probabilities_sum_to_one(self):
        chains = enumerate_chains(SCHW_HALF, POLICY_5)
        norms = [nm for _, _, nm in chains]
        assert abs(logsumexp(norms)) < 1e-9

    def test_chain_objects_telescope_and_conserve(self):
        for chain, raw, norm in enumerate_chains(SCHW_HALF, POLICY_5):
            assert chain_log_probability(chain) == pytest.approx((raw, norm), abs=1e-12)
            assert chain.final_state.is_evaporated

    def test_quantum_cap(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 2.5)
        with pytest.raises(UsageError):
            enumerate_chains(s, POLICY_5)  # 25 quanta

    def test_charged_policy_rejected(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 0.5, 0.125)
        with pytest.raises(UsageError):
            enumerate_chains(s, CascadePolicy(0.1, charge_quantum=0.125))

    def test_corrected_entropy_enumeration(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.75, alpha=1.0)
        policy = CascadePolicy(energy_quantum=0.125, stop_mass=0.25)
        chains = enumerate_chains(s, policy)
        expect = bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, 0.25, alpha=1.0)) - bh_entropy(s)
        for _, raw, _ in chains:
            assert raw == pytest.approx(expect, abs=1e-9)


class TestEnsembles:
    def test_single_sample_stats(self):
        stats = cascade_ensemble_stats(SCHW_HALF, POLICY_5, 1, seed=12)
        chain = sample_cascade(SCHW_HALF, POLICY_5, 12, 0)
        assert stats.lengths.tolist() == [chain.n_steps]
        assert stats.mean_raw_log_prob == pytest.approx(chain_log_probability(chain)[0])

    def test_first_emission_marginal_matches_step_distribution(self):
        # Oracle: the exact per-step unit-sum weights of the first step.
        from bhspectra.cascade import _plan, _step_channels

        plan = _plan(SCHW_HALF, POLICY_5)
        _, _, _, _, _, _, logw, log_z = _step_channels(SCHW_HALF, POLICY_5, plan, 5, 0, 0)
        p = np.exp(logw - log_z)
        n = 100_000
        stats = cascade_ensemble_stats(SCHW_HALF, POLICY_5, n, seed=21, method="batch")
        for k in range(1, 6):
            observed = stats.first_emission_counts.get(k, 0)
            sigma = math.sqrt(n * p[k - 1] * (1 - p[k - 1]))
            assert abs(observed - n * p[k - 1]) < 3.5 * sigma

    def test_identity_entropy_matches_enumeration(self):
        chains = enumerate_chains(SCHW_HALF, POLICY_5)
        exact = -sum(math.exp(nm) * nm for _, _, nm in chains)
        stats = cascade_ensemble_stats(SCHW_HALF, POLICY_5, 200_000, seed=22, method="batch")
        assert stats.identity_entropy == pytest.approx(exact, rel=0.02)

    def test_batch_and_per_sample_agree_with_enumeration(self):
        chains = enumerate_chains(SCHW_HALF, POLICY_5)
        probs = np.array([math.exp(nm) for _, _, nm in chains])
        idents = [chain_identity(c, POLICY_5) for c, _, _ in chains]

        batch = cascade_ensemble_stats(SCHW_HALF, POLICY_5, 100_000, seed=23, method="batch")
        observed = np.array([batch.identity_counts.get(i, 0) for i in idents], dtype=float)
        assert observed.sum() == batch.n_samples  # census is complete
        result = chisquare(observed, probs * observed.sum() / probs.sum())
        assert result.pvalue > 0.01

        per = cascade_ensemble_stats(SCHW_HALF, POLICY_5, 4000, seed=23, method="per-sample")
        observed = np.array([per.identity_counts.get(i, 0) for i in idents], dtype=float)
        result = chisquare(observed, probs * observed.sum() / probs.sum())
        assert result.pvalue > 0.001

    def test_mean_raw_log_prob_is_entropy_drop(self):
        # Complete uncharged cascades all carry raw log-prob -4 pi M^2.
        stats = cascade_ensemble_stats(SCHW_HALF, POLICY_5, 500, seed=2)
        assert stats.mean_raw_log_prob == pytest.approx(-math.pi, abs=1e-10)

    def test_stats_from_chains_matches_direct(self):
        # The per-sample walk against ensemble_stats_from_chains over single
        # chains; the last config makes partial progress, then sticks.
        configs = [
            (SCHW_HALF, POLICY_5),
            (BlackHoleState(Family.SCHWARZSCHILD, 2.0), CascadePolicy(energy_quantum=0.125)),
            (
                BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0),
                CascadePolicy(energy_quantum=0.125, charge_quantum=0.125),
            ),
            (
                BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5, alpha=1.5),
                CascadePolicy(energy_quantum=0.125, stop_mass=0.5, charge_quantum=0.125,
                              spin_quantum=0.125),
            ),
            (
                BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 0.875),
                CascadePolicy(energy_quantum=0.25),
            ),
        ]
        for state, policy in configs:
            chains = [sample_cascade(state, policy, 33, i) for i in range(200)]
            a = ensemble_stats_from_chains(chains, policy, 200, 33)
            b = cascade_ensemble_stats(state, policy, 200, 33, method="per-sample")
            assert a.identity_counts == b.identity_counts
            assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize("n_samples", [5, 2], ids=["fewer_chains", "more_chains"])
    def test_stats_from_chains_rejects_a_count_mismatch(self, n_samples):
        chains = [sample_cascade(SCHW_HALF, POLICY_5, 33, i) for i in range(3)]
        with pytest.raises(UsageError, match=f"3 chains given for n_samples={n_samples}"):
            ensemble_stats_from_chains(chains, POLICY_5, n_samples, 33)

    @pytest.mark.parametrize("n", [18, 20])
    def test_batch_identities_are_compositions(self, n):
        # Every batch identity is an ordered composition of the n quanta,
        # up to the census cap of 20, with one part per step.
        s = BlackHoleState(Family.SCHWARZSCHILD, n * 0.125)
        stats = cascade_ensemble_stats(
            s, CascadePolicy(energy_quantum=0.125), 20_000, seed=0, method="batch"
        )
        assert sum(stats.identity_counts.values()) == stats.n_samples
        by_length: dict[int, int] = {}
        for ident, count in stats.identity_counts.items():
            assert sum(ident) == n and min(ident) >= 1
            by_length[len(ident)] = by_length.get(len(ident), 0) + count
        assert by_length == stats.length_counts()

    def test_batch_zero_quanta_identity_is_empty(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.25)
        policy = CascadePolicy(energy_quantum=0.25, stop_mass=0.25)
        stats = cascade_ensemble_stats(s, policy, 10, seed=0, method="batch")
        assert stats.identity_counts == {(): 10}

    def test_batch_requires_energy_only(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 0.5, 0.125)
        policy = CascadePolicy(0.125, charge_quantum=0.125)
        with pytest.raises(UsageError):
            cascade_ensemble_stats(s, policy, 100, 0, method="batch")

    @pytest.mark.parametrize("method,n_samples", [("batch", 10), ("per-sample", 10)])
    def test_negative_seed_is_usage_error(self, method, n_samples):
        with pytest.raises(UsageError, match="non-negative"):
            cascade_ensemble_stats(SCHW_HALF, POLICY_5, n_samples, -1, method=method)

    @pytest.mark.parametrize("method", ["bogus", "per_sample", "Batch"])
    def test_unknown_method_is_usage_error(self, method):
        with pytest.raises(UsageError, match="unknown method"):
            cascade_ensemble_stats(SCHW_HALF, POLICY_5, 10, 0, method=method)
