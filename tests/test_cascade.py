"""Evaporation cascades: sampling, enumeration oracle, conservation, ensembles."""

import json
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

    @pytest.mark.parametrize("value", [1.5, np.float64(2.0)], ids=["float", "np.float64"])
    def test_non_integer_max_steps_is_usage_error(self, value):
        with pytest.raises(UsageError, match="max_steps must be an integer >= 1"):
            CascadePolicy(energy_quantum=0.1, max_steps=value)

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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_log_weights_raise_where_the_row_is_built(self):
        # omega (2M - omega) overflows at M = 1e200; a stuck row (above) has
        # no channels and a nan log-sum-exp, and is no failure.
        s = BlackHoleState(Family.SCHWARZSCHILD, 1e200)
        with pytest.raises(FloatingPointError, match="10 open channels"):
            sample_cascade(s, CascadePolicy(energy_quantum=1e199), seed=0)
        with pytest.raises(FloatingPointError):
            enumerate_chains(s, CascadePolicy(energy_quantum=1e199))

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


class TestRowHairs:
    """A row's own hairs and its remnants' come from one formula, so every
    channel leads to a row whose hairs are that channel's remnant hairs."""

    @pytest.mark.parametrize("state,policy", [
        (SCHW_HALF, POLICY_5),
        (BlackHoleState(Family.SCHWARZSCHILD, 0.5, alpha=1.0),
         CascadePolicy(energy_quantum=0.0625, stop_mass=0.25)),
        (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, -0.75),
         CascadePolicy(energy_quantum=0.25, charge_quantum=-0.25)),
        (BlackHoleState(Family.KERR_NEWMAN, 1.3, 0.3, -0.0),
         CascadePolicy(energy_quantum=0.1, charge_quantum=0.1)),
        (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.75),
         CascadePolicy(energy_quantum=0.5, charge_quantum=0.25, spin_quantum=0.25)),
        (BlackHoleState(Family.REISSNER_NORDSTROM, 2, 1), CascadePolicy(energy_quantum=1)),
    ], ids=["schw", "stop-mass", "rn", "kn-charge", "kn-both", "ints"])
    def test_each_channel_leads_to_a_row_with_its_remnant_hairs(self, state, policy):
        from bhspectra.cascade import _transition_table

        table = _transition_table(state, policy)
        todo, seen = [(table.n_quanta, table.n_charge, table.n_spin)], set()
        while todo:
            row = table[todo.pop()]
            for i, key in enumerate(row.after):
                remnant = np.array([row.m2[i], row.q2[i], row.j2[i]])
                assert remnant.tobytes() == np.array(table[key].hairs).tobytes(), key
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
        assert seen


# Tables whose rows are checked against the array kernel: closed channels and
# a floor the chains stick at, spin, alpha with a stop mass, and Q = -0.0.
ROW_CONFIGS = {
    "schw": (BlackHoleState(Family.SCHWARZSCHILD, 4.0), CascadePolicy(energy_quantum=0.0625)),
    "rn-stuck": (BlackHoleState(Family.REISSNER_NORDSTROM, 4.0, 0.875),
                 CascadePolicy(energy_quantum=0.25)),
    "kn": (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.75),
           CascadePolicy(energy_quantum=0.0625)),
    "kn-both": (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.75),
                CascadePolicy(energy_quantum=0.25, charge_quantum=0.25, spin_quantum=0.25)),
    "alpha": (BlackHoleState(Family.SCHWARZSCHILD, 4.0, alpha=1.5),
              CascadePolicy(energy_quantum=0.0625, stop_mass=0.5)),
    "rn-minus-zero-q": (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, -0.0),
                        CascadePolicy(energy_quantum=0.125)),
}


def rows_against_array_kernel(state, policy, libm: bool = False) -> int:
    """Check every row a walk can reach against the array routes of
    hairs_valid and entropy_drop, bit for bit, and return the rows' count.
    Without alpha the kernel's routes share their arithmetic; with it they
    agree where numpy's log and log1p are libm's. libm: numpy's exp, log
    and log1p are libm's, so alpha may be set, and the log-probabilities and
    CDF are checked against logsumexp's array route and numpy's exp too."""
    from bhspectra.blackholes import entropy_drop, hairs_valid, logsumexp
    from bhspectra.cascade import _TransitionTable

    table = _TransitionTable(state, policy)
    todo, seen = [(table.n_quanta, table.n_charge, table.n_spin)], set()
    while todo:
        row = table[todo.pop()]
        fields = (row.after, row.m2, row.q2, row.j2, row.logw, row.logp, row.cdf)
        assert all(type(x) is tuple for x in fields)  # shared by every caller of the cached table
        assert len({len(x) for x in fields}) == 1
        m2, q2, j2, logw = (np.array(x, dtype=np.float64) for x in fields[1:5])
        if m2.size:
            assert hairs_valid(state.family, m2, q2, j2, state.alpha).all()
            m, q, j = row.hairs
            want = entropy_drop(m, q, j, state.alpha, m - m2, q - q2, j - j2)
            assert want.tobytes() == logw.tobytes(), row.key
        if not libm:
            assert state.alpha == 0.0
        else:
            logp = logw - logsumexp(logw)
            assert np.array(row.logp).tobytes() == logp.tobytes(), row.key
        if libm and row.cdf:
            cdf = np.cumsum(np.exp(logp))
            cdf[-1] = 1.0
            assert np.array(row.cdf).tobytes() == cdf.tobytes(), row.key
        for key in row.after:
            if key not in seen:
                seen.add(key)
                todo.append(key)
    # The table holds exactly the rows looked up.
    assert len(table) == len(seen | {(table.n_quanta, table.n_charge, table.n_spin)})
    return len(table)


class TestFloatRows:
    """A row is built on its lookup as Python floats, channel by channel,
    through the kernel's float routes."""

    @pytest.mark.parametrize("name", [n for n in ROW_CONFIGS if n != "alpha"])
    def test_float_rows_equal_the_array_kernel(self, name):
        assert rows_against_array_kernel(*ROW_CONFIGS[name]) > 1

    @pytest.mark.filterwarnings("error")
    def test_a_row_that_overflows_raises_only_when_looked_up(self):
        from bhspectra.cascade import _TransitionTable

        # omega (2M - omega) overflows on the top rows, not on the bottom ones.
        table = _TransitionTable(BlackHoleState(Family.SCHWARZSCHILD, 1e154),
                                 CascadePolicy(energy_quantum=1e153))
        assert table.n_quanta == 10
        assert table[1, 0, 0].logp == (0.0,)
        for _ in range(2):
            with pytest.raises(FloatingPointError, match="open channels"):
                table[10, 0, 0]
        assert list(table) == [(1, 0, 0)]

    def test_math_errors_of_a_row_are_refused_as_numpy_nan(self):
        # 4 M^2 underflows to 0 at M = 1e-170: the alpha term divides by the
        # zero area, which raises in float arithmetic and is nan in numpy.
        s = BlackHoleState(Family.SCHWARZSCHILD, 4e-170, alpha=1.0)
        policy = CascadePolicy(energy_quantum=1e-170, stop_mass=1e-170)
        with pytest.raises(FloatingPointError, match="log-sum-exp nan over 3 open channels"):
            sample_cascade(s, policy, seed=0)

    def test_first_lookup_of_a_large_table_builds_one_row(self):
        import tracemalloc

        from bhspectra.cascade import _TransitionTable

        # 4096 quanta: all rows would hold ~8.4M channels, the top row 4096.
        table = _TransitionTable(BlackHoleState(Family.SCHWARZSCHILD, 256.0),
                                 CascadePolicy(energy_quantum=0.0625))
        tracemalloc.start()
        try:
            assert len(table[4096, 0, 0].logw) == 4096
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 1
        # About 300 bytes per channel: a remnant key, floats and tuple slots.
        assert peak < 300 * 4096


class TestEnsembles:
    def test_single_sample_stats(self):
        stats = cascade_ensemble_stats(SCHW_HALF, POLICY_5, 1, seed=12)
        chain = sample_cascade(SCHW_HALF, POLICY_5, 12, 0)
        assert stats.length_counts == {chain.n_steps: 1}
        assert stats.mean_raw_log_prob == pytest.approx(chain_log_probability(chain)[0])

    def test_first_emission_marginal_matches_step_distribution(self):
        # Oracle: the exact per-step unit-sum weights of the first step.
        from bhspectra.cascade import _transition_table

        p = np.exp(_transition_table(SCHW_HALF, POLICY_5)[5, 0, 0].logp)
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

    def test_stats_from_chains_above_the_census_cap_have_no_identities(self):
        # 21 quanta is above the census cap of 20: no identity counts, as
        # in the per-sample walk.
        state = BlackHoleState(Family.SCHWARZSCHILD, 21 * 0.125)
        policy = CascadePolicy(energy_quantum=0.125)
        chains = [sample_cascade(state, policy, 4, i) for i in range(5)]
        a = ensemble_stats_from_chains(chains, policy, 5, 4)
        b = cascade_ensemble_stats(state, policy, 5, 4, method="per-sample")
        assert a.identity_counts is None and b.identity_counts is None
        assert a.to_json_dict() == b.to_json_dict()

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
        assert by_length == stats.length_counts

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

    @pytest.mark.parametrize("value", [1.5, np.float64(2.0)], ids=["float", "np.float64"])
    @pytest.mark.parametrize("method", ["batch", "per-sample"])
    def test_non_integer_seed_or_count_is_usage_error(self, method, value):
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            cascade_ensemble_stats(SCHW_HALF, POLICY_5, 10, value, method=method)
        with pytest.raises(UsageError, match="n_samples must be an integer >= 1"):
            cascade_ensemble_stats(SCHW_HALF, POLICY_5, value, 0, method=method)

    @pytest.mark.parametrize("value", [1.5, np.float64(2.0)], ids=["float", "np.float64"])
    def test_non_integer_seed_or_index_of_one_chain_is_usage_error(self, value):
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            sample_cascade(SCHW_HALF, POLICY_5, value, 0)
        with pytest.raises(UsageError, match="sample_index must be a non-negative integer"):
            sample_cascade(SCHW_HALF, POLICY_5, 0, value)

    @pytest.mark.parametrize("method", ["batch", "per-sample"])
    def test_numpy_integer_seed_is_its_int(self, method):
        state = BlackHoleState(Family.SCHWARZSCHILD, 2.0)
        policy = CascadePolicy(energy_quantum=0.125)
        runs = []
        for seed, n_samples in ((2, 30), (np.int64(2), np.int32(30))):
            chains = [] if method == "per-sample" else None
            stats = cascade_ensemble_stats(state, policy, n_samples, seed, method,
                                           None if chains is None else
                                           lambda i, steps: chains.append((i, steps)))
            assert type(stats.seed) is int and type(stats.n_samples) is int
            runs.append((json.dumps(stats.to_json_dict()), chains))
        (text, chains), (np_text, np_chains) = runs
        assert np_text == text
        if chains is not None:
            assert [type(i) for i, _ in np_chains] == [int] * 30
            assert np_chains == chains  # the same samples, rows and channels
        assert sample_cascade(state, policy, np.int64(2), np.int64(7)) == sample_cascade(
            state, policy, 2, 7)

    @pytest.mark.filterwarnings("error")
    def test_stats_from_no_chains_is_usage_error(self):
        with pytest.raises(UsageError, match="n_samples must be an integer >= 1"):
            ensemble_stats_from_chains([], POLICY_5, 0, 0)

    def test_batch_takes_no_chain_callback(self):
        chains = []
        with pytest.raises(UsageError, match="batch"):
            cascade_ensemble_stats(SCHW_HALF, POLICY_5, 10, 0, method="batch",
                                   on_chain=lambda i, steps: chains.append(i))
        assert chains == []

    @pytest.mark.parametrize("method", ["bogus", "per_sample", "Batch"])
    def test_unknown_method_is_usage_error(self, method):
        with pytest.raises(UsageError, match="unknown method"):
            cascade_ensemble_stats(SCHW_HALF, POLICY_5, 10, 0, method=method)
