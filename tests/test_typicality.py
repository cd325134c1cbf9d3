"""Reduced states of random pure states, microcanonical weights, and the
typicality lab."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bhspectra import (
    BlackHoleState,
    DomainError,
    EnergyLedger,
    Family,
    GridSpec,
    Normalization,
    ReducedDensity,
    UsageError,
    bh_entropy,
    build_spectrum,
    concentration,
    lab_ledger,
    level_diagonal,
    microcanonical_weights,
    offdiagonal_rms,
    sample_reduced_density,
    typicality_lab,
)


def two_level_ledger(n0: int, n1: int, g0: int = 1, g1: int = 1) -> EnergyLedger:
    return EnergyLedger(((g0, n0), (g1, n1)))


def full_coefficient_sample(ledger: EnergyLedger, seed: int) -> tuple[ReducedDensity, float]:
    """The distributional oracle: all dim_U complex standard normal
    coefficients of the shell state, normalized once, and each level's
    g x n block G reduced to G G^dagger."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dim_u = ledger.dim_u
    raw = (rng.standard_normal(dim_u) + 1j * rng.standard_normal(dim_u)) / math.sqrt(2.0)
    raw_mean_sq = float(np.mean(np.abs(raw) ** 2))
    raw /= math.sqrt(float(np.sum(np.abs(raw) ** 2)))
    rho = np.zeros((ledger.dim_b, ledger.dim_b), dtype=np.complex128)
    row = col = 0
    for g, n in ledger.levels:
        block = raw[col : col + g * n].reshape(g, n)
        rho[row : row + g, row : row + g] = block @ block.conj().T
        row, col = row + g, col + g * n
    return ReducedDensity(rho), raw_mean_sq


class TestLedger:
    def test_degeneracy_bounds(self):
        with pytest.raises(DomainError):
            EnergyLedger(((0, 4),))
        with pytest.raises(DomainError):
            two_level_ledger(-1, 2)

    def test_dimensions(self):
        ledger = two_level_ledger(8, 2, g0=2, g1=1)
        assert ledger.dim_b == 3
        assert ledger.dim_u == 2 * 8 + 1 * 2
        assert ledger.levels == ((2, 8), (1, 2))


    def test_reduced_density_must_be_square(self):
        with pytest.raises(DomainError, match="not square"):
            ReducedDensity(np.eye(2, 3) / 2.0)


# g = (3, 2, 1) against sectors n = (2, 1, 0): two rank-deficient levels and
# an empty one.
RANK_DEFICIENT = EnergyLedger(((3, 2), (2, 1), (1, 0)))


class TestSampler:
    def test_single_state_shell_gives_one(self):
        ledger = EnergyLedger(((1, 1),))
        for seed in range(5):
            rho, _ = sample_reduced_density(ledger, seed)
            assert rho.matrix.tolist() == [[1.0]]

    def test_one_environment_state_gives_a_pure_state(self):
        # g = 2, n = 1: the pair is tied to a single environment state.
        ledger = EnergyLedger(((2, 1),))
        for seed in range(5):
            m = sample_reduced_density(ledger, seed)[0].matrix
            assert np.allclose(m @ m, m, rtol=0.0, atol=1e-15)
            assert np.linalg.matrix_rank(m, tol=1e-12) == 1

    def test_empty_sector_gives_a_zero_block(self):
        for seed in range(5):
            m = sample_reduced_density(RANK_DEFICIENT, seed)[0].matrix
            assert np.all(m[5:, :] == 0) and np.all(m[:, 5:] == 0)
            assert np.linalg.matrix_rank(m[:3, :3], tol=1e-12) == 2

    def test_levels_do_not_mix(self):
        m = sample_reduced_density(two_level_ledger(8, 2, g0=2, g1=3), seed=0)[0].matrix
        assert np.all(m[:2, 2:] == 0) and np.all(m[2:, :2] == 0)
        assert np.all(m[:2, :2] != 0) and np.all(m[2:, 2:] != 0)

    @pytest.mark.parametrize("ledger", [lab_ledger(4, 1 << 10), RANK_DEFICIENT],
                             ids=["lab", "rank-deficient"])
    def test_trace_one_hermitian_psd(self, ledger):
        for seed in range(5):
            m = sample_reduced_density(ledger, seed)[0].matrix
            assert abs(np.trace(m).real - 1.0) < 1e-14
            assert np.allclose(m, m.conj().T, rtol=0.0, atol=1e-15)
            assert np.linalg.eigvalsh(m).min() >= -1e-15

    def test_deterministic_for_fixed_seed(self):
        ledger = lab_ledger(3, 1 << 12)
        (a, raw_a), (b, raw_b) = (sample_reduced_density(ledger, seed=7) for _ in range(2))
        assert np.array_equal(a.matrix, b.matrix) and raw_a == raw_b

    def test_raw_mean_square_concentrates_at_one(self):
        # In the conventional scaling (sqrt(dim_U) times unit-norm
        # coefficients) the pre-normalization mean |C|^2 concentrates at 1.
        ledger = lab_ledger(3, 1 << 12)
        raw = [sample_reduced_density(ledger, seed=s)[1] for s in range(100)]
        assert np.mean(raw) == pytest.approx(1.0, abs=0.02)
        assert np.std(raw) < 0.02

    def test_empty_shell_rejected(self):
        with pytest.raises(DomainError):
            sample_reduced_density(two_level_ledger(0, 0), seed=0)

    def test_dimension_cap(self):
        rho, raw = sample_reduced_density(lab_ledger(2, 1 << 22), seed=0)  # dim_U = 2^23
        assert rho.matrix.shape == (2, 2) and raw == pytest.approx(1.0, abs=0.01)
        sample_reduced_density(lab_ledger(2, 1 << 999), seed=0)  # dim_U = 2^1000
        with pytest.raises(UsageError, match=r"dim_U of 1002 bits, over 2\^1000"):
            sample_reduced_density(lab_ledger(2, 1 << 1000), seed=0)

    def test_diagonal_concentrates_on_microcanonical_weights(self):
        # Seed-averaged: per-state diagonals within 5% relative RMS of the
        # shell-counting weights; off-diagonal RMS below 3/sqrt(dim_o).
        dim_o = 4096
        ledger = lab_ledger(4, dim_o)
        weights = microcanonical_weights(ledger)
        per_state = np.repeat(weights / 2.0, 2)  # two copies per level
        rel_rms = []
        off_rms = []
        for seed in range(100):
            rho, _ = sample_reduced_density(ledger, seed)
            diag = np.real(np.diag(rho.matrix))
            rel_rms.append(np.sqrt(np.mean((diag / per_state - 1.0) ** 2)))
            off_rms.append(offdiagonal_rms(rho))
        assert np.mean(rel_rms) < 0.05
        assert np.mean(off_rms) < 3.0 / math.sqrt(dim_o)


def _statistics(sampler, ledger: EnergyLedger, seeds) -> dict[str, np.ndarray]:
    weights = microcanonical_weights(ledger)
    rows = []
    for seed in seeds:
        rho, raw = sampler(ledger, seed)
        rows.append((np.sum(np.abs(level_diagonal(ledger, rho) - weights)),
                     offdiagonal_rms(rho), raw))
    return dict(zip(("l1", "offdiag_rms", "raw_mean_sq"), np.array(rows).T))


@pytest.mark.parametrize("ledger", [lab_ledger(4, 16), RANK_DEFICIENT, lab_ledger(2, 64)],
                         ids=["lab-4-16", "rank-deficient", "single-level"])
def test_sampler_matches_the_full_coefficient_law(ledger):
    # Two-sample KS test per statistic, 2000 seeds per side on disjoint seed
    # ranges. A single level's L1 is rounding noise on both sides: skipped.
    ours = _statistics(sample_reduced_density, ledger, range(2000))
    oracle = _statistics(full_coefficient_sample, ledger, range(10**6, 10**6 + 2000))
    names = [k for k in ours if k != "l1" or ledger.n_levels > 1]
    p = {k: ks_2samp(ours[k], oracle[k]).pvalue for k in names}
    assert min(p.values()) >= 1e-3, p


class TestMicrocanonicalWeights:
    def test_hand_computed_example(self):
        ledger = two_level_ledger(8, 2)
        assert np.allclose(microcanonical_weights(ledger), [0.8, 0.2])

    def test_uniform_when_symmetric(self):
        ledger = two_level_ledger(5, 5)
        assert np.allclose(microcanonical_weights(ledger), [0.5, 0.5])

    def test_single_level(self):
        ledger = EnergyLedger(((3, 7),))
        assert np.allclose(microcanonical_weights(ledger), [1.0])

    def test_degeneracy_weighting(self):
        ledger = two_level_ledger(8, 2, g0=1, g1=4)
        assert np.allclose(microcanonical_weights(ledger), [0.5, 0.5])

    def test_empty_shell_rejected(self):
        with pytest.raises(DomainError):
            microcanonical_weights(two_level_ledger(0, 0))


def test_charged_hole_ledger_concentrates_on_its_spectrum():
    # One level per valid (omega, q) bin of an RN hole, g = 1, with the
    # remnant's state count round(exp S_BH(M - omega, Q - q)): levels that
    # share an omega hold different sector sizes.
    hole = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.5)
    spec = build_spectrum(hole, GridSpec(omega_max=0.25, n_omega=4, q_step=0.125, n_q=2),
                          Normalization.UNIT_SUM)
    bins = list(zip(spec.omega[spec.valid].tolist(), spec.q[spec.valid].tolist()))
    sizes = [round(math.exp(bh_entropy(BlackHoleState(hole.family, hole.m - w, hole.q - q))))
             for w, q in bins]
    ledger = EnergyLedger(tuple((1, n) for n in sizes))
    assert ledger.n_levels == 8 and ledger.dim_u == 49628
    assert (min(sizes), max(sizes)) == (218, 25383)
    assert bins[0][0] == bins[1][0] and sizes[0] != sizes[1]
    # Rounding the smallest sector (218) costs ~1e-3 relative.
    np.testing.assert_allclose(microcanonical_weights(ledger), spec.weights()[spec.valid],
                               rtol=2e-3, atol=0.0)
    l1, _, _ = concentration(ledger, 50, 0)
    assert l1 < math.sqrt(ledger.dim_b / ledger.dim_u)


class TestTypicalityScaling:
    def test_weight_distance_decreases_with_environment_size(self):
        ledger_sizes = [256, 1024, 4096]
        means = []
        for dim_o in ledger_sizes:
            ledger = lab_ledger(4, dim_o)
            weights = microcanonical_weights(ledger)
            dists = [
                np.sum(np.abs(level_diagonal(ledger, sample_reduced_density(ledger, seed)[0])
                              - weights))
                for seed in range(60)
            ]
            means.append(np.mean(dists))
        assert means[0] > means[1] > means[2]
        assert means[-1] < 0.05

    def test_offdiagonal_rms_halves_when_dim_o_quadruples(self):
        lab = typicality_lab(dim_b=4, dim_o=1 << 10, n_seeds=100, seed=0)
        assert 0.35 <= lab.rms_ratio <= 0.7

    def test_lab_ledger_validation(self):
        with pytest.raises(DomainError):
            lab_ledger(0, 16)
        with pytest.raises(UsageError):
            lab_ledger(4, 15)  # needs a multiple of 2
        lab_ledger(26, 4096)  # 13 levels: 2^12 divides 4096
        with pytest.raises(UsageError, match=r"2\^13"):
            lab_ledger(27, 4096)

    def test_lab_ledger_rejects_many_levels_without_allocating(self):
        # 10^6 + 1 levels: 2^(10^6) cannot divide dim_o, which has 13 bits.
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match=r"positive multiple of 2\^1000000"):
                lab_ledger(2_000_001, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(UsageError):
            typicality_lab(dim_b=4, dim_o=16, n_seeds=1, seed=-1)

    @pytest.mark.parametrize("n_seeds,seed,named", [
        (0, 0, "n_seeds must be >= 1"),
        ((1 << 20) + 1, 0, "above 1048576"),
        (1, -1, "seed must be"),
    ], ids=["no-seeds", "over-cap", "negative-seed"])
    def test_concentration_rejects_bad_counts(self, n_seeds, seed, named):
        with pytest.raises(UsageError, match=named):
            concentration(lab_ledger(4, 16), n_seeds, seed)

    def test_lab_shells_draw_disjoint_seeds(self, monkeypatch):
        from bhspectra import typicality

        drawn: dict[int, list[int]] = {}

        def recording(ledger, seed):
            drawn.setdefault(ledger.dim_u, []).append(seed)
            return sample_reduced_density(ledger, seed)

        monkeypatch.setattr(typicality, "sample_reduced_density", recording)
        typicality_lab(dim_b=4, dim_o=16, n_seeds=5, seed=0)
        base, scaled = (set(drawn[lab_ledger(4, n).dim_u]) for n in (16, 64))
        assert len(base) == len(scaled) == 5 and not base & scaled

    def test_lab_is_independent_of_blas_thread_count(self):
        # The lab's only BLAS calls are the per-level g x g block products
        # (2 x 2 here), too small for BLAS to split across threads; its traces
        # and norms are numpy reductions. Its bytes must not depend on threads.
        code = (
            "import json; from bhspectra import typicality_lab; "
            "lab = typicality_lab(dim_b=4, dim_o=4096, n_seeds=4, seed=0); "
            "print(json.dumps({k: v.hex() for k, v in lab.to_json_dict().items() "
            "if isinstance(v, float)}))"
        )
        results = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            results.append(json.loads(proc.stdout))
        assert results[0] == results[1]

