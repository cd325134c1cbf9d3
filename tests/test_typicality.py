"""Random pure states, partial traces, microcanonical weights, and the
typicality lab."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bhspectra import (
    DomainError,
    EnergyLedger,
    UsageError,
    lab_ledger,
    level_diagonal,
    microcanonical_weights,
    offdiagonal_rms,
    reduce_to_system,
    sample_universe_state,
    typicality_lab,
)
from bhspectra.typicality import PureStateSample


def two_level_ledger(n0: int, n1: int, g0: int = 1, g1: int = 1) -> EnergyLedger:
    return EnergyLedger(((0.0, g0), (1.0, g1)), {2.0: n0, 1.0: n1}, 2.0)


class TestLedger:
    def test_missing_sector_rejected(self):
        with pytest.raises(DomainError):
            EnergyLedger(((0.0, 1),), {1.0: 4}, 2.0)  # needs sector at E_O = 2

    def test_e_u_below_level_rejected(self):
        with pytest.raises(DomainError):
            EnergyLedger(((3.0, 1),), {0.0: 4}, 2.0)

    def test_degeneracy_bounds(self):
        with pytest.raises(DomainError):
            EnergyLedger(((0.0, 0),), {2.0: 4}, 2.0)
        with pytest.raises(DomainError):
            two_level_ledger(-1, 2)

    def test_dimensions(self):
        ledger = two_level_ledger(8, 2, g0=2, g1=1)
        assert ledger.dim_b == 3
        assert ledger.dim_u == 2 * 8 + 1 * 2
        assert ledger.sector_sizes() == (8, 2)


class TestSampler:
    def test_single_coefficient_has_magnitude_one(self):
        ledger = EnergyLedger(((0.0, 1),), {1.0: 1}, 1.0)
        sample = sample_universe_state(ledger, seed=123)
        assert abs(np.abs(sample.coefficients[0][0, 0]) - 1.0) < 1e-12

    def test_global_norm_is_one(self):
        ledger = lab_ledger(2, 4096)
        sample = sample_universe_state(ledger, seed=42)
        total = sum(np.sum(np.abs(b) ** 2) for b in sample.coefficients)
        assert abs(total - 1.0) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        ledger = lab_ledger(3, 1 << 12)
        a = sample_universe_state(ledger, seed=7)
        b = sample_universe_state(ledger, seed=7)
        for x, y in zip(a.coefficients, b.coefficients):
            assert np.array_equal(x, y)
        assert a.raw_mean_sq == b.raw_mean_sq

    def test_mean_square_matches_counting_convention(self):
        # Stored coefficients are unit-norm, so mean |c|^2 over the dim_U
        # entries is exactly 1/dim_U; in the conventional scaling (sqrt(dim_U)
        # times ours) the pre-normalization mean |C|^2 concentrates at 1.
        ledger = lab_ledger(3, 1 << 12)
        sample = sample_universe_state(ledger, seed=7)
        total = sum(np.sum(np.abs(b) ** 2) for b in sample.coefficients)
        assert total / ledger.dim_u == pytest.approx(1.0 / ledger.dim_u, rel=1e-12)
        raw = [sample_universe_state(ledger, seed=s).raw_mean_sq for s in range(100)]
        assert np.mean(raw) == pytest.approx(1.0, abs=0.02)
        assert np.std(raw) < 0.02

    def test_block_shapes_match_ledger(self):
        ledger = two_level_ledger(8, 2, g0=2, g1=3)
        sample = sample_universe_state(ledger, seed=0)
        assert [b.shape for b in sample.coefficients] == [(2, 8), (3, 2)]

    def test_empty_shell_rejected(self):
        with pytest.raises(DomainError):
            sample_universe_state(two_level_ledger(0, 0), seed=0)

    def test_dimension_cap(self):
        with pytest.raises(UsageError):
            sample_universe_state(lab_ledger(2, 1 << 22), seed=0)  # dim_U = 2^23

    def test_unnormalized_sample_rejected(self):
        ledger = EnergyLedger(((0.0, 1),), {1.0: 1}, 1.0)
        with pytest.raises(DomainError):
            PureStateSample((np.array([[2.0 + 0j]]),), ledger, 0, 1.0)


class TestReduce:
    def test_product_state_gives_projector(self):
        ledger = two_level_ledger(1, 1)
        sample = PureStateSample(
            (np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]])), ledger, 0, 1.0
        )
        rho = reduce_to_system(sample)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_equal_entangled_state_gives_maximally_mixed(self):
        # One doubly degenerate level, each copy tied to its own environment
        # state with coefficient 1/sqrt(2).
        ledger = EnergyLedger(((0.0, 2),), {1.0: 2}, 1.0)
        c = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / math.sqrt(2.0)
        rho = reduce_to_system(PureStateSample((c,), ledger, 0, 1.0))
        assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-15)

    def test_partial_trace_properties(self):
        ledger = lab_ledger(4, 1 << 10)
        for seed in range(5):
            rho = reduce_to_system(sample_universe_state(ledger, seed))
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
            assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

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
            rho = reduce_to_system(sample_universe_state(ledger, seed))
            diag = np.real(np.diag(rho.matrix))
            rel_rms.append(np.sqrt(np.mean((diag / per_state - 1.0) ** 2)))
            off_rms.append(offdiagonal_rms(rho))
        assert np.mean(rel_rms) < 0.05
        assert np.mean(off_rms) < 3.0 / math.sqrt(dim_o)


class TestMicrocanonicalWeights:
    def test_hand_computed_example(self):
        ledger = two_level_ledger(8, 2)
        assert np.allclose(microcanonical_weights(ledger), [0.8, 0.2])

    def test_uniform_when_symmetric(self):
        ledger = two_level_ledger(5, 5)
        assert np.allclose(microcanonical_weights(ledger), [0.5, 0.5])

    def test_single_level(self):
        ledger = EnergyLedger(((0.0, 3),), {1.0: 7}, 1.0)
        assert np.allclose(microcanonical_weights(ledger), [1.0])

    def test_degeneracy_weighting(self):
        ledger = two_level_ledger(8, 2, g0=1, g1=4)
        assert np.allclose(microcanonical_weights(ledger), [0.5, 0.5])

    def test_empty_shell_rejected(self):
        with pytest.raises(DomainError):
            microcanonical_weights(two_level_ledger(0, 0))


class TestTypicalityScaling:
    def test_weight_distance_decreases_with_environment_size(self):
        ledger_sizes = [256, 1024, 4096]
        means = []
        for dim_o in ledger_sizes:
            ledger = lab_ledger(4, dim_o)
            weights = microcanonical_weights(ledger)
            dists = [
                np.sum(np.abs(level_diagonal(ledger, reduce_to_system(
                    sample_universe_state(ledger, seed))) - weights))
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

    def test_lab_ledger_rejects_many_levels_before_allocating(self):
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

    def test_lab_is_independent_of_blas_thread_count(self):
        # At dim_o = 4096 the 4x run draws states of dim_U >= 16384, where a
        # BLAS dot product is split across threads; the lab must not use one.
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

