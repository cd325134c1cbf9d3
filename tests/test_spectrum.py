"""Emission log-weights, grid spectra, thermal baselines, and comparisons."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhspectra import (
    BlackHoleState,
    DomainError,
    Emission,
    Family,
    GridSpec,
    Normalization,
    RemnantInvalid,
    SpectrumGrid,
    UsageError,
    build_spectrum,
    build_thermal_spectrum,
    compare_thermal,
    emission_log_weight,
    emission_log_weights,
    thermal_log_weight,
)
from bhspectra import blackholes
from bhspectra.spectrum import (
    emission_log_weights_bulk,
    logsumexp,
)


def pw(m: float, w: float) -> float:
    """Tunneling closed form for the uncharged spectrum (test oracle)."""
    return -8.0 * math.pi * w * (m - w / 2.0)


def rn_exponent(m: float, q: float, w: float, qe: float) -> float:
    """Charged-spectrum exponent: pi R'^2 - pi R^2 by hand (test oracle)."""
    rp = (m - w) + math.sqrt((m - w) ** 2 - (q - qe) ** 2)
    r0 = m + math.sqrt(m * m - q * q)
    return math.pi * rp * rp - math.pi * r0 * r0


class TestEmissionLogWeight:
    def test_zero_emission_gives_zero(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        assert emission_log_weight(s, Emission(0.0)) == 0.0

    def test_uncharged_matches_tunneling_form(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        for w in (0.25, 0.5, 0.75, 1.0):
            assert emission_log_weight(s, Emission(w)) == pytest.approx(pw(1.0, w), abs=1e-12)

    def test_charged_matches_radius_exponent(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        got = emission_log_weight(s, Emission(0.3, 0.2))
        assert got == pytest.approx(rn_exponent(2.0, 1.0, 0.3, 0.2), abs=1e-11)

    def test_remnant_invalid_propagates(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        with pytest.raises(RemnantInvalid):
            emission_log_weight(s, Emission(1.5))

    def test_corrected_weight_is_prefactor_plus_exponent(self):
        # For alpha != 0 the single entropy difference must reproduce
        # ln[(R'/R)^(2 alpha)] + pi (R'^2 - R^2), both parts evaluated
        # independently here.
        for alpha in (-1.0, -0.5, 0.5, 1.0, 2.0):
            s = BlackHoleState(Family.SCHWARZSCHILD, 3.0, alpha=alpha)
            for w in (0.1, 1.0, 2.5):
                got = emission_log_weight(s, Emission(w))
                r0, r1 = 2.0 * 3.0, 2.0 * (3.0 - w)
                oracle = 2.0 * alpha * math.log(r1 / r0) + math.pi * (r1 * r1 - r0 * r0)
                assert got == pytest.approx(oracle, abs=1e-10)

    def test_corrected_total_evaporation_channel_closed(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=1.0)
        with pytest.raises(RemnantInvalid):
            emission_log_weight(s, Emission(1.0))

    @given(
        m=st.floats(1e-3, 1e3),
        w_frac=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_tunneling_identity_scaled_residual(self, m, w_frac):
        w = w_frac * m
        got = emission_log_weight(BlackHoleState(Family.SCHWARZSCHILD, m), Emission(w))
        expect = pw(m, w)
        assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect))

    @given(m=st.floats(0.1, 50.0), w1_frac=st.floats(0.01, 0.6), w2_frac=st.floats(0.01, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_energy(self, m, w1_frac, w2_frac):
        s = BlackHoleState(Family.SCHWARZSCHILD, m)
        w1 = w1_frac * m
        w2 = w1 + w2_frac * (m - w1)
        if w2 <= w1:
            return
        assert emission_log_weight(s, Emission(w2)) < emission_log_weight(s, Emission(w1))


class TestVectorizedWeights:
    def test_matches_scalar_op(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0, alpha=0.5)
        w = np.array([0.1, 0.5, 0.9])
        qe = np.array([0.0, 0.3, 0.6])
        logw, valid = emission_log_weights(s, w, qe)
        assert valid.all()
        for i in range(3):
            assert logw[i] == pytest.approx(
                emission_log_weight(s, Emission(w[i], qe[i])), abs=1e-11
            )

    def test_flags_closed_channels(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.8)
        logw, valid = emission_log_weights(s, np.array([0.1, 0.5]))
        assert valid.tolist() == [True, False]
        assert np.isnan(logw[1])

    def test_bulk_over_state_arrays(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0.5, 100.0, 1000)
        w = rng.uniform(0.0, 1.0, 1000) * m
        logw, valid = emission_log_weights_bulk(Family.SCHWARZSCHILD, m, 0.0, 0.0, 0.0, w)
        assert valid.all()
        expect = -8.0 * np.pi * w * (m - w / 2.0)
        assert np.max(np.abs(logw - expect) / (1.0 + np.abs(expect))) < 1e-9


class TestBuildSpectrum:
    def test_four_node_example(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        grid = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=4))
        assert np.allclose(grid.grid_spec.bins()[0], [0.25, 0.5, 0.75, 1.0])
        expect = [pw(1.0, w) for w in (0.25, 0.5, 0.75, 1.0)]
        assert np.allclose(grid.log_weight, expect, atol=1e-12)
        assert grid.log_weight[-1] == pytest.approx(-4.0 * math.pi, abs=1e-12)

    def test_single_bin_unitsum_weight_is_one(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        grid = build_spectrum(s, GridSpec(omega_max=0.5, n_omega=1), Normalization.UNIT_SUM)
        assert grid.log_weight[0] == 0.0
        assert grid.weights()[0] == 1.0

    def test_family_reduction_bitwise_on_grid(self):
        spec = GridSpec(omega_max=1.0, n_omega=64)
        schw = build_spectrum(BlackHoleState(Family.SCHWARZSCHILD, 1.0), spec)
        rn = build_spectrum(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0), spec)
        assert np.array_equal(schw.log_weight, rn.log_weight)

    def test_invalid_bins_flagged_grid_stays_rectangular(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.8)
        grid = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=10))
        # remnant needs m - w >= 0.8, so only the first two nodes stay open
        assert grid.n_bins == 10
        assert grid.valid.tolist() == [True, True] + [False] * 8
        assert np.isnan(grid.log_weight[~grid.valid]).all()

    def test_all_bins_invalid_rejected(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.95)
        with pytest.raises(DomainError):
            build_spectrum(s, GridSpec(omega_max=1.0, n_omega=4, omega_min=0.5))

    def test_unitsum_normalizes_over_valid_bins(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.8)
        grid = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=10), Normalization.UNIT_SUM)
        assert np.sum(grid.weights()) == pytest.approx(1.0, abs=1e-12)
        assert grid.log_norm is not None

    def test_unitsum_large_grid_total(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 100.0)
        grid = build_spectrum(
            s, GridSpec(omega_max=100.0, n_omega=1_000_000), Normalization.UNIT_SUM
        )
        assert abs(float(np.sum(grid.weights())) - 1.0) < 1e-10

    def test_unitsum_ten_million_bins(self):
        # log-sum-exp stability holds out to the largest supported grids;
        # most bins underflow to weight 0.0 while their logs stay exact.
        s = BlackHoleState(Family.SCHWARZSCHILD, 100.0)
        grid = build_spectrum(
            s, GridSpec(omega_max=100.0, n_omega=10_000_000), Normalization.UNIT_SUM
        )
        assert abs(float(np.sum(grid.weights())) - 1.0) < 1e-10
        assert np.isfinite(grid.log_weight).all()

    def test_grid_axis_guards(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        with pytest.raises(UsageError):
            build_spectrum(s, GridSpec(omega_max=2.0, n_omega=4))  # omega_max > M
        with pytest.raises(UsageError):
            build_spectrum(s, GridSpec(omega_max=1.0, n_omega=4, n_q=2))
        rn = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.5)
        with pytest.raises(UsageError):
            build_spectrum(rn, GridSpec(omega_max=1.0, n_omega=4, n_j=2))

    def test_charged_grid_covers_charge_axis(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        grid = build_spectrum(
            s, GridSpec(omega_max=1.0, n_omega=3, q_step=0.5, n_q=3)
        )
        assert grid.n_bins == 9
        i = 4  # omega = 2/3, q = 0.5
        omega, q, _ = grid.grid_spec.bins()
        assert q[i] == 0.5
        assert grid.log_weight[i] == pytest.approx(
            emission_log_weight(s, Emission(omega[i], 0.5)), abs=1e-11
        )


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# (state, grid): every family, alpha != 0 of both signs, omega_min > 0, spin
# axes, and a Reissner-Nordstrom state 1e-6 from extremality.
AXIS_CASES = {
    "schw": (BlackHoleState(Family.SCHWARZSCHILD, 3.0),
             GridSpec(omega_max=3.0, n_omega=257)),
    "schw-alpha": (BlackHoleState(Family.SCHWARZSCHILD, 3.0, alpha=-0.5),
                   GridSpec(omega_max=2.5, n_omega=200, omega_min=0.25)),
    "rn": (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0),
           GridSpec(omega_max=1.5, n_omega=301, q_step=0.25, n_q=4)),
    "rn-alpha": (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0, alpha=0.7),
                 GridSpec(omega_max=1.5, n_omega=301, omega_min=0.1, q_step=-0.125, n_q=5)),
    "rn-near-extremal": (BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.999999, alpha=0.25),
                         GridSpec(omega_max=0.5, n_omega=400, q_step=1e-3, n_q=3)),
    "kn": (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5),
           GridSpec(omega_max=1.0, n_omega=150, q_step=0.125, n_q=3, j_step=0.125, n_j=4)),
    "kn-alpha": (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5, alpha=1.5),
                 GridSpec(omega_max=1.0, n_omega=150, omega_min=0.2, q_step=0.125, n_q=2,
                          j_step=-0.25, n_j=4)),
}


@pytest.mark.parametrize("state,spec", AXIS_CASES.values(), ids=AXIS_CASES.keys())
def test_build_spectrum_on_axes_equals_flat_kernel(state, spec):
    # build_spectrum feeds the kernel the three axes; the flat product grid
    # through emission_log_weights must give the same bits, bin for bin.
    omega, q, j = spec.bins()
    logw, valid = emission_log_weights(state, omega, q, j)
    grid = build_spectrum(state, spec, Normalization.RAW)
    assert grid.log_weight.shape == (spec.n_bins,)
    np.testing.assert_array_equal(_bits(grid.log_weight), _bits(logw))
    np.testing.assert_array_equal(grid.valid, valid)


def _steps(n: int, lo: float, hi: float, shape) -> np.ndarray:
    """n values from lo to hi, in `shape`."""
    return np.linspace(lo, hi, n).reshape(shape)


# Emission hairs (omega, q_e, j_e) of a Kerr-Newman hole, M = 2, Q = J = 0.5,
# in a range that closes some channels (omega > M, super-extremal remnants),
# with a negative j step, laid out in each shape of the blocked evaluation.
BLOCK_SHAPES = {
    "0-d": lambda: (np.float64(0.75), np.float64(0.125), np.float64(-0.25)),
    **{
        f"flat-{n}": (lambda n=n: (_steps(n, 0.0, 2.5, n), _steps(n, 0.0, 1.0, n),
                                   _steps(n, 0.0, -1.5, n)))
        for n in (36, 37, 38)
    },
    "(n,1)x(1,n)": lambda: (_steps(20, 0.05, 2.5, (20, 1)), _steps(20, 0.0, 1.0, (1, 20)),
                            np.float64(-0.125)),
    "(n_q,n_j,n_omega)": lambda: (_steps(50, 0.05, 2.5, (1, 1, 50)), _steps(3, 0.0, 0.5, (3, 1, 1)),
                                  _steps(4, 0.0, -0.75, (1, 4, 1))),
    "longest-in-middle": lambda: (_steps(50, 0.05, 2.5, (1, 50, 1)), _steps(3, 0.0, 0.5, (3, 1, 1)),
                                  _steps(4, 0.0, -0.75, (1, 1, 4))),
}


@pytest.mark.parametrize("block", [1, 37])
@pytest.mark.parametrize("hairs", BLOCK_SHAPES.values(), ids=BLOCK_SHAPES.keys())
def test_blockwise_kernels_equal_one_block_bitwise(monkeypatch, block, hairs):
    omega, q_e, j_e = hairs()
    kn = (Family.KERR_NEWMAN, 2.0, 0.5, 0.5, 1.5)

    def both():
        logw, valid = emission_log_weights_bulk(*kn, omega, q_e, j_e)
        s = blackholes.entropy_grid(Family.KERR_NEWMAN, 2.0 - omega, 0.5 - q_e, 0.5 - j_e, 1.5)
        return logw, valid, s

    size = np.broadcast(omega, q_e, j_e).size
    monkeypatch.setattr(blackholes, "_BLOCK", size + 1)
    want = both()
    monkeypatch.setattr(blackholes, "_BLOCK", block)
    got = both()
    for g, w in zip(got, want):
        assert g.shape == w.shape == np.broadcast(omega, q_e, j_e).shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    # Both kernels see open and closed channels, valid and invalid remnants.
    assert 0 < np.count_nonzero(want[1]) < size or size == 1
    assert 0 < np.count_nonzero(np.isnan(want[2])) < size or size == 1


def test_blockwise_cuts_the_longest_axis(monkeypatch):
    monkeypatch.setattr(blackholes, "_BLOCK", 37)
    seen = []

    def add(a, b, c):
        seen.append((a.shape, b.shape, c.shape))
        return a + b + c, a * b * c

    a, b, c = np.ones((3, 1, 1)), np.arange(50.0).reshape(1, 50, 1), np.arange(4.0)
    total, product = blackholes._blockwise(add, a, b, c)
    np.testing.assert_array_equal(total, a + b + c)
    np.testing.assert_array_equal(product, a * b * c)
    # 37 elements over the 3 x 4 others: 3 middle indices per block.
    assert seen == [((3, 1, 1), (1, 3, 1), (4,))] * 16 + [((3, 1, 1), (1, 2, 1), (4,))]
    # At most one block: a direct call.
    seen.clear()
    blackholes._blockwise(add, a, b[:, :3], c)
    assert seen == [((3, 1, 1), (1, 3, 1), (4,))]


@pytest.mark.parametrize("state,spec", AXIS_CASES.values(), ids=AXIS_CASES.keys())
def test_thermal_baseline_equals_per_bin_scalar(state, spec):
    # The baseline is evaluated once per omega node and repeated over q and
    # j: the same bits as the scalar baseline of each bin.
    omega, _, _ = spec.bins()
    grid = build_thermal_spectrum(state, spec, Normalization.RAW)
    want = np.array([thermal_log_weight(state, w) for w in omega.tolist()])
    np.testing.assert_array_equal(_bits(grid.log_weight), _bits(want))
    assert grid.valid.all() and grid.n_bins == spec.n_bins


def test_bins_are_omega_major_then_q_then_j():
    spec = AXIS_CASES["kn-alpha"][1]
    product = itertools.product(spec.omega_nodes(), spec.q_values(), spec.j_values())
    want = np.array(list(product)).T
    for got, axis in zip(spec.bins(), want):
        assert got.shape == (spec.n_bins,)
        np.testing.assert_array_equal(_bits(got), _bits(axis))


def test_spectrum_grid_is_its_spec_state_and_weights():
    fields = [f.name for f in dataclasses.fields(SpectrumGrid)]
    assert fields == ["log_weight", "valid", "normalization", "source_state", "grid_spec",
                      "log_norm"]
    state, spec = AXIS_CASES["rn"]
    grid = build_spectrum(state, spec)
    # log_weight and valid hold one entry per bin of grid_spec, or the grid is refused.
    for change in (
        {"log_weight": grid.log_weight[:-1]},
        {"valid": grid.valid.reshape(spec.n_omega, -1)},
        {"grid_spec": dataclasses.replace(spec, n_q=spec.n_q + 1)},
    ):
        with pytest.raises(UsageError, match="grid's shape"):
            dataclasses.replace(grid, **change)


class TestThermal:
    def test_schwarzschild_values(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        assert thermal_log_weight(s, 0.1) == pytest.approx(-0.8 * math.pi, abs=1e-13)
        assert thermal_log_weight(s, 0.0) == 0.0

    def test_deviation_identity_exact(self):
        # thermal - nonthermal = -4 pi w^2, the quantified thermal-limit gap.
        for m in (0.5, 1.0, 10.0, 1000.0):
            s = BlackHoleState(Family.SCHWARZSCHILD, m)
            for w in (0.01, 0.1, 1.0):
                if w > m:
                    continue
                d = thermal_log_weight(s, w) - emission_log_weight(s, Emission(w))
                assert abs(d + 4.0 * math.pi * w * w) < 1e-10

    def test_extremal_has_no_thermal_baseline(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 1.0)
        with pytest.raises(DomainError):
            thermal_log_weight(s, 0.1)

    def test_charged_baseline_uses_surface_gravity(self):
        from bhspectra import hawking_temperature

        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        assert thermal_log_weight(s, 0.3) == pytest.approx(
            -0.3 / hawking_temperature(s), rel=1e-12
        )


class TestCompareThermal:
    def test_self_comparison_is_zero(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        grid = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=16), Normalization.UNIT_SUM)
        cmp = compare_thermal(grid, grid)
        assert cmp.kl_divergence == pytest.approx(0.0, abs=1e-14)
        assert cmp.max_abs_log_ratio == 0.0

    def test_raw_max_log_ratio_is_4pi_omega_max_sq(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        spec = GridSpec(omega_max=1.0, n_omega=32)
        cmp = compare_thermal(build_spectrum(s, spec), build_thermal_spectrum(s, spec))
        assert cmp.max_abs_log_ratio == pytest.approx(4.0 * math.pi, abs=1e-10)
        assert cmp.kl_divergence is None  # raw spectra carry no KL

    def test_near_thermal_regime_bound(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 100.0)
        spec = GridSpec(omega_max=0.01, n_omega=32)
        cmp = compare_thermal(build_spectrum(s, spec), build_thermal_spectrum(s, spec))
        assert cmp.max_abs_log_ratio <= 4.0 * math.pi * 1e-4 + 1e-12

    def test_kl_nonnegative_for_unitsum(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        spec = GridSpec(omega_max=1.0, n_omega=64)
        cmp = compare_thermal(
            build_spectrum(s, spec, Normalization.UNIT_SUM),
            build_thermal_spectrum(s, spec, Normalization.UNIT_SUM),
        )
        assert cmp.kl_divergence >= -1e-12
        assert cmp.kl_divergence > 0.0  # non-thermality is detectable at omega ~ M

    def test_grid_mismatch_rejected(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        a = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=16))
        b = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=8))
        with pytest.raises(UsageError):
            compare_thermal(a, b)


class TestLogSumExp:
    """spectrum.logsumexp against scipy's, bit for bit, on 1-D real arrays."""

    @staticmethod
    def assert_same(a: np.ndarray) -> None:
        from scipy.special import logsumexp as scipy_logsumexp

        ours, ref = logsumexp(a), float(scipy_logsumexp(a))
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert np.float64(ours).view(np.int64) == np.float64(ref).view(np.int64), (ours, ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 1000, 65_537, 200_000])
    def test_random_arrays(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 50.0, 1e4):
            for shift in (0.0, -700.0):
                a = rng.normal(scale=scale, size=n) + shift
                self.assert_same(a)
                self.assert_same(np.round(a, 1))  # rounded: many exact repeats

    @pytest.mark.parametrize("n", [2, 9, 1000, 200_000])
    def test_ties_at_the_maximum(self, n):
        rng = np.random.default_rng(n + 1)
        a = rng.normal(scale=0.1, size=n)
        a[rng.integers(0, n, size=max(2, n // 3))] = 0.5
        a[0] = 0.5
        self.assert_same(a)
        self.assert_same(np.full(n, -12.25))

    @pytest.mark.parametrize("special", [-np.inf, np.inf, np.nan])
    def test_non_finite_entries(self, special):
        rng = np.random.default_rng(7)
        for n in (1, 2, 50, 10_000):
            a = rng.normal(size=n)
            a[rng.integers(0, n, size=max(1, n // 10))] = special
            self.assert_same(a)
            self.assert_same(np.full(n, special))

    def test_mixed_infinities_and_empty(self):
        self.assert_same(np.array([np.inf, -np.inf, 1.0]))
        self.assert_same(np.array([-np.inf, -np.inf, 0.5]))
        self.assert_same(np.array([np.nan, np.inf]))
        self.assert_same(np.array([]))
