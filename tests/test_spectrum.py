"""Emission log-weights, grid spectra, thermal baselines, and comparisons."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
    unit_sum,
)
from bhspectra import blackholes
from bhspectra.spectrum import (
    emission_log_weights_bulk,
    exp_weights,
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

    @pytest.mark.parametrize("m,omega", [(1e-170, 1e-171), (1e-150, 1e-150 * (1 - 2**-52))],
                             ids=["state", "remnant"])
    def test_corrected_weight_at_a_zero_float64_area_is_a_numerical_failure(self, m, omega):
        # 4 M^2 underflows to 0 for the state (M = 1e-170) or for the
        # remnant (M' ~ 2.7e-166), where the log-corrected entropy is undefined.
        s = BlackHoleState(Family.SCHWARZSCHILD, m, alpha=1.0)
        with pytest.raises(FloatingPointError, match="float64 horizon area"):
            emission_log_weight(s, Emission(omega))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m,omega", [(1e-170, 1e-171), (1e-150, 1e-150 * (1 - 2**-52))],
                             ids=["state", "remnant"])
    def test_vector_route_at_a_zero_float64_area_is_a_numerical_failure(self, m, omega):
        # The same channels through the vector route, beside a closed one
        # (omega = M leaves no remnant); finite corrected weights still pass.
        s = BlackHoleState(Family.SCHWARZSCHILD, m, alpha=1.0)
        with pytest.raises(FloatingPointError, match="float64 horizon area is 0 at 1 open"):
            emission_log_weights(s, np.array([m, omega]))
        logw, valid = emission_log_weights(BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=1.0),
                                           np.array([0.5, 1.0]))
        assert np.isfinite(logw[0]) and valid.tolist() == [True, False]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "state,e",
        [(BlackHoleState(Family.SCHWARZSCHILD, 1e200), Emission(1e199)),  # -inf
         (BlackHoleState(Family.REISSNER_NORDSTROM, 1e100, 5e99), Emission(1e99, 1e98))],  # nan
        ids=["schw", "rn_disc"],
    )
    def test_a_weight_float64_cannot_hold_is_a_numerical_failure(self, state, e):
        # Both routes refuse it, naming the channel; neither warns.
        with pytest.raises(FloatingPointError, match="log-weight is not finite in float64 at 1 "):
            emission_log_weight(state, e)
        with pytest.raises(FloatingPointError, match="log-weight is not finite in float64 at 2 "):
            emission_log_weights(state, np.array([e.omega, e.omega]), e.q)

    @pytest.mark.filterwarnings("error")
    def test_vector_route_names_the_first_channel_float64_cannot_hold(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1e200)
        with pytest.raises(FloatingPointError, match=r"at 3 open channels, the first at "
                           r"\(M, Q, J\) = \(1e\+200, 0\.0, 0\.0\) emitting "
                           r"\(omega, q, j\) = \(5e\+199, 0\.0, 0\.0\)"):
            emission_log_weights(s, np.array([0.0, 1e100, 5e199, 1e200, 1e199]))

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
        assert np.allclose(grid.grid_spec.axes()[0].ravel(), [0.25, 0.5, 0.75, 1.0])
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
        omega, q, _ = _flat_bins(grid.grid_spec)
        assert q[i] == 0.5
        assert grid.log_weight[i] == pytest.approx(
            emission_log_weight(s, Emission(omega[i], 0.5)), abs=1e-11
        )


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _flat_bins(spec: GridSpec) -> list[np.ndarray]:
    """The omega, q and j value of each bin, in bin order."""
    return [x.ravel() for x in np.broadcast_arrays(*spec.axes())]


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
    omega, q, j = _flat_bins(spec)
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
    omega, _, _ = _flat_bins(spec)
    grid = build_thermal_spectrum(state, spec, Normalization.RAW)
    want = np.array([thermal_log_weight(state, w) for w in omega.tolist()])
    np.testing.assert_array_equal(_bits(grid.log_weight), _bits(want))
    assert grid.valid.all() and grid.n_bins == spec.n_bins


def test_axes_broadcast_to_omega_major_then_q_then_j():
    spec = AXIS_CASES["kn-alpha"][1]
    assert [x.shape for x in spec.axes()] == [(spec.n_omega, 1, 1), (spec.n_q, 1), (spec.n_j,)]
    product = itertools.product(spec.omega_nodes(), spec.q_values(), spec.j_values())
    want = np.array(list(product)).T
    for got, axis in zip(_flat_bins(spec), want):
        assert got.shape == (spec.n_bins,)
        np.testing.assert_array_equal(_bits(got), _bits(axis))


@pytest.mark.parametrize("build", [build_spectrum, build_thermal_spectrum])
@pytest.mark.parametrize("state,spec", AXIS_CASES.values(), ids=AXIS_CASES.keys())
def test_unit_sum_of_raw_grid_equals_unit_sum_build(build, state, spec):
    raw = build(state, spec, Normalization.RAW)
    logw, valid = raw.log_weight.copy(), raw.valid.copy()
    got = unit_sum(raw)
    want = build(state, spec, Normalization.UNIT_SUM)
    assert got.normalization is Normalization.UNIT_SUM
    np.testing.assert_array_equal(_bits(got.log_weight), _bits(want.log_weight))
    np.testing.assert_array_equal(got.valid, want.valid)
    assert _bits(np.float64(got.log_norm)) == _bits(np.float64(want.log_norm))
    # The raw grid's arrays are the caller's: normalizing never touches them.
    assert raw.normalization is Normalization.RAW and raw.log_norm is None
    np.testing.assert_array_equal(_bits(raw.log_weight), _bits(logw))
    np.testing.assert_array_equal(raw.valid, valid)
    # A unit-sum grid is already converted.
    assert unit_sum(want) is want


def test_weights_are_exp_log_weight_on_valid_bins_and_zero_elsewhere():
    state, spec = AXIS_CASES["rn"]
    grid = build_spectrum(state, spec)
    # One valid bin whose exp underflows, and one invalid bin with a finite log_weight.
    grid = dataclasses.replace(grid, log_weight=grid.log_weight.copy(), valid=grid.valid.copy())
    grid.log_weight[0], grid.valid[0] = -800.0, True
    grid.log_weight[1], grid.valid[1] = -1.0, False
    want = np.where(grid.valid, np.exp(np.where(grid.valid, grid.log_weight, 0.0)), 0.0)
    weights = grid.weights()
    assert weights[0] == 0.0 and weights[1] == 0.0
    assert weights.tobytes() == want.tobytes()


def _n_underflow_by_weights(grid: SpectrumGrid) -> int:
    return int(np.count_nonzero(grid.valid & (grid.weights() == 0.0)))


def test_n_underflow_counts_the_zero_weights_across_the_edge():
    # Log-weights from 3 nats below exp's underflow edge (ln 2^-1075 ~
    # -745.133) to 3 nats above, an ulp apart around it, every third bin
    # invalid; then the grid shifted by whole nats, so that the edge falls
    # outside the band of exponentiated bins too.
    spec = GridSpec(omega_max=1.0, n_omega=6003)
    edge = math.log(math.ulp(0.0)) - math.log(2.0)
    logw = np.concatenate([np.linspace(edge - 3.0, edge + 3.0, 5981),
                           edge + np.arange(-11, 11) * math.ulp(edge)])
    valid = np.arange(spec.n_bins) % 3 != 0
    state = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
    for shift in (0.0, -2.0, 2.0, -700.0, 745.0):
        grid = SpectrumGrid(log_weight=logw + shift, valid=valid, normalization=Normalization.RAW,
                            source_state=state, grid_spec=spec)
        n_underflow = grid.n_underflow()
        assert n_underflow == _n_underflow_by_weights(grid), shift
        if shift == 0.0:
            assert 0 < n_underflow < grid.n_valid


@pytest.mark.parametrize("normalization", [Normalization.RAW, Normalization.UNIT_SUM])
def test_n_underflow_on_the_underflow_golden_config(normalization):
    # tests/test_spectrum_golden.py's schw_underflow: M = 700, 2000 bins.
    grid = build_spectrum(BlackHoleState(Family.SCHWARZSCHILD, 700.0),
                          GridSpec(omega_max=700.0, n_omega=2000), normalization)
    assert grid.n_underflow() == _n_underflow_by_weights(grid) > 0


@pytest.mark.filterwarnings("error")
def test_n_underflow_raises_where_a_weight_overflows():
    state, spec = AXIS_CASES["rn"]
    grid = build_spectrum(state, spec)
    grid = dataclasses.replace(grid, log_weight=grid.log_weight.copy(), valid=grid.valid.copy())
    grid.log_weight[:2], grid.valid[:2] = (np.inf, 1e308), False
    grid.log_weight[3], grid.valid[3] = 709.5, True  # within a nat of the edge, finite
    assert grid.n_underflow() == _n_underflow_by_weights(grid)
    grid.log_weight[5], grid.valid[5] = 710.0, True
    with pytest.raises(FloatingPointError) as by_count:
        grid.n_underflow()
    with pytest.raises(FloatingPointError) as by_weights:
        grid.weights()
    assert str(by_count.value) == str(by_weights.value)


@pytest.mark.filterwarnings("error")
def test_a_weight_above_float64_range_is_a_numerical_failure():
    state, spec = AXIS_CASES["rn"]
    grid = build_spectrum(state, spec)
    grid = dataclasses.replace(grid, log_weight=grid.log_weight.copy(), valid=grid.valid.copy())
    # Huge and infinite log-weights on invalid bins weigh 0.
    grid.log_weight[:2], grid.valid[:2] = (np.inf, 1e308), False
    assert (grid.weights()[:2] == 0.0).all()
    grid.log_weight[5], grid.valid[5] = 710.0, True
    with pytest.raises(FloatingPointError, match=r"weight .* overflows float64 .* the first at "
                                                 r"index 5, log_weight = 710\.0$"):
        grid.weights()
    # In place, the entry alone is named: its log-weight is overwritten.
    logp = np.array([0.0, 1000.0, -1.0])
    with pytest.raises(FloatingPointError, match=r"1 entries, the first at index 1$"):
        exp_weights(logp, out=logp)


def _masked_exp_mismatches(n_cases: int = 40) -> list[int]:
    """The cases, of n_cases random ones, where exp_weights differs in a bit
    from the gather form out[valid] = exp(log_weight[valid]), or, with no
    mask or in place, from np.exp. Up to ~3e5 entries each; the valid values
    straddle exp's underflow edge (about -745.2 to -708), and the invalid
    ones are nan, +-inf and 1e308. The masks are random flags or runs, as a
    grid's closed channels come."""
    rng = np.random.default_rng(2024)
    mismatches = []
    for case in range(n_cases):
        n = int(rng.integers(1, 300_000))
        log_weight = np.where(rng.random(n) < 0.5, rng.uniform(-746.0, -707.0, n),
                              rng.uniform(-800.0, 709.0, n))
        if case % 2:
            valid = rng.random(n) < rng.random()
        else:
            valid = np.resize(np.repeat([True, False], rng.integers(1, 5000, 2)), n)
        log_weight[~valid] = rng.choice([np.nan, np.inf, -np.inf, 1e308], n - valid.sum())
        gathered = log_weight[valid]
        want = np.zeros(n)
        with np.errstate(under="ignore"):
            want[valid] = plain = np.exp(gathered)
        if (exp_weights(log_weight, valid).tobytes() != want.tobytes()
                or exp_weights(gathered).tobytes() != plain.tobytes()
                or exp_weights(gathered, out=gathered).tobytes() != plain.tobytes()):
            mismatches.append(case)
    return mismatches


def test_masked_exp_matches_the_gather_form_bit_for_bit():
    assert _masked_exp_mismatches() == []


def test_masked_exp_matches_the_gather_form_under_avx2_dispatch():
    # numpy's AVX2 loops on an AVX-512 host: another masked loop, same bits.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    if subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                      capture_output=True).returncode:
        pytest.skip("numpy rejects NPY_DISABLE_CPU_FEATURES here")
    proc = subprocess.run(
        [sys.executable, "-c", "import test_spectrum; print(test_spectrum._masked_exp_mismatches())"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("value", [2.5, 2.0])
@pytest.mark.parametrize("axis", ["n_omega", "n_q", "n_j"])
def test_grid_axis_sizes_are_whole_numbers(axis, value):
    with pytest.raises(UsageError, match="grid axis sizes must be integers"):
        GridSpec(**{"omega_max": 1.0, "n_omega": 4, axis: value})


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

    def test_zero_mass_has_no_thermal_baseline(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 0.0)
        with pytest.raises(DomainError, match="zero temperature"):
            thermal_log_weight(s, 0.1)

    def test_charged_baseline_uses_surface_gravity(self):
        from bhspectra import hawking_temperature

        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        assert thermal_log_weight(s, 0.3) == pytest.approx(
            -0.3 / hawking_temperature(s), rel=1e-12
        )

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_baseline_is_a_numerical_failure(self):
        # -8 pi M omega overflows at the last node, where the spectrum's
        # -4 pi omega (2M - omega) does not.
        s = BlackHoleState(Family.SCHWARZSCHILD, 5.5e153)
        spec = GridSpec(omega_max=1.375e153, n_omega=4)
        assert np.isfinite(build_spectrum(s, spec).log_weight).all()
        with pytest.raises(FloatingPointError, match=r"thermal .* at omega = 1\.375e\+153"):
            build_thermal_spectrum(s, spec)
        with pytest.raises(FloatingPointError, match="thermal log-weight"):
            thermal_log_weight(s, 1.375e153)
        assert math.isfinite(thermal_log_weight(s, 1e153))


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

    def test_no_common_valid_bin_rejected(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        a = build_spectrum(s, GridSpec(omega_max=1.0, n_omega=4))
        b = dataclasses.replace(a, valid=~a.valid)
        with pytest.raises(UsageError, match="no bins are valid in both spectra"):
            compare_thermal(a, b)

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

    def test_pairwise_sum_is_numpys(self):
        # The float route sums in numpy's order: a change of that order
        # in numpy fails here.
        from bhspectra.blackholes import _pairwise_sum

        rng = np.random.default_rng(3)
        sizes = [*range(1, 301), *rng.integers(301, 20_001, size=40).tolist()]
        for n in sizes:
            a = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
            assert _pairwise_sum(a.tolist()) == np.sum(a), n

    @pytest.mark.parametrize("row", [[np.inf, -np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0],
                                     [1.0, np.nan], [np.inf, 800.0], [-np.inf, 0.5], [],
                                     [710.0], [-0.0]])
    def test_float_route_on_non_finite_single_and_empty(self, row):
        # exp and log of 0, 1 and non-finite values: no rounding for the
        # routes' exp, log and log1p to differ in.
        ours, ref = logsumexp(row), logsumexp(np.array(row, dtype=np.float64))
        assert type(ours) is float
        assert np.float64(ours).tobytes() == np.float64(ref).tobytes()


class TestPairwiseLeaves:
    """blackholes._pairwise_leaves and _ranked against numpy's own sums.

    The leaf walk reproduces np.add.reduce's pairwise order for a
    contiguous float64 array (numpy's pairwise_sum: cut at a multiple of 8
    below the middle down to 128 values). The spectrum's normalization and
    the information report rely on it for their bits: if numpy's order
    changes, these tests fail.
    """

    # Log-uniform sizes up to 3e6, and the sizes around the cuts.
    SIZES = sorted({*range(0, 20), 127, 128, 129, 8191, 8192, 8193, 16384, 16385, 24577,
                    3_000_000, *np.exp(np.random.default_rng(11).uniform(
                        math.log(20), math.log(3e6), size=190)).astype(int).tolist()})

    @staticmethod
    def values(rng, n):
        """Normal values across 16 decades, some -inf, ties at the maximum."""
        a = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        a[rng.random(n) < 0.01] = -np.inf
        if n:
            a[rng.integers(0, n, size=1 + n // 1000)] = a.max()
        return a

    def test_leaves_sum_as_numpy(self):
        from bhspectra.blackholes import _pairwise_leaves, _ranked

        assert len(self.SIZES) >= 200
        rng = np.random.default_rng(12)
        a = self.values(rng, self.SIZES[-1])
        finite = np.where(np.isfinite(a), a, 1.0)
        mask = rng.random(a.size) < 0.8
        for n in self.SIZES:
            got = _pairwise_leaves(n, lambda lo, hi: finite[lo:hi])
            assert got.tobytes() == np.sum(finite[:n]).tobytes(), (
                f"numpy's pairwise summation order changed: {n} values")
            m, at = _ranked(mask[:n])
            want = finite[:n][mask[:n]]
            assert m == want.size
            got = _pairwise_leaves(m, lambda lo, hi: finite[at(lo, hi)])
            assert got.tobytes() == np.sum(want).tobytes(), (
                f"numpy's pairwise summation order changed: {m} of {n} values")
            rows = _pairwise_leaves(m, lambda lo, hi: np.stack([finite[at(lo, hi)], want[lo:hi]]))
            assert rows.tobytes() == np.sum(np.stack([want, want]), axis=-1).tobytes(), n

    def test_masked_logsumexp_is_the_gathered_one(self):
        rng = np.random.default_rng(13)
        a = self.values(rng, self.SIZES[-1])
        mask = rng.random(a.size) < 0.7
        for n in self.SIZES[::3]:
            want = logsumexp(a[:n][mask[:n]])
            for got in (logsumexp(a[:n], mask[:n]), logsumexp(a[:n])
                        if mask[:n].all() else want):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), n
        # The masked-out entries are never read: nan, inf, ties above the maximum.
        junk = np.where(mask, a, np.array([np.nan, np.inf, 1e300])[np.arange(a.size) % 3])
        got = logsumexp(junk[:100_000], mask[:100_000])
        assert np.float64(got).tobytes() == np.float64(logsumexp(a[:100_000][mask[:100_000]])).tobytes()

    def test_ranked_indices(self):
        from bhspectra.blackholes import _LEAF, _ranked

        rng = np.random.default_rng(14)
        for n, density in [(0, 0.5), (1, 1.0), (5 * _LEAF + 3, 0.5), (3 * _LEAF, 0.001),
                           (3 * _LEAF, 1.0), (4 * _LEAF + 1, 0.0)]:
            mask = rng.random(n) < density
            m, at = _ranked(mask)
            index = np.flatnonzero(mask)
            assert m == index.size
            cuts = sorted({0, m, *rng.integers(0, m + 1, size=20).tolist()})
            for lo, hi in itertools.combinations(cuts, 2):
                assert at(lo, hi).tolist() == index[lo:hi].tolist(), (n, lo, hi)
            assert at(m, m).size == 0


def test_unit_sum_normalization_is_the_gathered_one_on_many_leaves():
    # 125,000 bins: the valid bins' log-sum-exp and the subtraction are read
    # from the grid leaf by leaf, with the bits of the gather.
    state = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
    spec = GridSpec(omega_max=1.5, n_omega=31_250, q_step=0.25, n_q=4)
    raw = build_spectrum(state, spec)
    unit = build_spectrum(state, spec, Normalization.UNIT_SUM)
    log_norm = logsumexp(raw.log_weight[raw.valid])
    assert np.float64(unit.log_norm).tobytes() == np.float64(log_norm).tobytes()
    want = np.where(raw.valid, raw.log_weight - log_norm, raw.log_weight)
    assert unit.log_weight.tobytes() == want.tobytes()
    thermal = build_thermal_spectrum(state, spec, Normalization.UNIT_SUM)
    t_raw = build_thermal_spectrum(state, spec).log_weight
    assert thermal.log_weight.tobytes() == (t_raw - logsumexp(t_raw)).tobytes()


def test_the_grid_takes_the_kernel_output_without_a_copy():
    state = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
    grid = build_spectrum(state, GridSpec(omega_max=1.5, n_omega=4096, q_step=0.25, n_q=4))
    for x in (grid.log_weight, grid.valid):
        assert x.base is not None and x.base.size == x.size and x.base.flags.c_contiguous


# Stage peaks on spectrum_rn_csv's grid, 125,000 bins: the grid itself
# (9 B per bin, 1.13 MB) plus the stage's temporaries.
STAGE_STATE = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
STAGE_SPEC = GridSpec(omega_max=1.5, n_omega=31_250, q_step=0.25, n_q=4)


@pytest.mark.parametrize("build,bound", [
    # The grid and the kernel's temporaries on one block of 8192 bins: 2.40 MB measured.
    (build_spectrum, 2.8e6),
    # The baseline repeated over q beside its one value per node: 1.32 MB measured.
    (build_thermal_spectrum, 1.6e6),
], ids=["build_spectrum", "thermal"])
def test_unit_sum_build_peak_memory(build, bound):
    import tracemalloc

    build(STAGE_STATE, STAGE_SPEC, Normalization.UNIT_SUM)  # warm: caches are not counted
    tracemalloc.start()
    try:
        build(STAGE_STATE, STAGE_SPEC, Normalization.UNIT_SUM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound
