"""Macro-state validation, horizon geometry, entropy, and emission arithmetic."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhspectra import (
    BlackHoleState,
    DomainError,
    Emission,
    Family,
    RemnantInvalid,
    apply_emission,
    bh_entropy,
    hawking_temperature,
    horizon_radius,
    is_extremal,
    state_from_record,
    state_to_record,
)
from bhspectra.blackholes import hairs_valid

# Dyadic masses make emission arithmetic exact in floats.
dyadic = st.integers(1, 1 << 20).map(lambda k: k / 1024.0)


class TestHorizonRadius:
    def test_schwarzschild_radius_is_twice_mass(self):
        assert horizon_radius(BlackHoleState(Family.SCHWARZSCHILD, 1.0)) == 2.0
        assert horizon_radius(BlackHoleState(Family.SCHWARZSCHILD, 3.5)) == 7.0

    def test_rn_uncharged_reduces_to_schwarzschild(self):
        assert horizon_radius(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.0)) == 2.0

    def test_rn_extremal_radius_equals_mass(self):
        assert horizon_radius(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 1.0)) == 1.0

    def test_rn_generic_value(self):
        # R = M + sqrt(M^2 - Q^2) by hand
        m, q = 2.0, 1.0
        expect = m + math.sqrt(m * m - q * q)
        got = horizon_radius(BlackHoleState(Family.REISSNER_NORDSTROM, m, q))
        assert got == pytest.approx(expect, rel=1e-15)

    def test_kerr_newman_area_radius(self):
        # R^2 = r_+^2 + a^2 with r_+ = M + sqrt(M^2 - Q^2 - a^2), a = J/M
        m, q, j = 2.0, 0.5, 1.0
        a = j / m
        rp = m + math.sqrt(m * m - q * q - a * a)
        got = horizon_radius(BlackHoleState(Family.KERR_NEWMAN, m, q, j))
        assert got == pytest.approx(math.sqrt(rp * rp + a * a), rel=1e-15)

    @given(m=st.floats(1e-3, 1e3, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_continuity_at_extremal_boundary(self, m):
        # As Q -> M the R-N radius approaches M.
        last = None
        for delta in (1e-4, 1e-6, 1e-8, 1e-10):
            r = horizon_radius(BlackHoleState(Family.REISSNER_NORDSTROM, m, m * (1 - delta)))
            gap = abs(r - m)
            if last is not None:
                assert gap <= last + 1e-12 * m
            last = gap
        assert last <= 1e-4 * m


class TestValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            BlackHoleState(Family.SCHWARZSCHILD, -1.0)

    # The last two margins are -inf: only Q^2 + (J/M)^2 overflows, so the
    # sign is sure and the state is physics, not a numerical failure.
    @pytest.mark.parametrize("family,hairs", [(Family.REISSNER_NORDSTROM, (1.0, 2.0, 0.0)),
                                              (Family.REISSNER_NORDSTROM, (1.0, 1e200, 0.0)),
                                              (Family.KERR_NEWMAN, (1e-200, 0.0, 1e200))],
                             ids=["rn", "rn_charge_overflow", "kn_spin_overflow"])
    def test_super_extremal_rejected_with_named_condition(self, family, hairs):
        with pytest.raises(DomainError, match="super-extremal"):
            BlackHoleState(family, *hairs)

    def test_family_consistency(self):
        with pytest.raises(DomainError):
            BlackHoleState(Family.SCHWARZSCHILD, 1.0, q=0.5)
        with pytest.raises(DomainError):
            BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, j=0.5)

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=float("nan"))

    def test_zero_state_is_valid_terminal(self):
        z = BlackHoleState(Family.SCHWARZSCHILD, 0.0)
        assert z.is_evaporated and bh_entropy(z) == 0.0

    def test_zero_state_with_hairs_rejected(self):
        with pytest.raises(DomainError):
            BlackHoleState(Family.REISSNER_NORDSTROM, 0.0, 0.5)

    def test_family_aliases(self):
        assert Family.parse("rn") is Family.REISSNER_NORDSTROM
        assert Family.parse("KN") is Family.KERR_NEWMAN
        with pytest.raises(DomainError):
            Family.parse("unknown")


class TestEntropy:
    def test_schwarzschild_area_law(self):
        assert bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, 1.0)) == pytest.approx(
            4.0 * math.pi, abs=1e-14
        )

    def test_log_corrected_value(self):
        # pi R^2 + alpha ln(pi R^2) at M = 1, alpha = 1
        expect = 4.0 * math.pi + math.log(4.0 * math.pi)
        got = bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, 1.0, alpha=1.0))
        assert got == pytest.approx(expect, abs=1e-13)

    def test_rn_extremal_entropy_is_pi(self):
        got = bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 1.0))
        assert got == pytest.approx(math.pi, abs=1e-14)

    def test_corrected_entropy_undefined_at_zero_area(self):
        with pytest.raises(DomainError):
            bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, 0.0, alpha=1.0))

    @given(m=st.floats(1e-3, 1e3), q_frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_family_reductions_are_bitwise(self, m, q_frac):
        q = q_frac * m
        rn = bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, m, q))
        kn = bh_entropy(BlackHoleState(Family.KERR_NEWMAN, m, q))
        assert kn == rn
        assert bh_entropy(BlackHoleState(Family.REISSNER_NORDSTROM, m)) == bh_entropy(
            BlackHoleState(Family.SCHWARZSCHILD, m)
        )

    @given(m=st.floats(1e-3, 1e3), factor=st.floats(1.0001, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_entropy_strictly_increases_in_mass(self, m, factor):
        s1 = bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, m))
        s2 = bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, m * factor))
        assert s2 > s1

    def test_determinism_bit_identical(self):
        s = BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 1.0, alpha=-0.5)
        values = {bh_entropy(s) for _ in range(10)}
        assert len(values) == 1


class TestEmissions:
    def test_identity_emission(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        assert apply_emission(s, Emission(0.0)) == s

    def test_total_evaporation_yields_zero_state(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        final = apply_emission(s, Emission(1.0))
        assert final.is_evaporated and bh_entropy(final) == 0.0

    def test_overdraw_rejected(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        with pytest.raises(RemnantInvalid):
            apply_emission(s, Emission(1.5))

    def test_rn_emission_example(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        out = apply_emission(s, Emission(0.5, 0.5))
        assert (out.m, out.q) == (1.5, 0.5)  # 1.5^2 >= 0.5^2: valid

    def test_super_extremal_remnant_rejected(self):
        s = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
        with pytest.raises(RemnantInvalid):
            apply_emission(s, Emission(1.5, 0.0))  # remnant (0.5, 1.0)

    def test_charge_emission_needs_charged_family(self):
        s = BlackHoleState(Family.SCHWARZSCHILD, 1.0)
        with pytest.raises(RemnantInvalid):
            apply_emission(s, Emission(0.1, q=0.1))

    def test_negative_energy_emission_rejected(self):
        with pytest.raises(DomainError):
            Emission(-0.1)

    @given(m=dyadic, w1=dyadic, w2=dyadic)
    @settings(max_examples=200, deadline=None)
    def test_emission_composition_exact_on_dyadic_grid(self, m, w1, w2):
        # apply(apply(s, e1), e2) == apply(s, e1 + e2) component-wise; exact
        # for dyadic values (cascades quantize, so this is the case that matters).
        if w1 + w2 >= m:
            return
        s = BlackHoleState(Family.SCHWARZSCHILD, m)
        two = apply_emission(apply_emission(s, Emission(w1)), Emission(w2))
        one = apply_emission(s, Emission(w1 + w2))
        assert (two.m, two.q, two.j) == (one.m, one.q, one.j)


class TestTemperature:
    def test_schwarzschild_temperature(self):
        assert hawking_temperature(BlackHoleState(Family.SCHWARZSCHILD, 1.0)) == pytest.approx(
            1.0 / (8.0 * math.pi), rel=1e-15
        )
        assert hawking_temperature(BlackHoleState(Family.SCHWARZSCHILD, 2.0)) == pytest.approx(
            1.0 / (16.0 * math.pi), rel=1e-15
        )

    def test_extremal_temperature_undefined(self):
        with pytest.raises(DomainError):
            hawking_temperature(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 1.0))

    def test_rn_surface_gravity(self):
        # T = (r+ - r-) / (4 pi r+^2)
        m, q = 2.0, 1.0
        root = math.sqrt(m * m - q * q)
        rp, rm = m + root, m - root
        expect = (rp - rm) / (4.0 * math.pi * rp * rp)
        got = hawking_temperature(BlackHoleState(Family.REISSNER_NORDSTROM, m, q))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_is_extremal(self):
        assert is_extremal(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 1.0))
        assert not is_extremal(BlackHoleState(Family.REISSNER_NORDSTROM, 1.0, 0.5))
        assert is_extremal(BlackHoleState(Family.SCHWARZSCHILD, 0.0))


class TestSerialization:
    def test_round_trip(self):
        s = BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 1.0, alpha=-0.5)
        rec = state_to_record(s)
        assert rec == {"family": "kerr-newman", "M": 2.0, "Q": 0.5, "J": 1.0, "alpha": -0.5}
        assert state_from_record(rec) == s

    def test_record_defaults(self):
        s = state_from_record({"family": "schwarzschild", "M": 1.0})
        assert (s.q, s.j, s.alpha) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("alpha", [0.0, -0.5])
def test_entropy_grid_matches_scalar_path(alpha):
    from bhspectra.blackholes import entropy_grid

    m = np.array([1.0, 2.0, 3.0])
    q = np.array([0.0, 1.0, 0.5])
    j = np.array([0.0, 0.0, 1.5])
    got = entropy_grid(Family.KERR_NEWMAN, m, q, j, alpha)
    for i in range(3):
        state = BlackHoleState(Family.KERR_NEWMAN, m[i], q[i], j[i], alpha)
        assert got[i] == bh_entropy(state)
        area = math.pi * horizon_radius(state) ** 2
        assert got[i] == pytest.approx(area + alpha * math.log(area), rel=1e-15)


@pytest.mark.parametrize("family", list(Family))
def test_entropy_grid_of_a_heavy_uncharged_hole_is_silent(family):
    # 4 pi M^2 is finite up to M ~ 1e154; D ~ M^4 overflows from M ~ 1.2e77,
    # and an uncharged array must not compute it.
    from bhspectra.blackholes import entropy_grid

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = entropy_grid(family, np.array([1e80]), 0.0, 0.0, 0.0)
    assert got.tobytes() == np.array([bh_entropy(BlackHoleState(family, 1e80))]).tobytes()


def test_uncharged_kernel_without_alpha_peaks_at_three_grid_arrays():
    # Only the alpha term reads the remnant mass M - omega, so at alpha = 0
    # the kernel holds no more than shrink, the area change and the result.
    from bhspectra.blackholes import entropy_drop

    n = 512
    m = np.linspace(1.0, 2.0, n)[:, None]
    omega = np.linspace(0.0, 1.0, n)[None, :]
    tracemalloc.start()
    try:
        ds = entropy_drop(m, 0.0, 0.0, 0.0, omega)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.tobytes() == (math.pi * (-4.0 * (omega * (2.0 * m - omega)))).tobytes()
    assert peak <= 3 * ds.nbytes + (64 << 10)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_entropy_grid_flags_invalid_as_nan(alpha):
    from bhspectra.blackholes import entropy_grid

    got = entropy_grid(
        Family.REISSNER_NORDSTROM, np.array([1.0, -1.0]), np.array([2.0, 0.0]), 0.0, alpha
    )
    assert np.isnan(got).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "family,hairs,alpha",
    [(Family.SCHWARZSCHILD, (1e154, 0.0, 0.0), 0.0),  # 4 pi M^2 is inf
     (Family.SCHWARZSCHILD, (1e154, 0.0, 0.0), -2.0),  # inf - inf in the alpha term
     (Family.REISSNER_NORDSTROM, (1e100, 5e99, 0.0), 0.0),  # D ~ M^4: the area is nan
     (Family.KERR_NEWMAN, (1e100, 2.5e99, 2.5e99), 1.0)],
    ids=["schw", "schw_alpha", "rn_disc", "kn_alpha"],
)
def test_an_entropy_float64_cannot_hold_is_a_numerical_failure(family, hairs, alpha):
    from bhspectra.blackholes import entropy_grid

    state = BlackHoleState(family, *hairs, alpha)
    with pytest.raises(FloatingPointError, match=r"the entropy of \(M, Q, J\) = \(1e\+1"):
        bh_entropy(state)
    # The grid route names the first macro-state whose entropy is not finite.
    m = np.array([-1.0, 2.0, hairs[0], hairs[0]])
    with pytest.raises(FloatingPointError, match=r"\(M, Q, J\) = \(1e\+1.*not finite"):
        entropy_grid(family, m, hairs[1], hairs[2], alpha)
    assert math.isfinite(bh_entropy(BlackHoleState(family, 3.7e153, 0.0, 0.0, alpha)))


def test_a_zero_area_with_alpha_is_undefined_not_a_numerical_failure():
    from bhspectra.blackholes import entropy_grid

    with pytest.raises(DomainError, match="zero horizon area"):
        bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, 1e-170, alpha=1.0))
    got = entropy_grid(Family.SCHWARZSCHILD, np.array([1e-170, 1.0]), 0.0, 0.0, 1.0)
    assert np.isnan(got[0]) and got[1] == bh_entropy(BlackHoleState(Family.SCHWARZSCHILD, 1.0,
                                                                     alpha=1.0))


@pytest.mark.parametrize("family", list(Family))
def test_infinite_mass_is_no_macro_state(family):
    # BlackHoleState refuses M = inf; the array kernels agree with it, and
    # screen it from their arithmetic without a RuntimeWarning.
    from bhspectra.blackholes import entropy_grid, hairs_valid
    from bhspectra.spectrum import emission_log_weights_bulk

    ms = np.array([np.inf, 1.0, np.nan, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hairs_valid(family, ms, 0.0, 0.0, 0.0).tolist() == [False, True, False, False]
        assert [hairs_valid(family, m, 0.0, 0.0, 0.0) for m in ms.tolist()] == [
            False, True, False, False]
        for alpha in (0.0, 1.5):
            assert np.isnan(entropy_grid(family, np.inf, 0.0, 0.0, alpha))
            assert np.isnan(entropy_grid(family, ms, 0.0, 0.0, alpha)).tolist() == [
                True, False, True, True]
            logw, valid = emission_log_weights_bulk(family, np.inf, 0.0, 0.0, alpha, 1.0)
            assert np.isnan(logw) and not valid
    with pytest.raises(DomainError):
        BlackHoleState(family, math.inf)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize(
    "family,ms,qs,js",
    [
        (Family.SCHWARZSCHILD, [-0.5, 0.0, 0.25, 1.0], [-0.125, 0.0, 0.125], [0.0, 0.5]),
        # Remnant charges up to 0.999999 M, on both sides of extremality.
        (Family.REISSNER_NORDSTROM, [-1.0, 0.0, 0.999999, 1.0, 1.000001],
         [-0.999999, -0.5, 0.0, 0.5, 0.999999, 1.0], [0.0, 0.25]),
        (Family.KERR_NEWMAN, [0.0, 0.5, 1.0, 2.0], [-0.999999, 0.0, 0.75, 0.999999],
         [-1.0, 0.0, 0.001, 0.5, 1.0, 3.5]),
    ],
    ids=["schwarzschild", "rn", "kn"],
)
def test_hairs_valid_on_axes_equals_flat(family, ms, qs, js, alpha):
    # Every case holds the zero state (0, 0, 0) and states with no horizon.
    from bhspectra.blackholes import hairs_valid

    ms, qs, js = (np.array(x) for x in (ms, qs, js))
    axes = ms[:, None, None], qs[None, :, None], js[None, None, :]
    flat = (x.ravel() for x in np.meshgrid(ms, qs, js, indexing="ij"))
    got = hairs_valid(family, *axes, alpha)
    want = hairs_valid(family, *flat, alpha)
    assert got.shape == (ms.size, qs.size, js.size)
    assert got.dtype == want.dtype == bool
    assert np.array_equal(got.ravel(), want)
    assert want.any() and not want.all()
    assert bool(got[list(ms).index(0.0), list(qs).index(0.0), list(js).index(0.0)]) == (alpha == 0.0)


# ---------------------------------------------------------------------------
# One macro-state rule: hairs_valid decides for floats, arrays, BlackHoleState
# and the scalar emission weight alike.
# ---------------------------------------------------------------------------

_SPECIAL_HAIRS = np.array([0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 1e200, 5e-324])


def _hair_draws(seed: int, n: int):
    """n seeded (m, q, j) triples: generic, nearly extremal (margin ~1e-12 M^2
    on either side), exactly extremal, zero, negative, huge and non-finite."""
    rng = np.random.default_rng(seed)

    def some(x, p, values):  # x with a share p of its entries drawn from values
        pick = rng.random(n) < p
        x[pick] = rng.choice(values, pick.sum())
        return x

    m = some(rng.uniform(0.0, 2.0, n), 0.15, _SPECIAL_HAIRS)
    q = m * some(rng.uniform(-1.2, 1.2, n), 0.1, [-1.0, 1.0])
    # |a| at sqrt(M^2 - Q^2) (1 + d), d ~ 1e-12 either way, or generic.
    with np.errstate(invalid="ignore", over="ignore"):
        a_max = np.sqrt(np.maximum(m * m - q * q, 0.0))
        j = m * a_max * some(rng.uniform(-1.2, 1.2, n), 0.4,
                             [1.0 - 1e-12, 1.0, 1.0 + 1e-12, -1.0])
    for x in (q, j):
        some(x, 0.35, [0.0])
        some(x, 0.08, _SPECIAL_HAIRS)
    return m, q, j


@pytest.mark.parametrize("alpha", [0.0, 0.75])
@pytest.mark.parametrize("family", list(Family))
def test_hairs_valid_on_floats_equals_arrays(family, alpha):
    m, q, j = _hair_draws(26, 4000)
    with np.errstate(over="ignore"):
        want = hairs_valid(family, m, q, j, alpha)
    got = [hairs_valid(family, *h, alpha) for h in zip(m.tolist(), q.tolist(), j.tolist())]
    assert all(type(g) is bool for g in got)
    assert got == want.tolist()
    assert 100 < want.sum() < want.size - 100


@pytest.mark.parametrize("family", list(Family))
def test_black_hole_state_accepts_exactly_the_valid_hairs(family):
    for m, q, j in zip(*(x.tolist() for x in _hair_draws(27, 1500))):
        try:
            BlackHoleState(family, m, q, j)
            accepted = True
        except (DomainError, FloatingPointError):
            accepted = False
        assert accepted == hairs_valid(family, m, q, j, 0.0), (m, q, j)


@pytest.mark.parametrize(
    "family,hairs",
    [(Family.REISSNER_NORDSTROM, (1e200, 1e199, 0.0)),
     (Family.KERR_NEWMAN, (1e200, 1e199, 1e199)),
     (Family.KERR_NEWMAN, (1e200, -1e200, 0.0))],
)
def test_finite_hairs_with_an_overflowing_margin_are_a_numerical_failure(family, hairs):
    # M^2 and Q^2 + (J/M)^2 both overflow: the margin is nan, its sign unknown.
    with pytest.raises(FloatingPointError, match="sub-extremality margin"):
        BlackHoleState(family, *hairs)
    with pytest.raises(DomainError, match="finite"):
        BlackHoleState(family, hairs[0], math.inf, hairs[2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", [Family.REISSNER_NORDSTROM, Family.KERR_NEWMAN])
def test_subnormal_mass_with_spin_is_screened_silently(family):
    # J / M overflows in the margin at M = 5e-324: no macro-state, no warning.
    from bhspectra.spectrum import emission_log_weights

    one = np.ones(1)
    assert not hairs_valid(Family.KERR_NEWMAN, 5e-324 * one, 0.0 * one, one, 0.0).any()
    log_w, valid = emission_log_weights(BlackHoleState(family, 1e-323), 5e-324 * one, 0.0, -one)
    assert not valid.any() and np.isnan(log_w).all()


@pytest.mark.parametrize("alpha", [0.0, 0.75])
@pytest.mark.parametrize("family", list(Family))
def test_emission_log_weight_refuses_exactly_the_closed_bins(family, alpha):
    from bhspectra.spectrum import emission_log_weight, emission_log_weights

    rng = np.random.default_rng(28)
    # Masses whose area 4 M^2 underflows are left out: with alpha != 0 their
    # log-weight divides by a zero area.
    hairs = zip(*(x.tolist() for x in _hair_draws(29, 400)))
    states = [BlackHoleState(family, *h, alpha) for h in hairs
              if 1e-3 <= h[0] <= 2.0 and hairs_valid(family, *h, 0.0)][:30]
    # The evaporated state, and a hole whose whole mass one emission takes:
    # with alpha != 0 both remnants have zero area.
    states += [BlackHoleState(family, 0.0, alpha=alpha), BlackHoleState(family, 1.0, alpha=alpha)]
    n_closed = 0
    for state in states:
        omega = np.append(rng.uniform(0.0, 1.2, 24) * state.m, [0.0, state.m])
        qe, je = (np.where(rng.random(omega.size) < 0.5, 0.0, rng.uniform(-0.6, 0.6, omega.size))
                  for _ in range(2))
        logw, valid = emission_log_weights(state, omega, qe, je)
        for i, e in enumerate(map(Emission, omega.tolist(), qe.tolist(), je.tolist())):
            if valid[i]:
                assert emission_log_weight(state, e) == pytest.approx(logw[i], rel=1e-12,
                                                                      abs=1e-12)
            else:
                n_closed += 1
                with pytest.raises(RemnantInvalid):
                    emission_log_weight(state, e)
    assert n_closed > 0
    if alpha != 0.0:
        with pytest.raises(RemnantInvalid):
            emission_log_weight(BlackHoleState(family, 1.0, alpha=alpha), Emission(1.0))
