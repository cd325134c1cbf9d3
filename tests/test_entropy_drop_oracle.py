"""Entropy differences against a 50-digit oracle.

Every emission log-weight is dS = S(M - w, Q - q, J - j) - S(M, Q, J). Here
that difference is recomputed in 50-digit mpmath from the same float64
inputs, with the textbook horizon R_H^2 = r_+^2 + a^2, and compared with the
scalar route (emission_log_weight), the grid route (emission_log_weights,
through build_spectrum) and the bulk route (emission_log_weights_bulk).

The bound is |error| <= 4 eps max(|dS|, pi R_H^2), with R_H the source
horizon radius: a few roundings of the entropy scale, however small dS is.
It holds near extremality too, where the horizon discriminant cancels; the
nearly extremal draws put charged and spinning states and remnants down to
a margin of 1e-9 M^2.
"""

import math

import mpmath
import numpy as np
import pytest

from bhspectra import (
    BlackHoleState,
    Emission,
    Family,
    GridSpec,
    build_spectrum,
    emission_log_weight,
    emission_log_weights,
)
from bhspectra.spectrum import emission_log_weights_bulk

EPS = np.finfo(np.float64).eps
BOUND = 4.0  # in units of eps * max(|dS|, pi R_H^2)
ALPHAS = (0.0, 1.5, -1.5)
N_DRAWS = 200  # per (family, alpha)
MARGIN = 1e-3  # sub-extremality margin of drawn states and remnants, in units of M^2
NEAR_MARGINS = (1e-9, 1e-3)  # margin range of the nearly extremal draws, in units of M^2

mpmath.mp.dps = 50


def _mp_entropy(m, q, j, alpha):
    """(S, pi R_H^2) at exact hairs, in mpmath."""
    if m == 0:
        area = mpmath.mpf(0)
    else:
        a = j / m
        rp = m + mpmath.sqrt(max(m * m - q * q - a * a, 0))
        area = rp * rp + a * a
    s = mpmath.pi * area
    return (s + alpha * mpmath.log(s) if alpha else s), s


def oracle(m, q, j, alpha, omega, qe=0.0, je=0.0) -> tuple[float, float]:
    """(dS, the error scale max(|dS|, pi R_H^2)) for float64 inputs, exactly."""
    m, q, j, omega, qe, je = (mpmath.mpf(float(x)) for x in (m, q, j, omega, qe, je))
    alpha = mpmath.mpf(float(alpha))
    s1, area_s = _mp_entropy(m, q, j, alpha)
    s2, _ = _mp_entropy(m - omega, q - qe, j - je, alpha)
    ds = s2 - s1
    return float(ds), float(max(abs(ds), area_s))


def _ulps(got, m, q, j, alpha, omega, qe, je) -> float:
    """|got - dS| in units of eps * max(|dS|, pi R_H^2)."""
    exact, scale = oracle(m, q, j, alpha, omega, qe, je)
    return abs(got - exact) / (EPS * scale)


# The grids of the seven spectrum golden configs; the csv, jsonl and json
# configs share the first one.
GOLDEN_GRIDS = {
    "rn_bench": (
        BlackHoleState(Family.REISSNER_NORDSTROM, 1.5, 0.75),
        GridSpec(omega_max=1.125, n_omega=300, q_step=0.1875, n_q=4),
    ),
    "rn_extremal": (
        BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 2.0),
        GridSpec(omega_max=2.0, n_omega=500, q_step=0.25, n_q=5),
    ),
    "schw_underflow": (
        BlackHoleState(Family.SCHWARZSCHILD, 700.0),
        GridSpec(omega_max=700.0, n_omega=2000),
    ),
    "schw_alpha_raw": (
        BlackHoleState(Family.SCHWARZSCHILD, 3.0, alpha=-1.5),
        GridSpec(omega_max=3.0, n_omega=2000),
    ),
    "kn_spin_axis": (
        BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5),
        GridSpec(omega_max=2.0, n_omega=300, q_step=0.125, n_q=3, j_step=0.125, n_j=3),
    ),
}


@pytest.mark.parametrize("name", GOLDEN_GRIDS)
def test_golden_grids_match_oracle(name):
    state, spec = GOLDEN_GRIDS[name]
    grid = build_spectrum(state, spec)
    hairs = (state.m, state.q, state.j, state.alpha)
    idx = np.nonzero(grid.valid)[0]
    assert idx.size > 0
    omega, q, j = (x.ravel() for x in np.broadcast_arrays(*spec.axes()))
    bulk, bulk_valid = emission_log_weights_bulk(
        state.family, *(np.full(idx.size, h) for h in hairs[:3]), state.alpha,
        omega[idx], q[idx], j[idx],
    )
    assert bulk_valid.all()
    worst = 0.0
    for k, i in enumerate(idx):
        e = (omega[i], q[i], j[i])
        scalar = emission_log_weight(state, Emission(*e))
        for got in (grid.log_weight[i], scalar, bulk[k]):
            worst = max(worst, _ulps(got, *hairs, *e))
    assert worst <= BOUND


def _unit_disk(rng, radius, spin: bool) -> tuple[float, float]:
    """(Q/M, a/M) uniform in a disk of the given radius; a = 0 without spin."""
    while True:
        x, y = rng.uniform(-radius, radius, 2)
        if not spin:
            return x, 0.0
        if x * x + y * y <= radius * radius:
            return x, y


def _near_edge(rng, spin: bool) -> tuple[float, float]:
    """(Q/M, a/M) at a margin 1 - (Q/M)^2 - (a/M)^2 log-uniform in
    NEAR_MARGINS, in a uniform direction; a = 0 without spin."""
    r = math.sqrt(1.0 - 10.0 ** rng.uniform(*np.log10(NEAR_MARGINS)))
    if not spin:
        return (r if rng.uniform() < 0.5 else -r), 0.0
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(theta), r * math.sin(theta)


def draw_emissions(family: Family, seed: int, n: int, near: bool = False):
    """n seeded (M, Q, J, omega, q, j) with valid state and remnant.

    M is log-uniform on [0.5, 1000]. Every fourth draw leaves a remnant of
    1e-6 to 1e-1 of M (log-uniform), near total evaporation; the others emit
    1e-6 to 0.9 of M. States and remnants keep M^2 - Q^2 - a^2 >= 1e-3 M^2,
    checked on the exact remnant hairs. With `near`, states and remnants of
    charged families are drawn nearly extremal instead (_near_edge), and the
    remnant keeps a margin >= 1e-9 M^2.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, list(Family).index(family))))
    charged = family is not Family.SCHWARZSCHILD
    spin = family is Family.KERR_NEWMAN
    radius = math.sqrt(1.0 - MARGIN)
    floor = NEAR_MARGINS[0] if near else MARGIN

    def ratios() -> tuple[float, float]:
        return _near_edge(rng, spin) if near else _unit_disk(rng, radius, spin)

    rows = []
    while len(rows) < n:
        m = math.exp(rng.uniform(math.log(0.5), math.log(1000.0)))
        if len(rows) % 4 == 0:
            m2 = m * 10.0 ** rng.uniform(-6.0, -1.0)
        else:
            m2 = m * (1.0 - 10.0 ** rng.uniform(-6.0, math.log10(0.9)))
        omega = m - m2
        q = j = qe = je = 0.0
        if charged:
            x, y = ratios()
            q, j = x * m, y * m * m
            x2, y2 = ratios()
            qe, je = q - x2 * m2, j - y2 * m2 * m2
        mm, qq, jj = (mpmath.mpf(m) - mpmath.mpf(omega), mpmath.mpf(q) - mpmath.mpf(qe),
                      mpmath.mpf(j) - mpmath.mpf(je))
        if mm <= 0 or mm * mm - qq * qq - (jj / mm) ** 2 < floor * mm * mm:
            continue
        rows.append((m, q, j, omega, qe, je))
    return np.array(rows).T


# (family, near) of each set of draws, by test id.
DRAW_SETS = {
    "schwarzschild": (Family.SCHWARZSCHILD, False),
    "reissner-nordstrom": (Family.REISSNER_NORDSTROM, False),
    "kerr-newman": (Family.KERR_NEWMAN, False),
    "reissner-nordstrom-near": (Family.REISSNER_NORDSTROM, True),
    "kerr-newman-near": (Family.KERR_NEWMAN, True),
}


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("family,near", DRAW_SETS.values(), ids=list(DRAW_SETS))
def test_random_draws_match_oracle(family, near, alpha):
    m, q, j, omega, qe, je = draw_emissions(family, seed=7, n=N_DRAWS, near=near)
    bulk, bulk_valid = emission_log_weights_bulk(family, m, q, j, alpha, omega, qe, je)
    assert bulk_valid.all()
    worst = 0.0
    for i in range(m.size):
        state = BlackHoleState(family, m[i], q[i], j[i], alpha)
        scalar = emission_log_weight(state, Emission(omega[i], qe[i], je[i]))
        grid, valid = emission_log_weights(state, omega[i : i + 1], qe[i : i + 1], je[i : i + 1])
        assert valid.all()
        args = (m[i], q[i], j[i], alpha, omega[i], qe[i], je[i])
        for got in (scalar, grid[0], bulk[i]):
            worst = max(worst, _ulps(got, *args))
    assert worst <= BOUND


def test_oracle_matches_closed_forms():
    # The oracle itself: Parikh-Wilczek for Schwarzschild and the charged
    # radius exponent for RN, each by hand.
    ds, _ = oracle(3.0, 0.0, 0.0, 0.0, 0.5)
    assert ds == pytest.approx(-4.0 * math.pi * 0.5 * (6.0 - 0.5), rel=1e-15)
    rp = 1.75 + math.sqrt(1.75**2 - 0.75**2)
    r0 = 2.0 + math.sqrt(4.0 - 1.0)
    ds, _ = oracle(2.0, 1.0, 0.0, 0.0, 0.25, 0.25)
    assert ds == pytest.approx(math.pi * (rp * rp - r0 * r0), rel=1e-14)


# A cascade row's log-probabilities against the oracle, in ulp of the row's
# exact log-sum-exp, over every row of the cascade_schw benchmark's table
# (Schwarzschild M = 4 in quanta of 1/16: 64 rows, 2,080 channels). Measured:
# at most 54.3 ulp, 6.04 on average (6.02 when the rows were built in numpy).
ROW_BOUND, ROW_MEAN_BOUND = 60.0, 6.5


def test_cascade_row_log_probabilities_match_oracle():
    from bhspectra import CascadePolicy
    from bhspectra.cascade import _TransitionTable

    table = _TransitionTable(BlackHoleState(Family.SCHWARZSCHILD, 4.0),
                             CascadePolicy(energy_quantum=0.0625))
    errors = []
    for r in range(1, table.n_quanta + 1):
        row = table[r, 0, 0]
        m = mpmath.mpf(row.hairs[0])
        s, _ = _mp_entropy(m, 0, 0, 0)
        exact = [_mp_entropy(mpmath.mpf(m2), 0, 0, 0)[0] - s for m2 in row.m2]
        log_z = mpmath.log(mpmath.fsum(mpmath.exp(w) for w in exact))
        ulp = math.ulp(float(log_z))
        errors += [float(abs(p - (w - log_z))) / ulp for p, w in zip(row.logp, exact)]
    assert len(errors) == 2080
    assert max(errors) <= ROW_BOUND
    assert sum(errors) / len(errors) <= ROW_MEAN_BOUND
