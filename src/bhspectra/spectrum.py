"""Non-thermal radiation spectra from black-hole entropy differences.

The emission log-weight is the single expression

    log w(e) = S(M - omega, Q - q, J - j) - S(M, Q, J)

with S the (optionally log-corrected) horizon entropy. For alpha != 0 this
one difference automatically reproduces both the exponential factor and the
(R'/R)^(2 alpha) prefactor of the corrected spectrum, because the alpha*ln
term collapses the prefactor into the entropy difference.

Everything is kept in log-space: e^(-8 pi omega M) underflows already for
modest masses, so weights are stored and combined in nats and exponentiated
only at output. Scalar and grid evaluation share one float64 kernel,
blackholes.entropy_drop, and unit-sum normalization goes through a stable
log-sum-exp.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blackholes import (
    BlackHoleState,
    Emission,
    Family,
    _blockwise,
    _remnant_hairs,
    entropy_drop,
    hairs_valid,
    hawking_temperature,
    logsumexp,
)
# Not called here; kept importable because perfbench/tracer.py wraps them here.
from .blackholes import entropy_drop_uncharged, entropy_grid  # noqa: F401
from .errors import DomainError, RemnantInvalid, UsageError
from .grids import GridSpec, Normalization, SpectrumGrid


def emission_log_weight(state: BlackHoleState, e: Emission) -> float:
    """log weight of one emission: corrected-entropy difference in nats,
    from the kernel blackholes.entropy_drop."""
    m2 = _remnant_hairs(state, e)[0]  # validity gate
    if m2 == 0.0 and state.alpha != 0.0:
        raise RemnantInvalid("remnant entropy undefined (zero horizon area with alpha != 0)")
    return float(entropy_drop(state.m, state.q, state.j, state.alpha, e.omega, e.q, e.j))


def emission_log_weights(
    state: BlackHoleState, omega, q=0.0, j=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized emission log-weights over arrays of emission hairs.

    Returns (log_weight, valid), both of the broadcast shape of the hairs;
    closed channels have valid False and log_weight nan. Same kernel and
    arithmetic as the scalar emission_log_weight, so the two agree bitwise
    for alpha = 0.
    """
    return emission_log_weights_bulk(
        state.family, state.m, state.q, state.j, state.alpha, omega, q, j
    )


def emission_log_weights_bulk(
    family: Family, m, q, j, alpha: float, omega, q_e=0.0, j_e=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Emission log-weights vectorized over *both* state and emission hairs.

    Elementwise equivalent of emission_log_weight over arrays of states
    (m, q, j) sharing one family and alpha. Entries with an invalid state or
    a closed channel come back nan/False. The hairs reach the kernel
    unbroadcast, so hairs given as grid axes, e.g. of shapes (n, 1) and
    (1, m), have their one-axis terms computed once per axis value (per
    block of blackholes._blockwise: make the last axis the long one).
    """
    hairs = (np.asarray(x, dtype=np.float64) for x in (m, q, j, omega, q_e, j_e))
    return _blockwise(functools.partial(_log_weights_block, family, alpha), *hairs)


def _log_weights_block(family: Family, alpha: float, m, q, j, omega, q_e, j_e):
    valid = (
        hairs_valid(family, m, q, j, alpha)
        & hairs_valid(family, m - omega, q - q_e, j - j_e, alpha)
        & (omega >= 0.0)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        logw = entropy_drop(m, q, j, alpha, omega, q_e, j_e)
    return np.where(valid, logw, np.nan), valid


def _thermal(state: BlackHoleState, omega):
    """-omega / T_H over a float or an array; -8 pi M omega when uncharged."""
    if state.q == 0.0 and state.j == 0.0:
        if state.m == 0.0:
            raise DomainError("extremal state has zero temperature")
        return -8.0 * math.pi * state.m * omega
    return -omega / hawking_temperature(state)


def thermal_log_weight(state: BlackHoleState, omega: float) -> float:
    """Boltzmann baseline -omega / T_H; -8 pi M omega for Schwarzschild."""
    if omega < 0.0:
        raise DomainError("emitted energy must be non-negative")
    return float(_thermal(state, omega))


def _grid_axes(state: BlackHoleState, spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The omega, q and j axis values of a grid, checked against the state."""
    if spec.n_q > 1 and state.family is Family.SCHWARZSCHILD:
        raise UsageError("charge axis requires a charged family")
    if spec.n_j > 1 and state.family is not Family.KERR_NEWMAN:
        raise UsageError("angular-momentum axis requires Kerr-Newman")
    if spec.omega_max > state.m:
        raise UsageError(f"omega_max={spec.omega_max} exceeds the hole mass {state.m}")
    return spec.omega_nodes(), spec.q_values(), spec.j_values()


def _normalize(logw: np.ndarray, valid: np.ndarray, normalization: Normalization):
    if normalization is Normalization.RAW:
        return logw, None
    log_norm = float(logsumexp(logw[valid]))
    out = logw.copy()
    out[valid] -= log_norm
    return out, log_norm


def _spectrum(state, spec, logw, valid, normalization) -> SpectrumGrid:
    """The spectrum of state on spec with log-weights logw, normalized."""
    logw, log_norm = _normalize(logw, valid, normalization)
    return SpectrumGrid(log_weight=logw, valid=valid, normalization=normalization,
                        source_state=state, grid_spec=spec, log_norm=log_norm)


def build_spectrum(
    state: BlackHoleState,
    spec: GridSpec,
    normalization: Normalization = Normalization.RAW,
) -> SpectrumGrid:
    """Evaluate the emission spectrum on a rectangular grid.

    Bins whose emission leaves no valid remnant are flagged invalid (the grid
    stays rectangular). Raises DomainError when every bin is invalid.
    The kernel runs on the three axes broadcast against each other, so its
    terms in omega alone (or q, or j alone) cost one evaluation per node.
    The axes go in as (q, j, omega), so that the kernel's blocks and numpy's
    inner loop run along omega; one transpose restores the bin order.
    """
    w, qv, jv = _grid_axes(state, spec)
    logw, valid = emission_log_weights(
        state, w[None, None, :], qv[:, None, None], jv[None, :, None]
    )
    logw, valid = (x.transpose(2, 0, 1).ravel() for x in (logw, valid))
    if not valid.any():
        raise DomainError("every grid bin is a closed emission channel")
    return _spectrum(state, spec, logw, valid, normalization)


def build_thermal_spectrum(
    state: BlackHoleState,
    spec: GridSpec,
    normalization: Normalization = Normalization.RAW,
) -> SpectrumGrid:
    """Boltzmann-baseline spectrum -omega/T_H on the same grid layout.

    The baseline has no remnant bookkeeping, so every bin is valid; it exists
    to quantify how far the entropy-difference spectrum departs from thermal.
    It depends on omega alone: evaluated once per node, repeated over q and j.
    """
    w, _, _ = _grid_axes(state, spec)
    logw = np.repeat(_thermal(state, w), spec.n_q * spec.n_j)
    valid = np.ones(spec.n_bins, dtype=bool)
    return _spectrum(state, spec, logw, valid, normalization)


@dataclass(frozen=True)
class SpectrumComparison:
    """Deviation metrics between two spectra on the same grid (nats).

    kl_divergence is None unless both spectra carry unit-sum weights.
    Metrics are computed over the bins valid in both spectra.
    """

    kl_divergence: float | None
    max_abs_log_ratio: float
    mean_abs_log_ratio: float
    n_common: int


def compare_thermal(nonthermal: SpectrumGrid, thermal: SpectrumGrid) -> SpectrumComparison:
    """KL(nonthermal || thermal) and log-ratio extremes over common bins."""
    if nonthermal.grid_spec != thermal.grid_spec:
        raise UsageError("spectra must share an identical grid_spec")
    common = nonthermal.valid & thermal.valid
    if not common.any():
        raise UsageError("no bins are valid in both spectra")
    dlog = nonthermal.log_weight[common] - thermal.log_weight[common]
    kl = None
    if (
        nonthermal.normalization is Normalization.UNIT_SUM
        and thermal.normalization is Normalization.UNIT_SUM
    ):
        with np.errstate(under="ignore"):
            p = np.exp(nonthermal.log_weight[common])
        kl = float(np.sum(np.where(p > 0.0, p * dlog, 0.0)))
    return SpectrumComparison(
        kl_divergence=kl,
        max_abs_log_ratio=float(np.max(np.abs(dlog))),
        mean_abs_log_ratio=float(np.mean(np.abs(dlog))),
        n_common=int(np.count_nonzero(common)),
    )
