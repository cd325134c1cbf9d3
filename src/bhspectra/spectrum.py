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
    _FLOAT_OPS,
    BlackHoleState,
    Emission,
    Family,
    _area_sq,
    _at_first,
    _blockwise,
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
    from the kernel blackholes.entropy_drop. RemnantInvalid where
    emission_log_weights flags the channel closed; FloatingPointError, as
    emission_log_weights raises it, where the log-weight is not finite in
    float64 (a zero horizon area at alpha != 0, or hairs too heavy)."""
    m, q, j, alpha = state.m, state.q, state.j, state.alpha
    if not hairs_valid(state.family, m - e.omega, q - e.q, j - e.j, alpha):
        raise RemnantInvalid(f"forbidden emission channel: {e} leaves no macro-state "
                             f"of {state.family.value} with alpha = {alpha}")
    try:
        logw = float(entropy_drop(m, q, j, alpha, e.omega, e.q, e.j))
    except (ZeroDivisionError, ValueError):  # dR^2 / R^2 or log(R'^2 / R^2) at R^2 = 0
        logw = math.nan
    if not math.isfinite(logw):
        raise _not_finite(alpha, 1, m, q, j, e.omega, e.q, e.j)
    return logw


def emission_log_weights(
    state: BlackHoleState, omega, q=0.0, j=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized emission log-weights over arrays of emission hairs.

    Returns (log_weight, valid), both of the broadcast shape of the hairs;
    closed channels have valid False and log_weight nan. Same kernel and
    arithmetic as the scalar emission_log_weight, so the two agree bitwise
    for alpha = 0; like it, FloatingPointError where an open channel's
    log-weight is not finite in float64.
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
    a closed channel come back nan/False; every valid entry's log-weight is
    finite, or FloatingPointError names the first that is not.
    The hairs reach the kernel unbroadcast, so hairs given as grid axes, e.g.
    of shapes (n, 1) and (1, m), have their one-axis terms computed once per
    axis value (per block of blackholes._blockwise: make the last axis the
    long one).
    """
    hairs = (np.asarray(x, dtype=np.float64) for x in (m, q, j, omega, q_e, j_e))
    return _blockwise(functools.partial(_log_weights_block, family, alpha), *hairs)


def _log_weights_block(family: Family, alpha: float, m, q, j, omega, q_e, j_e):
    valid = (
        hairs_valid(family, m, q, j, alpha)
        & hairs_valid(family, m - omega, q - q_e, j - j_e, alpha)
        & (omega >= 0.0)
    )
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        logw = entropy_drop(m, q, j, alpha, omega, q_e, j_e)
    bad = valid & ~np.isfinite(logw)  # logw may be unbroadcast
    if bad.any():
        first = _at_first(bad, m, q, j, omega, q_e, j_e)
        raise _not_finite(alpha, np.count_nonzero(bad), *first)
    return np.where(valid, logw, np.nan), valid


def _not_finite(alpha: float, n, m, q, j, omega, q_e, j_e) -> FloatingPointError:
    """The error of n open channels whose log-weight is not finite in float64.
    Its cause is named from the first, hairs (m, q, j) emitting (omega, q_e,
    j_e), alone."""
    at = f"{n} open channels, the first at (M, Q, J) = ({m!r}, {q!r}, {j!r})"
    emitting = f"emitting (omega, q, j) = ({omega!r}, {q_e!r}, {j_e!r})"
    areas = _area_sq(m, q, j, _FLOAT_OPS), _area_sq(m - omega, q - q_e, j - j_e, _FLOAT_OPS)
    if alpha != 0.0 and 0.0 in areas:  # the log-corrected entropy is undefined
        return FloatingPointError(f"a float64 horizon area is 0 at {at} or after {emitting}")
    return FloatingPointError(f"the log-weight is not finite in float64 at {at} {emitting}")


def _thermal(state: BlackHoleState, omega):
    """-omega / T_H over a float or an array; -8 pi M omega when uncharged.
    FloatingPointError where it is not finite in float64."""
    omega = np.asarray(omega)
    with np.errstate(all="ignore"):
        if state.q == 0.0 and state.j == 0.0 and state.m != 0.0:
            logw = -8.0 * math.pi * state.m * omega
        else:  # DomainError at an extremal state, M = 0 included
            logw = -omega / hawking_temperature(state)
    bad = ~np.isfinite(logw)
    if bad.any():
        raise FloatingPointError(f"the thermal log-weight of (M, Q, J) = ({state.m!r}, "
                                 f"{state.q!r}, {state.j!r}) is not finite in float64 at "
                                 f"omega = {_at_first(bad, omega)[0]!r}")
    return logw


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


def _on_axes(kernel, w, qv, jv) -> list[np.ndarray]:
    """The arrays kernel(omega, q, j) returns on a grid's 1-D axes, broadcast
    against each other. The axes go in laid out (q, j, omega), so that the
    kernel's blocks and numpy's inner loop run along omega; each array comes
    back as an (n_omega, n_q, n_j) view, whose C order is the bin order."""
    return [x.transpose(2, 0, 1) for x in kernel(w, qv[:, None, None], jv[:, None])]


def _normalize(logw: np.ndarray, valid: np.ndarray) -> float:
    """Subtract the valid entries' log-sum-exp from them, in place; return it."""
    log_norm = float(logsumexp(logw[valid]))
    logw[valid] -= log_norm
    return log_norm


def _spectrum(state, spec, logw, valid, normalization) -> SpectrumGrid:
    """The spectrum of state on spec with log-weights logw, normalized in place."""
    log_norm = None if normalization is Normalization.RAW else _normalize(logw, valid)
    return SpectrumGrid(log_weight=logw, valid=valid, normalization=normalization,
                        source_state=state, grid_spec=spec, log_norm=log_norm)


def unit_sum(grid: SpectrumGrid) -> SpectrumGrid:
    """grid if it is unit-sum, else a copy with the bits of a UNIT_SUM build."""
    if grid.normalization is Normalization.UNIT_SUM:
        return grid
    return _spectrum(grid.source_state, grid.grid_spec, grid.log_weight.copy(), grid.valid,
                     Normalization.UNIT_SUM)


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
    """
    kernel = functools.partial(emission_log_weights, state)
    logw, valid = (x.ravel() for x in _on_axes(kernel, *_grid_axes(state, spec)))
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
