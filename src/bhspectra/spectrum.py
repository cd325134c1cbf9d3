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
    _ARRAY_OPS,
    BlackHoleState,
    Emission,
    Family,
    _area_sq,
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
    emission_log_weights flags the channel closed; FloatingPointError at a
    zero float64 horizon area (alpha != 0)."""
    m, q, j, alpha = state.m, state.q, state.j, state.alpha
    if not hairs_valid(state.family, m - e.omega, q - e.q, j - e.j, alpha):
        raise RemnantInvalid(f"forbidden emission channel: {e} leaves no macro-state "
                             f"of {state.family.value} with alpha = {alpha}")
    try:
        return float(entropy_drop(m, q, j, alpha, e.omega, e.q, e.j))
    except (ZeroDivisionError, ValueError):  # dR^2 / R^2 or log(R'^2 / R^2) at R^2 = 0
        raise FloatingPointError(f"a float64 horizon area is 0 at {state} or after {e}") from None


def emission_log_weights(
    state: BlackHoleState, omega, q=0.0, j=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized emission log-weights over arrays of emission hairs.

    Returns (log_weight, valid), both of the broadcast shape of the hairs;
    closed channels have valid False and log_weight nan. Same kernel and
    arithmetic as the scalar emission_log_weight, so the two agree bitwise
    for alpha = 0; like it, FloatingPointError where an open channel meets a
    zero float64 horizon area (alpha != 0).
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
    a closed channel come back nan/False. FloatingPointError where alpha != 0
    and a valid entry's state or remnant has a zero float64 horizon area.
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
    with np.errstate(invalid="ignore", divide="ignore"):
        logw = entropy_drop(m, q, j, alpha, omega, q_e, j_e)
    if alpha != 0.0 and not (np.isfinite(logw) | ~valid).all():  # logw may be unbroadcast
        _check_areas(m, q, j, omega, q_e, j_e, valid)
    return np.where(valid, logw, np.nan), valid


def _check_areas(m, q, j, omega, q_e, j_e, valid) -> None:
    """FloatingPointError, as emission_log_weight raises it, when a valid
    entry's state or remnant has a zero float64 horizon area: the
    log-corrected entropy is undefined there."""
    with np.errstate(all="ignore"):
        zero = valid & ((_area_sq(m, q, j, _ARRAY_OPS) == 0.0)
                        | (_area_sq(m - omega, q - q_e, j - j_e, _ARRAY_OPS) == 0.0))
    if zero.any():
        first = np.flatnonzero(zero)[0]
        m, q, j, omega, q_e, j_e = (float(x.flat[first]) for x in
                                    np.broadcast_arrays(m, q, j, omega, q_e, j_e))
        raise FloatingPointError(
            f"a float64 horizon area is 0 at {np.count_nonzero(zero)} open channels, the "
            f"first at (M, Q, J) = ({m!r}, {q!r}, {j!r}) or after emitting "
            f"(omega, q, j) = ({omega!r}, {q_e!r}, {j_e!r})"
        )


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
