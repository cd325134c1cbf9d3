"""Non-thermal radiation spectra from black-hole entropy differences.

The emission log-weight is the single expression

    log w(e) = S(M - omega, Q - q, J - j) - S(M, Q, J)

with S the (optionally log-corrected) horizon entropy. For alpha != 0 this
one difference automatically reproduces both the exponential factor and the
(R'/R)^(2 alpha) prefactor of the corrected spectrum, because the alpha*ln
term collapses the prefactor into the entropy difference.

Everything is kept in log-space: e^(-8 pi omega M) underflows already for
modest masses, so weights are stored and combined in nats and exponentiated
only at output, by exp_weights, the one rule that turns log-weights into
weights. Scalar and grid evaluation share one float64 kernel,
blackholes.entropy_drop, and unit-sum normalization goes through a stable
log-sum-exp.

A SpectrumGrid is a diagonal radiation density matrix sampled on the
emission grid of a GridSpec. Grid convention: the omega axis holds point
evaluations at the nodes omega_min + i * (omega_max - omega_min) / n for
i = 1..n, i.e. the open left endpoint is excluded and omega_max is included
exactly. Charge and angular-momentum axes are integer multiples of user-set
quanta starting at 0, which keeps conservation checks exact.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
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
from .errors import DomainError, Normalization, RemnantInvalid, UsageError

# Most bins n_omega * n_q * n_j of a grid, checked before any array exists.
_MAX_BINS = 1 << 24

# exp's edges in float64: the log of the least subnormal (exp rounds to 0.0
# from ln 2 below it) and of the largest float (exp overflows above it).
_EXP_UNDER = math.log(math.ulp(0.0))
_EXP_OVER = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular emission grid: an omega axis plus optional q / j axes.

    n_q = 1 (the default) means the single charge value 0; n_q > 1 adds the
    emissions q_step, 2*q_step, ... Same for the angular-momentum axis.
    """

    omega_max: float
    n_omega: int
    omega_min: float = 0.0
    q_step: float = 1.0
    n_q: int = 1
    j_step: float = 1.0
    n_j: int = 1

    def __post_init__(self) -> None:
        if not all(isinstance(n, numbers.Integral) for n in (self.n_omega, self.n_q, self.n_j)):
            raise UsageError("grid axis sizes must be integers")
        if not (math.isfinite(self.omega_min) and math.isfinite(self.omega_max)):
            raise UsageError("grid omega bounds must be finite")
        if self.omega_min < 0.0 or self.omega_max <= self.omega_min:
            raise UsageError("grid requires 0 <= omega_min < omega_max")
        if self.n_omega < 1 or self.n_q < 1 or self.n_j < 1:
            raise UsageError("grid axis sizes must be >= 1")
        if self.n_bins > _MAX_BINS:
            raise UsageError(f"grid of n_omega*n_q*n_j = {self.n_bins} bins, above {_MAX_BINS}")
        # The last axis values too: a finite step can overflow (2 * 1e308).
        last = (self.q_step * (self.n_q - 1), self.j_step * (self.n_j - 1))
        if not all(math.isfinite(x) for x in (self.q_step, self.j_step, *last)):
            raise UsageError("charge/angular-momentum axis values must be finite")
        if self.q_step == 0.0 or self.j_step == 0.0:
            raise UsageError("charge/angular-momentum quanta must be nonzero")

    @property
    def n_bins(self) -> int:
        return self.n_omega * self.n_q * self.n_j

    def omega_nodes(self) -> np.ndarray:
        step = (self.omega_max - self.omega_min) / self.n_omega
        nodes = np.arange(1, self.n_omega + 1, dtype=np.float64)
        nodes *= step  # in place: omega_min + step * i, one array
        nodes += self.omega_min
        nodes[-1] = self.omega_max  # pin the endpoint exactly
        return nodes

    def q_values(self) -> np.ndarray:
        return self.q_step * np.arange(self.n_q, dtype=np.float64)

    def j_values(self) -> np.ndarray:
        return self.j_step * np.arange(self.n_j, dtype=np.float64)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The omega, q and j axis values as (n_omega, 1, 1), (n_q, 1) and
        (n_j,) arrays: broadcast, they index the bins omega-major, then q, then j."""
        return self.omega_nodes()[:, None, None], self.q_values()[:, None], self.j_values()


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """Diagonal radiation density matrix over an emission grid: the weights
    of source_state's emissions into the bins of grid_spec.

    log_weight and valid hold one entry per bin, in the C order of the
    broadcast grid_spec.axes(). Invalid bins mark closed emission channels: they are
    flagged, never dropped, and carry log_weight = nan. log_norm records the
    log-sum-exp total subtracted during unit-sum normalization (None for raw
    spectra), so raw weights are recoverable as log_weight + log_norm.
    """

    log_weight: np.ndarray
    valid: np.ndarray
    normalization: Normalization
    source_state: BlackHoleState
    grid_spec: GridSpec
    log_norm: float | None = None

    def __post_init__(self) -> None:
        shape = (self.grid_spec.n_bins,)
        if np.shape(self.log_weight) != shape or np.shape(self.valid) != shape:
            raise UsageError(f"log_weight and valid must both have the grid's shape {shape}")

    @property
    def n_bins(self) -> int:
        return self.grid_spec.n_bins

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    def weights(self) -> np.ndarray:
        """exp_weights of the grid's bins, computed on each call."""
        return exp_weights(self.log_weight, self.valid)

    def n_underflow(self) -> int:
        """The valid bins whose entry of weights() is 0.0, and its
        FloatingPointError where a valid weight overflows. Only the bins
        within a nat of exp's underflow or overflow edge are exponentiated:
        the rest are counted, or passed, by comparison."""
        logw, valid = self.log_weight, self.valid
        high = valid & (logw > _EXP_OVER - 1.0)
        if high.any():
            exp_weights(logw, high)  # raises where one overflows
        del high
        low = valid & (logw < _EXP_UNDER + 1.0)
        edge = logw[low & (logw > _EXP_UNDER - 1.0)]
        return int(np.count_nonzero(low)) - int(np.count_nonzero(exp_weights(edge)))


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


def exp_weights(log_weight: np.ndarray, valid=True, out: np.ndarray | None = None) -> np.ndarray:
    """The weights exp(log_weight) where valid, 0.0 where exp underflows.

    The one place a log-weight becomes a weight. Where valid is False, out
    keeps its entries (0.0 when out is None, the default); out may be
    log_weight itself. FloatingPointError, naming the first entry, where a
    valid weight overflows float64.
    """
    if out is None:
        out = np.zeros(np.shape(log_weight))
    try:
        with np.errstate(under="ignore", over="raise"):
            return np.exp(log_weight, out=out, where=valid)
    except FloatingPointError:
        bad = np.flatnonzero(np.isinf(out) & valid)
        at = f"{bad.size} entries, the first at index {bad[0]}"
        if not np.may_share_memory(out, log_weight):  # in place, the log-weight is gone
            at += f", log_weight = {float(np.ravel(log_weight)[bad[0]])!r}"
        raise FloatingPointError("the weight exp(log_weight) overflows float64 (log_weight "
                                 f"above ~709.78) at {at}") from None


def _normalize(logw: np.ndarray, valid: np.ndarray) -> float:
    """Subtract the valid entries' log-sum-exp from them, in place; return it.
    Neither step gathers the valid entries."""
    log_norm = float(logsumexp(logw, valid))
    np.subtract(logw, log_norm, out=logw, where=valid)
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
    Its blocks along omega fill arrays laid out in bin order, which the
    grid takes without a copy.
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
    logw = _thermal(state, _grid_axes(state, spec)[0])  # the nodes are freed here
    if spec.n_q * spec.n_j > 1:
        logw = np.repeat(logw, spec.n_q * spec.n_j)
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
        p = exp_weights(nonthermal.log_weight[common])
        kl = float(np.sum(np.where(p > 0.0, p * dlog, 0.0)))
    return SpectrumComparison(
        kl_divergence=kl,
        max_abs_log_ratio=float(np.max(np.abs(dlog))),
        mean_abs_log_ratio=float(np.mean(np.abs(dlog))),
        n_common=int(np.count_nonzero(common)),
    )
