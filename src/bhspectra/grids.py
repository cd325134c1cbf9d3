"""Discretized radiation spectra: grid specifications and spectrum containers.

A SpectrumGrid is a diagonal radiation density matrix sampled on a finite
emission grid. Weights are stored exclusively as log-weights in nats;
exponentiation happens only at output time, with underflow rendered as 0.0
while the log value remains the source of truth.

Grid convention: the omega axis holds point evaluations at the nodes
omega_min + i * (omega_max - omega_min) / n  for i = 1..n, i.e. the open
left endpoint is excluded and omega_max is included exactly. Charge and
angular-momentum axes are integer multiples of user-set quanta starting at 0,
which keeps conservation checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import Normalization, UsageError

if TYPE_CHECKING:  # the annotation only: grids stays a leaf module
    from .blackholes import BlackHoleState

# Most bins n_omega * n_q * n_j of a grid, checked before any array exists.
_MAX_BINS = 1 << 24


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
        nodes = self.omega_min + step * np.arange(1, self.n_omega + 1, dtype=np.float64)
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


def exp_weights(log_weight: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """exp(log_weight), 0.0 where it underflows or the bin is invalid."""
    out = np.zeros_like(log_weight)
    with np.errstate(under="ignore"):
        out[valid] = np.exp(log_weight[valid])
    return out
