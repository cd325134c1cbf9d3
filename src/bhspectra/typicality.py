"""Canonical typicality: reduced states of random pure universe states,
microcanonical weights, the seed-averaged concentration estimator, and the
lab behind `typicality`, which runs that estimator at two shell sizes.

The universe U = B (system) + O (environment) lives on a shell that pairs
each system level b, g_b-fold degenerate, with Omega_b environment states:
Omega_O(E_U - E_b) on an energy shell, exp S_BH of the remnant for a black
hole, whatever its hairs. A random pure state on the shell has i.i.d.
complex standard normal coefficients, globally normalized. Tracing out O
then concentrates the reduced state of B onto the microcanonical weights

    w(b)  proportional to  g_b * Omega_b

and the fluctuations around that limit are what the tests measure.

Level b's coefficients form a g_b x Omega_b block G_b. Distinct levels
occupy orthogonal environment sectors, so before normalization the reduced
state is blockdiag(W_b) with W_b = G_b G_b^dagger: independent complex
Wishart matrices (Zyczkowski and Sommers, J. Phys. A 34, 7111, 2001). The
sampler draws each W_b directly, so huge environment state counts cost
nothing; only the float64 range bounds dim_U, at _DIM_U_CAP.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, check_int

# Largest dim_U: the sampler's Gamma shapes and traces are float64 (max ~2^1024),
# and at this cap lab_ledger has dim_b <= ~2000, so rho stays under 64 MB.
_DIM_U_CAP = 1 << 1000
# Most random states concentration averages.
_MAX_SEEDS = 1 << 20


@dataclass(frozen=True)
class EnergyLedger:
    """Degeneracy bookkeeping for the universe shell: levels holds the
    (g_b, Omega_b) pair of each system level, in order. Omega_b = 0 means the
    level's environment sector is empty."""

    levels: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise DomainError("ledger needs at least one system level")
        for b, (g, n) in enumerate(self.levels):
            # int() would floor 2.5 to 2, and fail on nan and inf.
            if not all(isinstance(x, numbers.Integral) or float(x).is_integer() for x in (g, n)):
                raise DomainError(f"level counts must be integers, got {(g, n)} at level {b}")
            if g < 1:
                raise DomainError(f"system degeneracy must be >= 1, got {g} at level {b}")
            if n < 0:
                raise DomainError(f"environment state count must be >= 0, got {n} at level {b}")
        object.__setattr__(self, "levels", tuple((int(g), int(n)) for g, n in self.levels))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def dim_b(self) -> int:
        return sum(g for g, _ in self.levels)

    @property
    def dim_u(self) -> int:
        return sum(g * n for g, n in self.levels)


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Reduced density matrix of the system after tracing out the environment."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"reduced density matrix is not square: shape {m.shape}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise DomainError(f"reduced density trace {tr} != 1")
        if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
            raise DomainError("reduced density matrix is not Hermitian")


def sample_reduced_density(ledger: EnergyLedger, seed: int) -> tuple[ReducedDensity, float]:
    """Reduced state of a random pure universe state, and its raw_mean_sq: the
    mean |C|^2 of the coefficients before normalization, which concentrates
    at 1. Each level's W = L L^dagger by the Bartlett decomposition: L is
    g x min(g, n), lower trapezoidal, |L_kk|^2 ~ Gamma(n - k) for k from 0,
    complex normals with E|z|^2 = 1 below the diagonal; the same shape covers
    n < g (rank n) and n = 0 (W = 0). Deterministic for fixed (ledger, seed).
    """
    seed = check_int("seed", seed)
    dim_u = ledger.dim_u
    if dim_u == 0:
        raise DomainError("ledger has an empty shell: all sectors have zero states")
    if dim_u > _DIM_U_CAP:
        raise UsageError(f"dim_U of {dim_u.bit_length()} bits, over 2^{_DIM_U_CAP.bit_length() - 1}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dim = ledger.dim_b
    rho = np.zeros((dim, dim), dtype=np.complex128)
    offset = 0
    for g, n in ledger.levels:
        r = min(g, n)
        z = rng.standard_normal((2, g, r))
        low = np.tril(z[0] + 1j * z[1], -1) / math.sqrt(2.0)
        low[np.diag_indices(r)] = np.sqrt(rng.standard_gamma(float(n) - np.arange(r)))
        rho[offset : offset + g, offset : offset + g] = low @ low.conj().T
        offset += g
    total = float(np.trace(rho).real)
    return ReducedDensity(rho / total), total / dim_u


def microcanonical_weights(ledger: EnergyLedger) -> np.ndarray:
    """Shell weights per system level: w(b) = g_b Omega_b / total."""
    counts = [g * n for g, n in ledger.levels]
    total = sum(counts)
    if total == 0:
        raise DomainError("all microcanonical weights are zero (empty shell)")
    return np.array([c / total for c in counts], dtype=np.float64)


def level_diagonal(ledger: EnergyLedger, rho: ReducedDensity) -> np.ndarray:
    """Diagonal of rho aggregated per system level (sums degenerate copies)."""
    diag = np.real(np.diag(rho.matrix))
    out = np.empty(ledger.n_levels)
    offset = 0
    for i, (g, _) in enumerate(ledger.levels):
        out[i] = float(np.sum(diag[offset : offset + g]))
        offset += g
    return out


def offdiagonal_rms(rho: ReducedDensity) -> float:
    """Root-mean-square magnitude of the off-diagonal entries."""
    d = rho.matrix.shape[0]
    if d < 2:
        return 0.0
    mask = ~np.eye(d, dtype=bool)
    return float(np.sqrt(np.mean(np.abs(rho.matrix[mask]) ** 2)))


def concentration(ledger: EnergyLedger, n_seeds: int, seed: int) -> tuple[float, float, float]:
    """How far n_seeds random states on the shell sit from its weights: the
    means of the L1 distance of level_diagonal from microcanonical_weights,
    of offdiagonal_rms and of raw_mean_sq. Draw i is seeded from
    (seed, dim_U, i), so shells of different sizes never share a draw and
    the ratio of two sizes' estimates is itself an estimate.
    """
    n_seeds = check_int("n_seeds", n_seeds, floor=1)
    if n_seeds > _MAX_SEEDS:
        raise UsageError(f"n_seeds = {n_seeds}, above {_MAX_SEEDS}")
    seed = check_int("seed", seed)
    weights = microcanonical_weights(ledger)
    dim_u = ledger.dim_u
    l1, rms, raw = np.empty((3, n_seeds))
    for i in range(n_seeds):
        s = int(np.random.SeedSequence((seed, dim_u, i)).generate_state(1, np.uint64)[0])
        rho, raw[i] = sample_reduced_density(ledger, s)
        l1[i] = float(np.sum(np.abs(level_diagonal(ledger, rho) - weights)))
        rms[i] = offdiagonal_rms(rho)
    return float(np.mean(l1)), float(np.mean(rms)), float(np.mean(raw))


# ---------------------------------------------------------------------------
# Standard typicality lab configuration
# ---------------------------------------------------------------------------


def lab_ledger(dim_b: int, dim_o: int) -> EnergyLedger:
    """Standard lab shell with dim_b system basis states.

    System levels are degenerate pairs (so off-diagonals of rho_B fluctuate
    instead of vanishing identically), with an extra singlet when dim_b is
    odd. Environment sector sizes halve per level, dim_o, dim_o/2, ..., which
    makes the microcanonical weights nontrivial. dim_o must be divisible by
    2^(levels - 1).
    """
    dim_b, dim_o = check_int("dim_b", dim_b, floor=1), check_int("dim_o", dim_o, floor=1)
    n_levels = (dim_b + 1) // 2
    # Past dim_o's bit length 2^(n_levels - 1) exceeds dim_o: reject before
    # building that power or the levels.
    if n_levels > dim_o.bit_length() or dim_o % (1 << (n_levels - 1)) != 0:
        raise UsageError(f"dim_o must be a positive multiple of 2^{n_levels - 1}")
    gs = [2] * (dim_b // 2) + ([1] if dim_b % 2 else [])
    return EnergyLedger(tuple((g, dim_o >> i) for i, g in enumerate(gs)))


@dataclass(frozen=True)
class TypicalityLabReport:
    """Seed-averaged measurements of the typicality lab. rms_ratio is None
    when the base off-diagonal RMS is 0 (dim_b = 1: a singlet has none)."""

    dim_b: int
    dim_o: int
    scale_factor: int
    n_seeds: int
    seed: int
    mean_l1_weights: float
    mean_l1_weights_scaled: float
    offdiag_rms: float
    offdiag_rms_scaled: float
    rms_ratio: float | None
    mean_raw_sq: float

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def typicality_lab(
    dim_b: int,
    dim_o: int,
    n_seeds: int = 100,
    seed: int = 0,
    scale_factor: int = 4,
) -> TypicalityLabReport:
    """Measure diag-weight convergence and off-diagonal decay on the lab shell.

    Runs concentration() at dim_o and at scale_factor * dim_o; reports the
    seed-averaged L1 distance of the per-level diagonal from the
    microcanonical weights and the off-diagonal RMS at both sizes.
    """
    dim_b, dim_o = check_int("dim_b", dim_b, floor=1), check_int("dim_o", dim_o, floor=1)
    scale_factor = check_int("scale_factor", scale_factor, floor=1)
    base, scaled = lab_ledger(dim_b, dim_o), lab_ledger(dim_b, scale_factor * dim_o)
    # The larger shell first: its first draw rejects a dim_U over the cap.
    l1_scaled, rms_scaled, _ = concentration(scaled, n_seeds, seed)
    l1_base, rms_base, raw_base = concentration(base, n_seeds, seed)
    return TypicalityLabReport(
        dim_b=dim_b,
        dim_o=dim_o,
        scale_factor=scale_factor,
        n_seeds=n_seeds,
        seed=seed,
        mean_l1_weights=l1_base,
        mean_l1_weights_scaled=l1_scaled,
        offdiag_rms=rms_base,
        offdiag_rms_scaled=rms_scaled,
        rms_ratio=rms_scaled / rms_base if rms_base > 0 else None,
        mean_raw_sq=raw_base,
    )
