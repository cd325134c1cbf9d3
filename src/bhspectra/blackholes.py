"""Black-hole macro-states, horizon geometry, and entropy functions.

Planck units throughout (G = c = hbar = k_B = 1); entropies are in nats.
Charge and angular momentum are normalized so that sub-extremality reads
M^2 >= Q^2 + (J/M)^2.

Everything downstream is driven by the quarter-area entropy

    S(M, Q, J) = pi * R_H^2            [+ alpha * ln(pi * R_H^2) when alpha != 0]

with the horizon radius per family

    Schwarzschild         R_H = 2 M
    Reissner-Nordstrom    R_H = M + sqrt(M^2 - Q^2)
    Kerr-Newman           R_H = sqrt(r_+^2 + a^2),
                          r_+ = M + sqrt(M^2 - Q^2 - a^2),  a = J / M

For rotating holes R_H is the area radius sqrt(A_H / 4 pi), so S = pi R_H^2
stays a single formula for all three families.

Consumers mostly need *differences* of entropies between nearby macro-states,
accurate to ~1e-10 nats even when S itself is ~1e7 nats. Subtracting two
float64 entropies cannot deliver that, so entropy_drop computes the difference
algebraically from the state and the emission (the Parikh-Wilczek form
-4 pi omega (2M - omega) when uncharged, a difference of the square roots of
the horizon discriminants D = M^2 (M^2 - Q^2) - J^2 otherwise), with error a
few ulp of max(|dS|, S). Near extremality D cancels, so it is evaluated with
exact float64 products (Dekker's two-product) and, for the remnant, at the
exact hairs (M - omega, Q - q, J - j); that keeps the error a few ulp at any
margin. Everything is float64, with the same arithmetic on Python floats and
on numpy arrays; no extended precision type is used.

A fully evaporated hole (M = Q = J = 0) is a legal terminal state with zero
entropy when alpha = 0: complete evaporation cascades end on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, RemnantInvalid

class Family(str, Enum):
    SCHWARZSCHILD = "schwarzschild"
    REISSNER_NORDSTROM = "reissner-nordstrom"
    KERR_NEWMAN = "kerr-newman"

    @classmethod
    def parse(cls, name: str) -> "Family":
        """Accept canonical names plus the usual shorthands (rn, kn)."""
        key = name.strip().lower().replace("_", "-")
        aliases = {
            "schwarzschild": cls.SCHWARZSCHILD,
            "schw": cls.SCHWARZSCHILD,
            "reissner-nordstrom": cls.REISSNER_NORDSTROM,
            "rn": cls.REISSNER_NORDSTROM,
            "kerr-newman": cls.KERR_NEWMAN,
            "kn": cls.KERR_NEWMAN,
        }
        if key not in aliases:
            raise DomainError(f"unknown black-hole family: {name!r}")
        return aliases[key]


def _check_hairs(family: Family, m: float, q: float, j: float) -> None:
    """Raise DomainError unless (m, q, j) is a valid macro-state of `family`."""
    if q == 0.0 and j == 0.0:
        # Covers every family; m >= 0 is False for nan, so this also screens it.
        if m >= 0.0 and m != math.inf:
            return
        raise DomainError(f"mass must be non-negative and finite, got M={m}")
    if not (math.isfinite(m) and math.isfinite(q) and math.isfinite(j)):
        raise DomainError("hairs (M, Q, J) must all be finite")
    if family is Family.SCHWARZSCHILD:
        raise DomainError("Schwarzschild states carry neither charge nor angular momentum")
    if family is Family.REISSNER_NORDSTROM and j != 0.0:
        raise DomainError("Reissner-Nordstrom states carry no angular momentum")
    if m < 0.0:
        raise DomainError(f"mass must be non-negative, got M={m}")
    if m == 0.0:
        raise DomainError("a fully evaporated state must have Q = J = 0")
    a = j / m
    margin = m * m - q * q - a * a
    if margin < 0.0:
        raise DomainError(
            f"super-extremal state (naked singularity): M^2 - Q^2 - (J/M)^2 = {margin}"
        )


@dataclass(frozen=True, slots=True)
class BlackHoleState:
    """Macro-state of a black hole: family, hairs (M, Q, J), and the
    dimensionless log-correction coefficient alpha of the corrected entropy."""

    family: Family
    m: float
    q: float = 0.0
    j: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family.parse(str(self.family)))
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be a finite real, got {self.alpha}")
        _check_hairs(self.family, self.m, self.q, self.j)

    @property
    def is_evaporated(self) -> bool:
        return self.m == 0.0

    def with_hairs(self, m: float, q: float, j: float) -> "BlackHoleState":
        return BlackHoleState(self.family, m, q, j, self.alpha)


@dataclass(frozen=True, slots=True)
class Emission:
    """One radiated quantum carrying energy omega >= 0, charge q and
    angular momentum j away from the hole."""

    omega: float
    q: float = 0.0
    j: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and math.isfinite(self.q) and math.isfinite(self.j)):
            raise DomainError("emission (omega, q, j) must be finite")
        if self.omega < 0.0:
            raise DomainError(f"emitted energy must be non-negative, got {self.omega}")

    def __add__(self, other: "Emission") -> "Emission":
        return Emission(self.omega + other.omega, self.q + other.q, self.j + other.j)


def _pick(cond, a, b):
    return a if cond else b


# (sqrt, log, log1p, maximum, where) on Python floats and on numpy arrays: the
# kernels below are written once against these and run on either.
_FLOAT_OPS = (math.sqrt, math.log, math.log1p, max, _pick)
_ARRAY_OPS = (np.sqrt, np.log, np.log1p, np.maximum, np.where)


# Veltkamp's splitter 2^27 + 1: cuts a float64 into two halves whose
# products are exact.
_SPLITTER = 134217729.0


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _disc(m, q, j):
    """D = M^4 - (M Q)^2 - J^2 = M^2 (M^2 - Q^2 - a^2), so that
    R_H^2 = 2 M^2 + 2 sqrt(D) - Q^2 for every family.

    Near extremality the three terms cancel, and a float64 rounding of each
    (~eps M^4) would reach sqrt(D) as eps M^4 / sqrt(D). So the products are
    carried as exact float pairs and the leading terms summed exactly: the
    error is ~eps |D| + eps^2 M^4, below eps M^2 in sqrt(D) at any margin.
    """
    a, a_lo = _two_prod(m, m)  # M^2
    b, b_lo = _two_prod(m, q)  # M Q
    a2, a2_lo = _two_prod(a, a)
    b2, b2_lo = _two_prod(b, b)
    c, c_lo = _two_prod(j, j)
    s, s_lo = _two_sum(a2, -b2)
    # s - c is exact (Sterbenz) wherever it cancels.
    return (s - c) + (s_lo + a2_lo - b2_lo - c_lo + 2.0 * (a * a_lo - b * b_lo))


def _remnant_disc(m, q, j, omega, qe, je):
    """(M', Q', J', D'): the remnant hairs rounded to float64, and D at the
    exact hairs (m - omega, q - qe, j - je), i.e. D of the rounded hairs plus
    its first-order change under their rounding errors."""
    m2, dm = _two_sum(m, -omega)
    q2, dq = _two_sum(q, -qe)
    j2, dj = _two_sum(j, -je)
    ddisc = 2.0 * m2 * (2.0 * m2 * m2 - q2 * q2) * dm - 2.0 * m2 * m2 * q2 * dq - 2.0 * j2 * dj
    return m2, q2, j2, _disc(m2, q2, j2) + ddisc


def _area_sq(m, q, j, ops, root=None):
    """R_H^2 of valid hairs, from root = sqrt(D) when it is at hand. q = j = 0
    always routes through 4 M^2, so the family reductions RN(Q=0) ->
    Schwarzschild and KN(J=0) -> RN are bit-exact."""
    sqrt, _, _, maximum, where = ops
    if ops is _FLOAT_OPS and q == 0.0 and j == 0.0:
        return 4.0 * m * m
    if root is None:
        root = sqrt(maximum(_disc(m, q, j), 0.0))
    return where((q == 0.0) & (j == 0.0), 4.0 * m * m, 2.0 * m * m + 2.0 * root - q * q)


def entropy_drop(m, q, j, alpha, omega, qe=0.0, je=0.0):
    """S(m - omega, q - qe, j - je) - S(m, q, j) in nats, float64.

    The one entropy-difference kernel. It never subtracts two entropies:
    dS = pi dR^2 (R = R_H), with
      uncharged:  dR^2 = -4 omega (2m - omega)  (Parikh-Wilczek)
      charged:    dR^2 = 2 (sqrt(D') - sqrt(D)) - 2 omega (2m - omega)
                         + qe (2q - qe),
    where D and D' (taken at the exact remnant hairs) each carry a relative
    error of a few eps (see _disc), so every term is within a few ulp of
    R_H^2. The alpha term is alpha log1p(dR^2 / R^2), or alpha log(R'^2 / R^2)
    from the remnant once dR^2 / R^2 <= -1/2. The error stays a few ulp of
    max(|dS|, S) however large S is and however close to extremality.

    Floats in, float out (math functions); m or omega an array, and the
    arguments broadcast in numpy, with the same arithmetic. Unvalidated: the
    caller screens closed channels, whose values are meaningless.
    """
    vector = isinstance(m, np.ndarray) or isinstance(omega, np.ndarray)
    ops = _ARRAY_OPS if vector else _FLOAT_OPS
    sqrt, log, log1p, maximum, where = ops
    shrink = omega * (2.0 * m - omega)  # M^2 - M'^2
    darea = -4.0 * shrink
    # The charged route runs only when some entry carries charge or spin.
    if (np.any(q) or np.any(j) or np.any(qe) or np.any(je)) if vector else (q or j or qe or je):
        charged = (q != 0.0) | (j != 0.0) | (qe != 0.0) | (je != 0.0)
        root = sqrt(maximum(_disc(m, q, j), 0.0))
        m2, q2, j2, disc2 = _remnant_disc(m, q, j, omega, qe, je)
        root2 = sqrt(maximum(disc2, 0.0))
        darea = where(charged, 2.0 * (root2 - root) - 2.0 * shrink + qe * (2.0 * q - qe), darea)
    else:
        m2, q2, j2 = None, q, j  # the remnant mass only alpha != 0 reads
        root = root2 = 0.0
    ds = math.pi * darea
    if alpha != 0.0:
        if m2 is None:
            m2 = m - omega
        area = _area_sq(m, q, j, ops, root)
        ratio = darea / area
        ds = ds + alpha * where(
            ratio <= -0.5,
            log(_area_sq(m2, q2, j2, ops, root2) / area),
            log1p(maximum(ratio, -0.5)),
        )
    return ds


def entropy_drop_uncharged(m, omega):
    """S(m - omega) - S(m) for uncharged, uncorrected states:
    -4 pi omega (2m - omega), elementwise."""
    return entropy_drop(m, 0.0, 0.0, 0.0, omega)


# Elements per block of _blockwise: a few of the kernel's float64
# temporaries of this size stay in the cache together.
_BLOCK = 8192


def _blockwise(f, *args):
    """f(*args) for an elementwise kernel f (one array out, or a tuple of
    them), over the broadcast shape of args in blocks of about _BLOCK
    elements: the shape is cut along its longest axis, and the args that
    span it are sliced with it. A call of at most one block runs directly.

    Elementwise, so every block returns the bits the whole call would; the
    blocks bound the kernel's temporaries, and numpy's inner loop runs along
    the last axis, which a caller should make the long one.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    size = math.prod(shape)
    if size <= _BLOCK:
        return f(*args)
    axis = shape.index(max(shape))
    step = max(1, _BLOCK * shape[axis] // size)
    tail = len(shape) - axis  # the axis, counted from the right
    out = None
    for lo in range(0, shape[axis], step):
        cut = (Ellipsis, slice(lo, lo + step)) + (slice(None),) * (tail - 1)
        part = f(*(a[cut] if np.ndim(a) >= tail and np.shape(a)[-tail] > 1 else a
                   for a in args))
        parts = part if isinstance(part, tuple) else (part,)
        if out is None:
            out = tuple(np.empty(shape, dtype=r.dtype) for r in parts)
        for o, r in zip(out, parts):
            o[cut] = r
    return out if isinstance(part, tuple) else out[0]


def _area_block(family: Family, m, q, j):
    """R_H^2 of one block of hairs, nan off the macro-states. The kernel sees
    only valid hairs (the rest as zeros), so M = inf raises no warning."""
    ok = hairs_valid(family, m, q, j, 0.0)
    if not ok.all():
        m, q, j = (np.where(ok, x, 0.0) for x in (m, q, j))
    return np.where(ok, _area_sq(m, q, j, _ARRAY_OPS), np.nan)


def _entropy_block(family: Family, alpha: float, m, q, j):
    s = math.pi * _area_block(family, m, q, j)
    if alpha != 0.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(s > 0.0, s + alpha * np.log(s), np.nan)
    return s


def _hairs(m, q, j):
    return (np.asarray(x, dtype=np.float64) for x in (m, q, j))


def area_radius_sq(family: Family, m, q=0.0, j=0.0) -> np.ndarray:
    """Elementwise R_H^2 over arrays of hairs, in float64, in the broadcast
    shape of the hairs.

    Entries that are no macro-state of `family` (negative mass,
    super-extremal, nonzero hairs at M = 0) come back nan.
    Same arithmetic as the scalar path, so grid values and scalar values
    agree bitwise.
    """
    return _blockwise(functools.partial(_area_block, family), *_hairs(m, q, j))


def entropy_grid(family: Family, m, q, j, alpha: float) -> np.ndarray:
    """Elementwise corrected entropy over arrays of hairs (float64, nan
    where undefined). Same unvalidated semantics as area_radius_sq."""
    return _blockwise(functools.partial(_entropy_block, family, alpha), *_hairs(m, q, j))


def hairs_valid(family: Family, m, q, j, alpha: float) -> np.ndarray:
    """Elementwise validity of (m, q, j) as a macro-state (bool array of
    their broadcast shape).

    A zero state (all hairs 0) counts as valid only for alpha = 0, where the
    corrected entropy is still defined (S = 0). Hairs given as grid axes are
    tested per axis; only the combined tests take the broadcast shape.
    """
    m = np.asarray(m, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    zero = (m == 0.0) & (q == 0.0) & (j == 0.0)
    pos = (m > 0.0) & (m < np.inf)  # a finite mass; non-finite q, j fail below
    if family is Family.SCHWARZSCHILD:
        ok = pos & (q == 0.0) & (j == 0.0)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(pos, j / np.where(pos, m, 1.0), 0.0)
            margin = m * m - q * q - a * a
        ok = pos & (margin >= 0.0)
        if family is Family.REISSNER_NORDSTROM:
            ok &= j == 0.0
    if alpha == 0.0:
        ok = ok | zero
    return ok


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a 1-D real array, shifted by its maximum.

    Reproduces scipy's logsumexp (1.17) bit for bit on 1-D real input: every
    element equal to the maximum is taken out of the shifted sum, which is
    divided by their count, so ties at the maximum cost no precision. A
    non-finite result (inf or nan in `a`, or all -inf) falls back to the
    direct log(sum(exp(a))), as scipy does; empty input gives -inf.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return float("-inf")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi = np.max(a)
        at_max = a == hi
        terms = np.exp(a - hi)
        terms[at_max] = 0.0
        s = np.sum(terms)
        count = np.float64(np.count_nonzero(at_max))
        if s != 0.0:
            s = s / count
        out = np.log1p(s) + np.log(count) + hi
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def horizon_radius(state: BlackHoleState) -> float:
    """Horizon (area) radius R_H of a valid macro-state, in Planck lengths."""
    return math.sqrt(_area_sq(state.m, state.q, state.j, _FLOAT_OPS))


def bh_entropy(state: BlackHoleState) -> float:
    """Corrected horizon entropy pi R_H^2 + alpha ln(pi R_H^2), in nats."""
    s = math.pi * _area_sq(state.m, state.q, state.j, _FLOAT_OPS)
    if state.alpha != 0.0:
        if not s > 0.0:
            raise DomainError(
                "log-corrected entropy is undefined at zero horizon area (alpha != 0)"
            )
        s = s + state.alpha * math.log(s)
    return float(s)


def _remnant_hairs(state: BlackHoleState, e: Emission) -> tuple[float, float, float]:
    """Hairs left after an emission; RemnantInvalid if the channel is closed."""
    m2 = state.m - e.omega
    q2 = state.q - e.q
    j2 = state.j - e.j
    if q2 == 0.0 and j2 == 0.0 and m2 >= 0.0:  # uncharged fast path
        return m2, q2, j2
    try:
        _check_hairs(state.family, m2, q2, j2)
    except DomainError as exc:
        raise RemnantInvalid(f"forbidden emission channel: {exc}") from exc
    return m2, q2, j2


def apply_emission(state: BlackHoleState, e: Emission) -> BlackHoleState:
    """State left behind after radiating `e`: hairs (M-omega, Q-q, J-j)."""
    m2, q2, j2 = _remnant_hairs(state, e)
    return BlackHoleState(state.family, m2, q2, j2, state.alpha)


def subextremality_margin(state: BlackHoleState) -> float:
    """M^2 - Q^2 - (J/M)^2; zero exactly at extremality."""
    if state.m == 0.0:
        return 0.0
    a = state.j / state.m
    return state.m * state.m - state.q * state.q - a * a


def is_extremal(state: BlackHoleState) -> bool:
    """True when the state saturates M^2 = Q^2 + (J/M)^2 (or has evaporated)."""
    return subextremality_margin(state) <= 0.0


def hawking_temperature(state: BlackHoleState) -> float:
    """Surface-gravity temperature kappa / 2pi.

    One formula covers all families:  T = (r_+ - r_-) / (4 pi (r_+^2 + a^2))
    with r_+- = M +- sqrt(M^2 - Q^2 - a^2) and a = J/M, i.e.
    T = sqrt(D) / (2 pi M R_H^2) with D = M^2 (M^2 - Q^2 - a^2).  For
    Schwarzschild this reduces to T = 1 / (8 pi M), which is returned
    directly so the uncharged value is exact.
    """
    if is_extremal(state):
        raise DomainError("extremal state has zero temperature")
    m, q, j = state.m, state.q, state.j
    if q == 0.0 and j == 0.0:
        return 1.0 / (8.0 * math.pi * m)
    root = math.sqrt(max(_disc(m, q, j), 0.0))
    return root / (2.0 * math.pi * m * _area_sq(m, q, j, _FLOAT_OPS, root))


def state_to_record(state: BlackHoleState) -> dict:
    """Flat serialization record used by configs and output manifests."""
    return {
        "family": state.family.value,
        "M": state.m,
        "Q": state.q,
        "J": state.j,
        "alpha": state.alpha,
    }


def state_from_record(record: dict) -> BlackHoleState:
    """Inverse of state_to_record."""
    return BlackHoleState(
        Family.parse(record["family"]),
        float(record["M"]),
        float(record.get("Q", 0.0)),
        float(record.get("J", 0.0)),
        float(record.get("alpha", 0.0)),
    )
