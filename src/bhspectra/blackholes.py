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
on numpy arrays; no extended precision type is used. numpy is imported only
by the array routes: an argument can be an ndarray only once numpy is in
sys.modules, so the float routes run in a process that never loads it.

A fully evaporated hole (M = Q = J = 0) is a legal terminal state with zero
entropy when alpha = 0: complete evaporation cascades end on it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from operator import add

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


def _margin(m, q, j):
    """The sub-extremality margin M^2 - Q^2 - (J/M)^2 of hairs with M != 0,
    on floats or arrays; zero exactly at extremality."""
    a = j / m
    return m * m - q * q - a * a


def _check_hairs(family: Family, m: float, q: float, j: float) -> None:
    """Raise DomainError unless (m, q, j) is a valid macro-state of `family`
    (hairs_valid at alpha = 0 decides; this only explains a refusal), and
    FloatingPointError when finite hairs have a margin float64 cannot tell:
    M^2 and Q^2 + (J/M)^2 both overflow, and their difference is nan."""
    if hairs_valid(family, m, q, j, 0.0):
        return
    if q == 0.0 and j == 0.0:
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
    margin = _margin(m, q, j)
    if math.isnan(margin):  # inf - inf; a margin of -inf is surely negative
        raise FloatingPointError(
            f"the sub-extremality margin M^2 - Q^2 - (J/M)^2 of (M={m}, Q={q}, J={j}) "
            f"is {margin} in float64"
        )
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


# (sqrt, log, log1p, maximum, where, any) on Python floats and on numpy
# arrays: the kernels below are written once against these and run on either.
_FLOAT_OPS = (math.sqrt, math.log, math.log1p, max, _pick, bool)


@functools.cache
def _array_ops() -> tuple:
    import numpy as np
    return np.sqrt, np.log, np.log1p, np.maximum, np.where, np.any


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
    Schwarzschild and KN(J=0) -> RN are bit-exact; D (~M^4) is computed only
    when some entry carries charge or spin."""
    sqrt, _, _, maximum, where, any_ = ops
    if not (any_(q) or any_(j)):
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
    np = sys.modules.get("numpy")  # an argument can be an array only when it is loaded
    vector = np is not None and (isinstance(m, np.ndarray) or isinstance(omega, np.ndarray))
    ops = _array_ops() if vector else _FLOAT_OPS
    sqrt, log, log1p, maximum, where, any_ = ops
    shrink = omega * (2.0 * m - omega)  # M^2 - M'^2
    darea = -4.0 * shrink
    # The charged route runs only when some entry carries charge or spin.
    if (any_(q) or any_(j) or any_(qe) or any_(je)) if vector else (q or j or qe or je):
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
    the last axis, which a caller should make the long one. The outputs are
    laid out with the cut axis outermost, so each block fills one stretch
    of memory.
    """
    import numpy as np
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
            rest = shape[:axis] + shape[axis + 1 :]
            out = tuple(np.moveaxis(np.empty((shape[axis], *rest), dtype=r.dtype), 0, axis)
                        for r in parts)
        for o, r in zip(out, parts):
            o[cut] = r
    return out if isinstance(part, tuple) else out[0]


def _entropy(m, q, j, alpha, ops):
    """S = pi R_H^2 + alpha ln(pi R_H^2) of valid hairs, in nats; with
    alpha != 0, nan where the horizon area is zero."""
    _, log, _, _, where, _ = ops
    s = math.pi * _area_sq(m, q, j, ops)
    if alpha != 0.0:
        positive = s > 0.0
        s = where(positive, s + alpha * log(where(positive, s, 1.0)), math.nan)
    return s


def _entropy_block(family: Family, alpha: float, m, q, j):
    """S of one block of hairs, nan off the macro-states. The kernel runs on
    the hairs unbroadcast, so a term of one axis is computed once per axis
    value; the nan it makes of hairs such as M = inf is masked, unwarned."""
    import numpy as np
    ok = hairs_valid(family, m, q, j, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        s = _entropy(m, q, j, alpha, _array_ops())
        bad = ok & ~np.isfinite(s)
        if alpha != 0.0 and bad.any():  # undefined, not overflowed, at a zero area
            bad &= _area_sq(m, q, j, _array_ops()) != 0.0
    if bad.any():
        raise _entropy_not_finite(*_at_first(bad, m, q, j, s))
    return np.where(ok, s, np.nan)


def _at_first(bad, *arrays) -> list[float]:
    """The entries of arrays, broadcast together, at the first True of bad."""
    import numpy as np
    i = np.flatnonzero(bad)[0]
    return [float(x.flat[i]) for x in np.broadcast_arrays(*arrays)]


def _entropy_not_finite(m, q, j, s) -> FloatingPointError:
    return FloatingPointError(f"the entropy of (M, Q, J) = ({m!r}, {q!r}, {j!r}) is {s!r}, "
                              "not finite in float64")


def entropy_grid(family: Family, m, q, j, alpha: float):
    """Elementwise corrected entropy over arrays of hairs, in float64, in
    their broadcast shape: nan off the macro-states of `family` (negative
    mass, super-extremal, nonzero hairs at M = 0) and at zero area with
    alpha != 0; FloatingPointError where a macro-state's entropy is not
    finite otherwise. The arithmetic of bh_entropy, so the two agree bitwise."""
    import numpy as np
    hairs = (np.asarray(x, dtype=np.float64) for x in (m, q, j))
    return _blockwise(functools.partial(_entropy_block, family, alpha), *hairs)


def hairs_valid(family: Family, m, q, j, alpha: float):
    """Validity of (m, q, j) as a macro-state of `family`: a bool for float
    hairs, elementwise a bool array of the broadcast shape when any hair is
    an array. The one validity rule; BlackHoleState applies it at alpha = 0.

    A zero state (all hairs 0) counts as valid only for alpha = 0, where the
    corrected entropy is still defined (S = 0). A nan margin (M^2 and
    Q^2 + (J/M)^2 both overflow, from M ~ 1.3e154) is no macro-state. Hairs
    given as grid axes are tested per axis; only the combined tests take the
    broadcast shape.
    """
    np = sys.modules.get("numpy")  # an argument can be an array only when it is loaded
    if np is None or not (isinstance(m, np.ndarray) or isinstance(q, np.ndarray)
                          or isinstance(j, np.ndarray)):
        if q == 0.0 and j == 0.0:  # every family; a nan mass fails both tests
            return 0.0 < m < math.inf or (m == 0.0 and alpha == 0.0)
        if family is Family.SCHWARZSCHILD or (family is Family.REISSNER_NORDSTROM and j != 0.0):
            return False
        return 0.0 < m < math.inf and _margin(m, q, j) >= 0.0
    m, q, j = (np.asarray(x, dtype=np.float64) for x in (m, q, j))
    zero = (m == 0.0) & (q == 0.0) & (j == 0.0)
    pos = (m > 0.0) & (m < np.inf)  # a finite mass; non-finite q, j fail below
    if family is Family.SCHWARZSCHILD:
        ok = pos & (q == 0.0) & (j == 0.0)
    else:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            margin = _margin(m, q, j)  # read only where pos
        ok = pos & (margin >= 0.0)
        if family is Family.REISSNER_NORDSTROM:
            ok &= j == 0.0
    if alpha == 0.0:
        ok = ok | zero
    return ok


def logsumexp(a, where=None) -> float:
    """log(sum(exp(a))) over a 1-D real array, or a sequence of floats,
    shifted by its maximum; over the array's entries where `where` (a bool
    array of a's shape) is True, when given.

    Reproduces scipy's logsumexp (1.17) bit for bit on 1-D real input: every
    element equal to the maximum is taken out of the shifted sum, which is
    divided by their count, so ties at the maximum cost no precision. A
    non-finite result (inf or nan in `a`, or all -inf) falls back to the
    direct log(sum(exp(a))), as scipy does; empty input gives -inf.

    One body for both routes: a sequence takes the math module's exp, log
    and _pairwise_sum, an array numpy's exp, log and _pairwise_leaves, which
    reads the entries leaf by leaf, so that `where` costs no gather: the
    result has the bits of logsumexp(a[where]) with no temporary larger than
    a leaf. The routes agree bit for bit where numpy's exp, log and log1p
    are libm's.
    """
    np = sys.modules.get("numpy")  # a can be an array only when it is loaded
    if np is None or not isinstance(a, np.ndarray):
        a = list(map(float, a))
        hi = max(a, default=-math.inf)
        return _logsumexp(
            len(a), hi, float(a.count(hi)),
            lambda: _pairwise_sum([0.0 if x == hi else math.exp(x - hi) for x in a]),
            lambda: _pairwise_sum(list(map(_exp_or_inf, a))),
            lambda x: math.log(x) if x != 0.0 else -math.inf, math.log1p)  # numpy's log(0)
    a = a.astype(np.float64, copy=False)
    # at(start, stop) indexes the values of ranks start..stop-1: a run of a, or of a[where].
    n, at = (len(a), slice) if where is None else _ranked(where)
    where = True if where is None else where
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi = np.maximum.reduce(a, initial=-np.inf, where=where)
        count = np.float64(np.add.reduce(a == hi, where=where, dtype=np.intp))

        def shifted(start, stop):  # no term can overflow: a - hi is at most 0, or nan
            x = a[at(start, stop)]
            terms = x - hi
            np.exp(terms, out=terms)
            terms[x == hi] = 0.0
            return terms

        return _logsumexp(n, hi, count, lambda: _pairwise_leaves(n, shifted),
                          lambda: _pairwise_leaves(n, lambda start, stop: np.exp(a[at(start, stop)])),
                          np.log, np.log1p)


def _logsumexp(n: int, hi, count, shifted_sum, exp_sum, log, log1p) -> float:
    """The body of logsumexp on n values of maximum hi, held count times:
    shifted_sum() sums exp(x - hi), with 0.0 at the maxima, and exp_sum()
    exp(x), each in numpy's pairwise order."""
    if n == 0:
        return -math.inf
    s = shifted_sum()
    if s != 0.0:
        s = s / count
    out = log1p(s) + log(count) + hi
    if not math.isfinite(out):
        out = log(exp_sum())
    return float(out)


def _half(n: int) -> int:
    """Where numpy's pairwise sum cuts n > 128 values in two: at the
    multiple of 8 below the middle."""
    return n // 2 - n // 2 % 8


def _pairwise_sum(a: list) -> float:
    """The sum of a list of floats in numpy's order for a contiguous float64
    array (pairwise_sum in its loops): under 8 values one by one from -0.0;
    up to 128 in 8 interleaved running sums, then the rest one by one; more
    cut in two by _half."""
    n = len(a)
    if n < 8:
        return functools.reduce(add, a, -0.0)
    if n <= 128:
        end = n - n % 8
        r = [functools.reduce(add, a[k:end:8]) for k in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return functools.reduce(add, a[end:], total)
    half = _half(n)
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


# Most values a leaf of _pairwise_leaves holds, and entries per block of
# a _ranked mask.
_LEAF = 8192


def _pairwise_leaves(n: int, leaf, lo: int = 0):
    """np.add.reduce of n float64 values laid end to end, read leaf by leaf:
    leaf(start, stop) returns values start..stop-1 (of lo..lo+n-1) as an
    array, or as the rows of a 2-D array to sum several quantities at once.

    The values are cut as _pairwise_sum cuts them, down to leaves of at
    most _LEAF, and np.add.reduce sums each leaf along its last axis. That
    is numpy's own order for one contiguous array, so the sum has its bits
    (tests/test_spectrum.py::TestPairwiseLeaves fails if numpy's order
    changes), while no temporary is larger than a leaf. The walk recurses
    at module level: a nested function that calls itself would be a
    reference cycle, keeping what its leaves read alive until a collection.
    """
    if n <= _LEAF:
        import numpy as np
        return np.add.reduce(leaf(lo, lo + n), axis=-1)
    half = _half(n)
    return _pairwise_leaves(half, leaf, lo) + _pairwise_leaves(n - half, leaf, lo + half)


def _ranked(mask) -> tuple:
    """(n, at) of a 1-D bool array: n, its True entries, and at(start,
    stop), the indices of those of ranks start..stop-1, in order.

    at reads only the _LEAF-entry blocks of mask that hold them, found from
    the count of True entries per block, so no array of n indices exists.
    """
    import numpy as np
    counts = [np.count_nonzero(mask[i : i + _LEAF]) for i in range(0, mask.size, _LEAF)]
    first = np.zeros(len(counts) + 1, dtype=np.intp)  # the rank of each block's first
    np.cumsum(counts, out=first[1:])

    def at(start, stop):
        b = int(first.searchsorted(start, "right")) - 1  # the block of rank start
        e = int(first.searchsorted(stop, "left"))  # past the block of rank stop - 1
        index = np.flatnonzero(mask[b * _LEAF : e * _LEAF])[start - first[b] : stop - first[b]]
        index += b * _LEAF
        return index

    return int(first[-1]), at


def _exp_or_inf(x: float) -> float:
    """math.exp, but inf where it overflows, as numpy's exp."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def horizon_radius(state: BlackHoleState) -> float:
    """Horizon (area) radius R_H of a valid macro-state, in Planck lengths."""
    return math.sqrt(_area_sq(state.m, state.q, state.j, _FLOAT_OPS))


def bh_entropy(state: BlackHoleState) -> float:
    """Corrected horizon entropy pi R_H^2 + alpha ln(pi R_H^2), in nats.
    DomainError at a zero float64 horizon area with alpha != 0, where it is
    undefined; FloatingPointError where it is not finite in float64 (pi R_H^2
    overflows from M ~ 3.8e153)."""
    s = _entropy(state.m, state.q, state.j, state.alpha, _FLOAT_OPS)
    if not math.isfinite(s):
        if horizon_radius(state) == 0.0:
            raise DomainError("log-corrected entropy is undefined at zero horizon area "
                              "(alpha != 0)")
        raise _entropy_not_finite(state.m, state.q, state.j, s)
    return float(s)


def apply_emission(state: BlackHoleState, e: Emission) -> BlackHoleState:
    """State left behind after radiating `e`: hairs (M-omega, Q-q, J-j)."""
    try:
        return state.with_hairs(state.m - e.omega, state.q - e.q, state.j - e.j)
    except DomainError as exc:
        raise RemnantInvalid(f"forbidden emission channel: {exc}") from exc


def subextremality_margin(state: BlackHoleState) -> float:
    """M^2 - Q^2 - (J/M)^2; zero exactly at extremality."""
    return 0.0 if state.m == 0.0 else _margin(state.m, state.q, state.j)


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
