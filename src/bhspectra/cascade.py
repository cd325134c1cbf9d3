"""Monte Carlo evaporation cascades with exact probability bookkeeping.

A cascade repeatedly draws one emission from the per-step distribution
obtained by unit-sum-normalizing the entropy-difference weights over all
currently open channels, until the hole reaches the stop mass (or fully
evaporates when stop_mass = 0). Both numbers are carried for every step and
never conflated:

    step_log_weight     raw entropy difference S(after) - S(before)
    step_log_prob       the same weight normalized over that step's channels

Raw weights telescope: their sum along any chain equals
S(final) - S(initial) no matter the path, which is the load-bearing
conservation identity everything downstream checks.

Quantization: energy (and optional charge / angular momentum) moves are
integer multiples of user-set quanta. All bookkeeping runs on integer
remaining-quantum counts, and every intermediate state's hairs are derived
directly from the initial state plus those integers, so masses never drift
however long the chain is, and conservation is exact at the quantum level.
Use binary-representable quanta (0.25, 0.0625, ...) when bitwise float
conservation matters as well.

Transition table: the open channels out of a transition state
(r, cq_left, cj_left) depend only on the integer counts, so each state's
channels, raw log-weights, log-probabilities and CDF are built once per
(state, policy) and looked up afterwards. The one sampler, a lockstep walk
over all live chains of an ensemble, and the enumeration oracle read it.

Randomness: each per-sample chain draws from its own stream, numpy's
PCG64(SeedSequence((seed, sample_index))).random() reproduced bit for bit
without numpy.random, so a sample is reproducible on its own and does not
depend on the chains walked beside it. The batch method for very
large energy-only ensembles draws every chain from one
(seed, n_samples)-deterministic stream instead; both are exact samplers of
the same per-step distributions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blackholes import _BLOCK, BlackHoleState, Emission, entropy_drop, hairs_valid, logsumexp
# Not called here; kept importable because perfbench/tracer.py wraps it here.
from .blackholes import entropy_grid  # noqa: F401
from .errors import UsageError, check_int


class Termination(str, Enum):
    EXHAUSTED = "exhausted"    # fully evaporated (stop_mass = 0 reached)
    STOP_MASS = "stop-mass"    # reached a positive stop mass, or stuck at a floor


@dataclass(frozen=True)
class CascadePolicy:
    """Discretization and stopping rules for a cascade.

    stop_mass must be > 0 whenever the state carries alpha != 0: the
    log-corrected entropy diverges as the horizon area goes to zero, so a
    corrected cascade needs a floor. Setting charge_quantum / spin_quantum
    opens charge / angular-momentum channels. A chain takes at most
    (M - stop_mass) / energy_quantum steps; max_steps below that is an error.
    """

    energy_quantum: float
    stop_mass: float = 0.0
    max_steps: int | None = None
    charge_quantum: float | None = None
    spin_quantum: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.energy_quantum) and self.energy_quantum > 0.0):
            raise UsageError("energy_quantum must be a positive finite number")
        if not (math.isfinite(self.stop_mass) and self.stop_mass >= 0.0):
            raise UsageError("stop_mass must be >= 0")
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", check_int("max_steps", self.max_steps, floor=1))
        for name in ("charge_quantum", "spin_quantum"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v != 0.0):
                raise UsageError(f"{name} must be a nonzero finite number when given")

    @property
    def energy_only(self) -> bool:
        return self.charge_quantum is None and self.spin_quantum is None


@dataclass(frozen=True)
class CascadeStep:
    emission: Emission
    state_after: BlackHoleState
    log_weight: float   # raw entropy difference for this step
    log_prob: float     # unit-sum-normalized over the step's open channels


@dataclass(frozen=True)
class EmissionChain:
    """Ordered cascade of emissions with per-step probability bookkeeping."""

    initial: BlackHoleState
    steps: tuple[CascadeStep, ...]
    terminated: Termination
    stuck: bool = False

    @property
    def final_state(self) -> BlackHoleState:
        return self.steps[-1].state_after if self.steps else self.initial

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def is_complete(self) -> bool:
        return not self.stuck

    def total_emission(self) -> Emission:
        return sum((step.emission for step in self.steps), Emission(0.0))


def chain_log_probability(chain: EmissionChain) -> tuple[float, float]:
    """(raw, normalized) chain log-probability: the per-step values added
    left to right, as the walk adds them. (The builtin sum is compensated for
    floats from Python 3.12 on, so its bits depend on the version.)"""
    raw = norm = 0.0
    for step in chain.steps:
        raw += step.log_weight
        norm += step.log_prob
    return float(raw), float(norm)


def _count_quanta(value: float, quantum: float, what: str) -> int:
    ratio = value / quantum
    k = round(ratio)
    if abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)):
        raise UsageError(f"{what} ({value}) is not an integer multiple of the quantum {quantum}")
    return int(k)


# (state, policy) transition tables kept alive at once. Checks that draw random
# chains visit a few hundred pairs; a table holds only the rows its chains reach.
_TABLE_CACHE_SIZE = 1024


@dataclass(frozen=True, eq=False)
class _Row:
    """Open channels out of one transition state, in _build's order."""

    key: tuple[int, int, int]             # the state's (r, cq_left, cj_left)
    hairs: tuple[float, float, float]     # the state's (M, Q, J)
    r2: np.ndarray      # remaining energy / charge / spin quanta after each channel
    cq2: np.ndarray
    cj2: np.ndarray
    m2: np.ndarray      # remnant hairs after each channel
    q2: np.ndarray
    j2: np.ndarray
    logw: np.ndarray    # raw log-weights
    logp: np.ndarray    # the same minus their log-sum-exp: the unit-sum log-probabilities
    cdf: np.ndarray     # unit-sum CDF, last entry pinned to 1.0; empty when stuck


class _TransitionTable(dict):
    """Rows of one (state, policy) cascade keyed by (r, cq_left, cj_left),
    each built on its first lookup, and the cascade's integer ledger: the
    total quanta of each conserved hair, n_quanta, n_charge and n_spin (the
    last two signed). An energy-only table computes the channels of a block
    of consecutive r at once (see _block), so the dict holds exactly the
    rows looked up."""

    def __init__(self, state: BlackHoleState, policy: CascadePolicy) -> None:
        super().__init__()
        self.state = state
        self.policy = policy
        if state.alpha != 0.0 and policy.stop_mass <= 0.0:
            raise UsageError("alpha != 0 requires stop_mass > 0 (entropy diverges at zero area)")
        if policy.stop_mass > state.m:
            raise UsageError("stop_mass exceeds the initial mass")
        n = _count_quanta(state.m - policy.stop_mass, policy.energy_quantum, "M - stop_mass")
        nq = _count_quanta(state.q, policy.charge_quantum, "Q") if policy.charge_quantum else 0
        nj = _count_quanta(state.j, policy.spin_quantum, "J") if policy.spin_quantum else 0
        if policy.max_steps is not None and policy.max_steps < n:
            raise UsageError(f"max_steps={policy.max_steps} < {n} = (M - stop_mass)/energy_quantum")
        channels = n * (abs(nq) + 1) * (abs(nj) + 1)
        if channels > _MAX_CHANNELS:
            raise UsageError(f"{n} energy quanta open {channels} channels, above {_MAX_CHANNELS}")
        self.n_quanta, self.n_charge, self.n_spin = n, nq, nj
        # Rows computed by _build and not yet looked up: key -> (hairs,
        # block arrays, the row's slice of them).
        self._built: dict[tuple[int, int, int], tuple] = {}

    def _hairs_at(self, r, cq_left, cj_left):
        """Canonical hairs at integer remaining counts, anchored at the initial
        state (a single product each, so no cumulative drift along a chain):
        float64 arrays at int arrays of one shape. The endpoints are pinned
        exactly: r = 0 is the stop mass, a fully shed charge or spin is exactly
        zero. A disabled channel leaves its hair untouched."""
        s, p = self.state, self.policy
        m = np.where(r == 0, p.stop_mass, s.m - (self.n_quanta - r) * p.energy_quantum)
        if p.charge_quantum is None:
            q = np.full(r.shape, s.q)
        else:
            q = np.where(cq_left == 0, 0.0, s.q - (self.n_charge - cq_left) * p.charge_quantum)
        if p.spin_quantum is None:
            j = np.full(r.shape, s.j)
        else:
            j = np.where(cj_left == 0, 0.0, s.j - (self.n_spin - cj_left) * p.spin_quantum)
        return m, q, j

    def _block(self, key: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        """The keys whose channels are computed together with key's. In an
        energy-only table, row r holds channels k = 1..r; laid end to end
        from r = 1, the rows whose channels end in the same _BLOCK-channel
        slice as row r's form its block (at most _BLOCK + r channels). Any
        other key is a block of one."""
        r = key[0]
        if not (self.policy.energy_only and 0 < r <= self.n_quanta):
            return [key]
        k = (r * (r + 1) // 2 - 1) // _BLOCK
        lo, hi = (_triangle_root(i * _BLOCK) for i in (k, k + 1))
        return [(x, 0, 0) for x in range(lo + 1, min(hi, self.n_quanta) + 1)]

    def _build(self, keys: list[tuple[int, int, int]]) -> None:
        """The open channels of keys, each move of 1..r energy,
        0..|cq_left| charge and 0..|cj_left| spin quanta out of its key to a
        valid macro-state, laid end to end in one hairs_valid and one
        entropy_drop call; kept in self._built per key until __missing__
        finishes its row. The log-weights of closed channels and of
        overflowing ones are not refused here: a row is refused only when it
        is looked up."""
        state = self.state
        if len(keys) == 1 and (keys[0][1] or keys[0][2]):
            r, cq_left, cj_left = keys[0]
            # Move counts 0..|left| carrying the sign of the remaining quanta.
            moves = (np.arange(abs(left) + 1) * (1 if left >= 0 else -1)
                     for left in (cq_left, cj_left))
            k, cq, cj = map(np.ravel, np.meshgrid(np.arange(1, r + 1), *moves, indexing="ij"))
            r2, cq2, cj2 = r - k, cq_left - cq, cj_left - cj
            owner = np.zeros(r2.size, dtype=np.intp)
        else:  # energy moves only: key i's channels are r2 = r_i - 1, ..., 0
            counts = np.array([key[0] for key in keys])
            ends = np.cumsum(counts)
            owner = np.repeat(np.arange(len(keys)), counts)
            size = int(ends[-1])
            r2 = ends[owner] - 1 - np.arange(size)
            cq2 = cj2 = np.zeros(size, dtype=np.int64)
        # One _hairs_at call: the keys' own hairs, then each channel's remnant.
        counts_at = (np.concatenate((c, x)) for c, x in zip(np.array(keys).T, (r2, cq2, cj2)))
        m, q, j = self._hairs_at(*counts_at)
        n_keys = len(keys)
        channels = [r2, cq2, cj2, m[n_keys:], q[n_keys:], j[n_keys:]]
        ok = hairs_valid(state.family, *channels[3:], state.alpha)
        if not ok.all():
            channels, owner = [x[ok] for x in channels], owner[ok]
        hairs = [tuple(map(float, h)) for h in zip(*(x[:n_keys].tolist() for x in (m, q, j)))]
        # A block of one passes its state's hairs as floats: entropy_drop then
        # computes their terms once, in float arithmetic, to the same bits.
        m1, q1, j1 = hairs[0] if n_keys == 1 else (x[:n_keys][owner] for x in (m, q, j))
        m2, q2, j2 = channels[3:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused per row
            channels.append(entropy_drop(m1, q1, j1, state.alpha, m1 - m2, q1 - q2, j1 - j2))
        for a in channels:
            a.flags.writeable = False  # shared by every caller of the cached table
        bounds = np.searchsorted(owner, np.arange(n_keys + 1)).tolist()
        for key, h, lo, hi in zip(keys, hairs, bounds, bounds[1:]):
            self._built[key] = (h, channels, lo, hi)

    def __missing__(self, key: tuple[int, int, int]) -> _Row:
        """The row of key = (r, cq_left, cj_left), built and cached on its
        first lookup: its channels from _build (none: stuck), computed with
        its block's on the block's first lookup, and their log-sum-exp,
        log-probabilities and CDF. FloatingPointError when an open channel's
        log-weight or the log-sum-exp is not finite."""
        if key not in self._built:
            self._build(self._block(key))
        hairs, block, lo, hi = self._built[key]
        channels = [x[lo:hi] for x in block]
        logw = channels[-1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
            log_z = logsumexp(logw)
            logp = logw - log_z
            cdf = np.cumsum(np.exp(logp))
        if not np.isfinite(logp).all():
            raise FloatingPointError(
                f"the cascade's entropy arithmetic left float64 range at (M, Q, J) = {hairs}: "
                f"log-sum-exp {log_z!r} over {logw.size} open channels"
            )
        if cdf.size:
            cdf[-1] = 1.0
        logp.flags.writeable = cdf.flags.writeable = False
        # The initial row keeps the state's own hairs: _hairs_at pins a zero
        # count's hair to 0.0, which would drop the sign of Q = -0.0 or J = -0.0.
        if key == (self.n_quanta, self.n_charge, self.n_spin):
            hairs = (self.state.m, self.state.q, self.state.j)
        row = self[key] = _Row(key, hairs, *channels, logp, cdf)
        del self._built[key]
        return row


def _triangle_root(x: int) -> int:
    """The largest r >= 0 with r (r + 1) / 2 <= x, for x >= 0."""
    return (math.isqrt(8 * x + 1) - 1) // 2


def _transition_table(state: BlackHoleState, policy: CascadePolicy) -> _TransitionTable:
    """The cached table of (state, policy). States that differ only in the
    sign of a zero hair compare equal, and their initial rows differ, so the
    cache key tells those signs apart as well."""
    return _cached_table(state, policy, math.copysign(1.0, state.q), math.copysign(1.0, state.j))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cached_table(state: BlackHoleState, policy: CascadePolicy, *zero_signs) -> _TransitionTable:
    return _TransitionTable(state, policy)


# ---------------------------------------------------------------------------
# Sampling: one lockstep walk
# ---------------------------------------------------------------------------


def _walk(table: _TransitionTable, n_chains: int, draw, on_step=None):
    """Walk n_chains chains from the table's initial state; round t takes
    step t of every live chain, grouped by transition state in ascending
    order. draw(t, idx) gives group idx its uniforms and on_step(t, idx,
    row, pick) sees its step; a stuck group draws nothing. Returns per-chain
    lengths, first moves in quanta (where the length is > 0), raw and
    normalized log-probabilities (summed in step order) and stuck flags."""
    n, n_charge, n_spin = table.n_quanta, table.n_charge, table.n_spin
    r, cq, cj = np.array([[n], [n_charge], [n_spin]]).repeat(n_chains, 1)
    lengths, first_k = np.zeros(n_chains, dtype=np.int64), np.zeros(n_chains, dtype=np.int64)
    raw, norm, stuck = np.zeros(n_chains), np.zeros(n_chains), np.zeros(n_chains, dtype=bool)
    charged = not table.policy.energy_only
    # Counts lie between 0 and their initial values: keys ascend with (r, cq_left, cj_left).
    span_q, span_j = 2 * abs(n_charge) + 1, 2 * abs(n_spin) + 1
    live, t = np.flatnonzero(r), 0
    while live.size:
        groups = (live,)
        if live.size > 1:  # slices of the live chains sorted by key, cut where the key changes
            key = (r[live] * span_q + cq[live]) * span_j + cj[live]
            order = np.argsort(key, kind="stable")
            ordered, cuts = live[order], (np.flatnonzero(np.diff(key[order])) + 1).tolist()
            groups = (ordered[a:b] for a, b in zip([0, *cuts], [*cuts, live.size]))
        for idx in groups:
            c = idx[0]
            row = table[int(r[c]), int(cq[c]), int(cj[c])]
            if row.cdf.size == 0:
                stuck[idx], r[idx] = True, 0  # r = 0 ends the chain
                continue
            # The uniforms are < 1.0 = cdf[-1], so every pick is a channel.
            pick = row.cdf.searchsorted(draw(t, idx), side="right")
            raw[idx] += row.logw[pick]
            norm[idx] += row.logp[pick]
            r[idx] = row.r2[pick]
            if charged:
                cq[idx], cj[idx] = row.cq2[pick], row.cj2[pick]
            lengths[idx] = t + 1
            if on_step is not None:
                on_step(t, idx, row, pick)
        if t == 0:
            first_k = n - r
        live, t = live[r[live] > 0], t + 1
    return lengths, first_k, raw, norm, stuck


def _per_sample_draw(seed: int, sample_indices, n_steps: int):
    """draw for _walk: value t of the (seed, sample_indices[c]) stream at step t
    of chain c. Each stream's first n_steps values, one per step a chain can
    take, are drawn up front, in blocks of about _DRAW_BLOCK_STEPS values; the
    values a chain does not reach are drawn from its own stream only."""
    seed_words = _uint32_words(seed)
    starts = [_pcg64_start(seed_words + _uint32_words(i)) for i in sample_indices]
    uniforms = np.empty((len(starts), n_steps))
    block = max(1, _DRAW_BLOCK_STEPS // max(1, n_steps))
    for first in range(0, len(starts), block):
        uniforms[first:first + block] = _pcg64_doubles(starts[first:first + block], n_steps)
    return lambda t, idx: uniforms[idx, t]


# ---------------------------------------------------------------------------
# The per-sample stream: numpy's PCG64(SeedSequence((seed, i))).random(),
# reproduced bit for bit without numpy.random
# ---------------------------------------------------------------------------

# Values one block of _per_sample_draw computes at once: its temporaries are
# about a dozen uint64 arrays of twice this size.
_DRAW_BLOCK_STEPS = 1 << 13

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_POOL_SIZE = 4  # SeedSequence's pool, in uint32 words
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_pairs(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The constants of SeedSequence's first n hashes, which do not depend on
    the data: hash k xors in constant k and multiplies by constant k + 1."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _M32)
    return list(zip(consts, consts[1:]))


_STATE_PAIRS = _hash_pairs(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)  # generate_state(4, uint64)


@functools.lru_cache(maxsize=None)
def _mix_steps(n_words: int) -> tuple[list, list]:
    """mix_entropy on n_words >= _POOL_SIZE words: the constants (c, d) that
    hash each pool word, then the steps (src, dst, c, d) that hash entry src
    with (c, d) and mix it into pool word dst. The entries past the pool are
    the entropy words past it, which no step changes."""
    pairs = _hash_pairs(0x43B0D7E5, 0x931E8875, _POOL_SIZE * n_words)
    order = [(src, dst) for src in range(n_words) for dst in range(_POOL_SIZE) if src != dst]
    return pairs[:_POOL_SIZE], [(*o, *p) for o, p in zip(order, pairs[_POOL_SIZE:])]


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, least significant
    first; [0] for 0."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pcg64_start(words: list[int]) -> tuple[int, int, int, int]:
    """PCG64(SeedSequence(entropy)), the entropy's uint32 words being words:
    the low 64-bit words of its state and its increment, then their high
    words. SeedSequence's mix_entropy and generate_state(4, uint64), then
    PCG64's srandom, in Python ints."""
    pool = words + [0] * (_POOL_SIZE - len(words))
    first, steps = _mix_steps(len(pool))
    m32, mix_l, mix_r = _M32, _MIX_MULT_L, _MIX_MULT_R  # locals: ~10% of the call
    for k, (c, d) in enumerate(first):
        value = (pool[k] ^ c) * d & m32
        pool[k] = value ^ value >> 16
    for src, dst, c, d in steps:
        value = (pool[src] ^ c) * d & m32
        value = (mix_l * pool[dst] - mix_r * (value ^ value >> 16)) & m32
        pool[dst] = value ^ value >> 16
    # generate_state(4, uint64): uint64 word k is hashes 2k (low) and 2k + 1.
    w = []
    for k in range(0, 2 * _POOL_SIZE, 2):
        (c0, d0), (c1, d1) = _STATE_PAIRS[k:k + 2]
        lo = (pool[k % _POOL_SIZE] ^ c0) * d0 & m32
        hi = (pool[(k + 1) % _POOL_SIZE] ^ c1) * d1 & m32
        w.append((lo ^ lo >> 16) | (hi ^ hi >> 16) << 32)
    # The seed is words (0, 1) and the stream words (2, 3), high word first.
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    s = ((inc + (w[0] << 64 | w[1])) * _PCG64_MULT + inc) & _M128
    return s & _M64, inc & _M64, s >> 64, inc >> 64


# uint64 scalars: a Python int operand costs a conversion on every array operation.
_U1, _U11, _U32, _U58, _U63 = map(np.uint64, (1, 11, 32, 58, 63))
_LOW32 = np.uint64(_M32)


@functools.lru_cache(maxsize=64)
def _jump_ahead(n_steps: int) -> np.ndarray:
    """The state after t + 1 steps is A_t s + C_t inc mod 2^128, with
    A_t = MULT^(t+1) and C_t = MULT^0 + ... + MULT^t: (A_t, C_t) for
    t < n_steps as four (2, 1, n_steps) arrays, of their low and high 64-bit
    words and of the low words' low and high 32-bit halves."""
    a, c, jumps = 1, 0, []
    for _ in range(n_steps):
        c = (c + a) & _M128
        a = a * _PCG64_MULT & _M128
        jumps += [a & _M64, c & _M64, a >> 64, c >> 64]
    lo, hi = np.array(jumps, dtype=np.uint64).reshape(-1, 2, 2).transpose(1, 2, 0)
    out = np.stack([lo, hi, lo & _LOW32, lo >> _U32])[:, :, None, :]  # contiguous: faster
    out.flags.writeable = False
    return out


def _pcg64_doubles(starts: list[tuple[int, int, int, int]], n_steps: int) -> np.ndarray:
    """The first n_steps values of PCG64's random() from each start of
    _pcg64_start, as a (len(starts), n_steps) array: every state by
    jump-ahead, in one uint64 pass over (chain, step), then XSL-RR output and
    next_double. Array arithmetic wraps mod 2^64 silently, as the C code does."""
    x0, x1, a0, a1 = _jump_ahead(n_steps)
    y0, y1 = np.array(list(zip(*starts)), dtype=np.uint64).reshape(2, 2, -1, 1)  # (s, inc)
    b0, b1 = y0 & _LOW32, y0 >> _U32
    # Both products A_t s and C_t inc mod 2^128 at once, as (2, chains, steps)
    # arrays. The carry of x0 y0 into the high word comes from 32-bit limbs
    # (Hacker's Delight's mulhu), whose sums stay below 2^64.
    low = a0 * b0
    mid = a1 * b0 + (low >> _U32)
    cross = a0 * b1 + (mid & _LOW32)
    hi = a1 * b1 + (mid >> _U32) + (cross >> _U32) + x0 * y1 + x1 * y0
    lo = x0 * y0
    # The carry out of lo[0] + lo[1] is the top bit of their halved sum: a
    # uint64 comparison would page in its own code, ~0.1 MB of a verify run's
    # peak RSS.
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1]
    state_hi += ((lo[0] >> _U1) + (lo[1] >> _U1) + (lo[0] & lo[1] & _U1)) >> _U63
    # XSL-RR: the xor of the halves rotated right by rot, their top 6 bits.
    # The left shift by 64 - rot goes as 1, then 63 - rot: no count reaches 64.
    x, rot = state_hi ^ state_lo, state_hi >> _U58
    x = (x >> rot) | ((x << _U1) << (rot ^ _U63))
    return (x >> _U11) * 2.0 ** -53


class _Steps:
    """on_step for _walk that records step t of chain c as channel[c, t], -1
    past the chain's end: an index into the channels of the rows reached,
    laid end to end in the order the walk first reaches them."""

    def __init__(self, n_chains: int, n_steps: int) -> None:
        self.channel = np.full((n_chains, n_steps), -1, dtype=np.int64)
        self.first: dict[_Row, int] = {}  # each row's first channel
        self.size = 0

    def __call__(self, t: int, idx: np.ndarray, row: _Row, pick: np.ndarray) -> None:
        if row not in self.first:
            self.first[row], self.size = self.size, self.size + row.r2.size
        self.channel[idx, t] = self.first[row] + pick

    def columns(self, first: int) -> dict:
        """The chains.jsonl steps, chain c being sample first + c:
        "sample_index", "step" and "channel" per step, and "cells", the float
        cells of a row per channel. Each cell is a function of the channel:
        the emitted hairs are its state's hairs less its remnant's."""
        cells = {"j": [], "log_prob_norm": [], "log_weight_raw": [], "mass_before": [],
                 "omega": [], "q": []}
        for row in self.first:
            m, q, j = row.hairs
            cells["mass_before"].append(np.full(row.m2.size, m))
            cells["omega"].append(m - row.m2)
            cells["q"].append(q - row.q2)
            cells["j"].append(j - row.j2)
            cells["log_weight_raw"].append(row.logw)
            cells["log_prob_norm"].append(row.logp)
        taken = self.channel >= 0
        chain, step = np.nonzero(taken)  # row-major: by chain, then step
        return {"sample_index": chain + first, "step": step, "channel": self.channel[taken],
                "cells": {k: np.concatenate(v or [[]]) for k, v in cells.items()}}

    def census(self, policy: CascadePolicy, stuck) -> dict[tuple, int]:
        """Identity counts (see chain_identity) of unstuck chains, first seen first."""
        moves = []  # each channel's move in quanta: its state's counts less its remnant's
        for row in self.first:
            r, cq, cj = row.key
            k = (r - row.r2).tolist()
            moves += k if policy.energy_only else zip(k, (cq - row.cq2).tolist(),
                                                      (cj - row.cj2).tolist())
        census: dict[tuple, int] = {}
        for channels in self.channel[~stuck].tolist():
            ident = tuple(moves[c] for c in channels if c >= 0)
            census[ident] = census.get(ident, 0) + 1
        return census


def _step(state: BlackHoleState, before: BlackHoleState, row: _Row, i: int) -> CascadeStep:
    """Channel i of row, taken from before, a state of the cascade of state."""
    after = state.with_hairs(float(row.m2[i]), float(row.q2[i]), float(row.j2[i]))
    emission = Emission(before.m - after.m, before.q - after.q, before.j - after.j)
    return CascadeStep(emission, after, float(row.logw[i]), float(row.logp[i]))


def sample_cascade(
    state: BlackHoleState, policy: CascadePolicy, seed: int, sample_index: int = 0
) -> EmissionChain:
    """Sample one complete evaporation chain.

    Deterministic for fixed (seed, sample_index): it is the lockstep walk of
    one chain on the (seed, sample_index) stream, so it is sample
    sample_index of every per-sample ensemble with that seed.
    """
    seed, sample_index = check_int("seed", seed), check_int("sample_index", sample_index)
    table = _transition_table(state, policy)
    steps: list[CascadeStep] = []

    def take(t, idx, row, pick):
        steps.append(_step(state, steps[-1].state_after if steps else state, row, int(pick[0])))

    draw = _per_sample_draw(seed, [sample_index], table.n_quanta)
    stuck = bool(_walk(table, 1, draw, take)[4][0])
    terminated = Termination.STOP_MASS if stuck else _terminal(policy)
    return EmissionChain(state, tuple(steps), terminated, stuck)


def chain_identity(chain: EmissionChain, policy: CascadePolicy) -> tuple:
    """Hashable chain identity: the per-step integer moves."""
    ident = []
    for step in chain.steps:
        k = round(step.emission.omega / policy.energy_quantum)
        cq = round(step.emission.q / policy.charge_quantum) if policy.charge_quantum else 0
        cj = round(step.emission.j / policy.spin_quantum) if policy.spin_quantum else 0
        ident.append((k, cq, cj) if not policy.energy_only else k)
    return tuple(ident)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (brute-force oracle)
# ---------------------------------------------------------------------------


# Largest quantum count with an identity census: enumeration lists all
# 2^(n-1) compositions, and ensembles count chain identities, only up to it.
_CENSUS_MAX_QUANTA = 20

# Most channels out of a cascade's initial state. A table can reach about
# (that count)^2 / 2 channels at 72 bytes each: under 0.6 GB at this cap.
_MAX_CHANNELS = 1 << 12


def enumerate_chains(
    state: BlackHoleState, policy: CascadePolicy
) -> list[tuple[EmissionChain, float, float]]:
    """Enumerate every energy-only chain with its (raw, normalized) log-prob.

    Exhaustive over ordered compositions of the quantum count n, so it is
    capped at n <= 20 (2^(n-1) chains for a fully open channel set). Charge
    and spin moves are not enumerated.
    """
    if not policy.energy_only:
        raise UsageError("enumeration covers energy-only cascades")
    table = _transition_table(state, policy)
    n = table.n_quanta
    if n > _CENSUS_MAX_QUANTA:
        raise UsageError(f"enumeration capped at {_CENSUS_MAX_QUANTA} quanta, got {n}")
    results: list[tuple[EmissionChain, float, float]] = []

    def walk(current: BlackHoleState, r: int, steps: tuple, raw: float, norm: float):
        if r == 0:
            results.append((EmissionChain(state, steps, _terminal(policy)), raw, norm))
            return
        row = table[r, 0, 0]
        for i in range(row.r2.size):
            step = _step(state, current, row, i)
            walk(step.state_after, int(row.r2[i]), (*steps, step), raw + step.log_weight,
                 norm + step.log_prob)

    walk(state, n, (), 0.0, 0.0)
    return results


def _terminal(policy: CascadePolicy) -> Termination:
    return Termination.EXHAUSTED if policy.stop_mass == 0.0 else Termination.STOP_MASS


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CascadeEnsembleStats:
    """Summary of a sampled cascade ensemble."""

    n_samples: int
    seed: int
    method: str
    lengths: np.ndarray
    first_emission_counts: dict[int, int]
    identity_counts: dict[tuple, int] | None
    identity_entropy: float | None
    mean_raw_log_prob: float
    mean_norm_log_prob: float
    n_stuck: int
    terminated_counts: dict[str, int]

    def length_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.lengths, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "method": self.method,
            "mean_length": float(np.mean(self.lengths)) if self.lengths.size else 0.0,
            "length_counts": {str(k): v for k, v in sorted(self.length_counts().items())},
            "first_emission_counts": {
                str(k): v for k, v in sorted(self.first_emission_counts.items())
            },
            "identity_entropy": self.identity_entropy,
            "n_distinct_identities": (
                len(self.identity_counts) if self.identity_counts is not None else None
            ),
            "mean_raw_log_prob": self.mean_raw_log_prob,
            "mean_norm_log_prob": self.mean_norm_log_prob,
            "n_stuck": self.n_stuck,
            "terminated_counts": dict(sorted(self.terminated_counts.items())),
        }


def _composition(cuts: int, n: int) -> tuple[int, ...]:
    """Parts of n between the set bits of a cut mask; () when n is 0."""
    bounds = [0] + [b for b in range(1, n) if cuts >> b & 1] + [n]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]) if hi > lo)


def _ensemble_stats(n_samples, seed, method, lengths, first_k, raw_tot, norm_tot, stuck,
                    identity_counts, terminated_counts) -> CascadeEnsembleStats:
    """The one summary of an ensemble, from per-sample arrays (lengths, first
    move in quanta, raw and normalized chain log-probs, stuck flags) plus the
    identity census and termination counts. first_k is ignored where lengths
    is 0."""
    first_counts = {
        int(k): int(c) for k, c in zip(*np.unique(first_k[lengths > 0], return_counts=True))
    }
    identity_entropy = None
    if identity_counts:
        freqs = np.array(list(identity_counts.values()), dtype=np.float64) / n_samples
        identity_entropy = float(0.0 - np.sum(freqs * np.log(freqs)))  # 0.0, not -0.0
    return CascadeEnsembleStats(
        n_samples=n_samples, seed=seed, method=method, lengths=lengths,
        first_emission_counts=first_counts, identity_counts=identity_counts,
        identity_entropy=identity_entropy, mean_raw_log_prob=float(np.mean(raw_tot)),
        mean_norm_log_prob=float(np.mean(norm_tot)), n_stuck=int(np.count_nonzero(stuck)),
        terminated_counts=terminated_counts,
    )


# Steps one chunk of a per-sample walk holds at most: a chunk walks
# max(1, _CHUNK_STEPS // n_quanta) samples, and no chain takes more than
# n_quanta steps. At 64 quanta that is 1024 samples; much smaller chunks walk slower.
_CHUNK_STEPS = 1 << 16


def _ensemble_table(state, policy, n_samples: int, seed: int):
    """The transition table of an ensemble, n_samples and seed as ints, after
    their checks: every usage error a per-sample ensemble walk can raise is
    raised here, before it starts."""
    n_samples, seed = check_int("n_samples", n_samples, 1), check_int("seed", seed)
    return _transition_table(state, policy), n_samples, seed


def cascade_ensemble_stats(
    state: BlackHoleState,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "per-sample",
    on_chunk=None,
) -> CascadeEnsembleStats:
    """Sample an ensemble of cascades and summarize it.

    method "per-sample" draws each chain from its own (seed, index) stream,
    so sample i is sample_cascade(..., seed, i); "batch" draws every chain
    from one (seed, n_samples) stream, for energy-only cascades only. Both
    are the one lockstep walk.

    The per-sample walk goes in chunks of consecutive samples (see
    _CHUNK_STEPS), and on_chunk, when given, gets each chunk's steps as
    chains.jsonl rows (see _Steps.columns), by sample, then step, as soon as
    the chunk is walked; only the per-chain arrays and the census outlive a
    chunk. The batch walk shares one stream, so it takes no on_chunk.

    The census order fixes how identity_entropy is summed, so it is output:
    per-sample identities first seen first, batch ones fewest parts first,
    then lexicographically. A batch identity is kept as a cut mask, with bit
    b set when a step leaves n - b quanta.
    """
    if method not in ("batch", "per-sample"):
        raise UsageError(f"unknown method {method!r}; choose batch or per-sample")
    batch = method == "batch"
    if batch and not policy.energy_only:
        raise UsageError("batch sampling covers energy-only cascades")
    if batch and on_chunk is not None:
        raise UsageError("batch sampling walks one stream: it has no chunks to hand over")
    table, n_samples, seed = _ensemble_table(state, policy, n_samples, seed)
    n = table.n_quanta
    census = n <= _CENSUS_MAX_QUANTA
    identity_counts = None
    if batch:
        rng = np.random.default_rng(np.random.SeedSequence((seed, n_samples)))
        cuts = np.zeros(n_samples, dtype=np.int64)

        def cut(t, idx, row, pick):  # bit n, set by a chain's last step, is not a cut
            cuts[idx] |= np.left_shift(1, n - row.r2[pick])

        walked = _walk(table, n_samples, lambda t, idx: rng.random(idx.size),
                       cut if census else None)
        if census:
            masks, counts = np.unique(cuts[~walked[4]], return_counts=True)
            found = {_composition(m, n): c for m, c in zip(masks.tolist(), counts.tolist())}
            identity_counts = dict(sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])))
    else:
        walked = (np.zeros(n_samples, dtype=np.int64), np.zeros(n_samples, dtype=np.int64),
                  np.zeros(n_samples), np.zeros(n_samples), np.zeros(n_samples, dtype=bool))
        identity_counts = {} if census else None
        size = max(1, _CHUNK_STEPS // max(1, n))
        for first in range(0, n_samples, size):
            last = min(first + size, n_samples)
            draw = _per_sample_draw(seed, range(first, last), n)
            # After the draw, whose temporaries are then freed: a lower peak.
            steps = _Steps(last - first, n) if census or on_chunk is not None else None
            chunk = _walk(table, last - first, draw, steps)
            for whole, part in zip(walked, chunk):
                whole[first:last] = part
            if steps is None:
                continue
            if census:  # chunks come in sample order, so this keeps first seen first
                for ident, count in steps.census(policy, chunk[4]).items():
                    identity_counts[ident] = identity_counts.get(ident, 0) + count
            if on_chunk is not None:
                columns, steps = steps.columns(first), None  # drop the step record first
                on_chunk(columns)
    n_stuck = int(np.count_nonzero(walked[4]))
    # A stuck chain ends at a floor, as a stop-mass chain. Only the batch
    # summary lists its terminal ending when no chain has it.
    end, stop = _terminal(policy).value, Termination.STOP_MASS.value
    term_counts = {end: n_samples - n_stuck, stop: n_stuck} if end != stop else {end: n_samples}
    term_counts = {k: v for k, v in term_counts.items() if v or (batch and k == end)}
    return _ensemble_stats(n_samples, seed, method, *walked, identity_counts, term_counts)


def ensemble_stats_from_chains(
    chains,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "per-sample",
) -> CascadeEnsembleStats:
    """Aggregate an iterable of already-sampled chains, n_samples of them,
    into ensemble stats."""
    n_samples = check_int("n_samples", n_samples, 1)
    chains = list(chains)
    if len(chains) != n_samples:
        raise UsageError(f"{len(chains)} chains given for n_samples={n_samples}")
    identity_counts: dict[tuple, int] | None = {}
    lengths, first_k = np.zeros(n_samples, dtype=np.int64), np.zeros(n_samples, dtype=np.int64)
    raw_tot, norm_tot, stuck = np.zeros(n_samples), np.zeros(n_samples), np.zeros(n_samples, bool)
    term_counts: dict[str, int] = {}
    for i, chain in enumerate(chains):
        if i == 0 and _TransitionTable(chain.initial, policy).n_quanta > _CENSUS_MAX_QUANTA:
            identity_counts = None
        lengths[i] = chain.n_steps
        raw_tot[i], norm_tot[i] = chain_log_probability(chain)
        if chain.steps:
            first_k[i] = round(chain.steps[0].emission.omega / policy.energy_quantum)
        if identity_counts is not None and not chain.stuck:
            ident = chain_identity(chain, policy)
            identity_counts[ident] = identity_counts.get(ident, 0) + 1
        stuck[i] = chain.stuck
        term_counts[chain.terminated.value] = term_counts.get(chain.terminated.value, 0) + 1
    return _ensemble_stats(
        n_samples, seed, method, lengths, first_k, raw_tot, norm_tot, stuck,
        identity_counts, term_counts,
    )
