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
(state, policy), as Python floats, and looked up afterwards. The samplers
and the enumeration oracle read it.

Randomness: each per-sample chain draws from its own stream, numpy's
PCG64(SeedSequence((seed, sample_index))).random() reproduced bit for bit in
Python ints, so a sample is reproducible on its own and does not depend on
the chains walked beside it. Each such chain is walked alone, in Python ints
and floats, so a per-sample ensemble loads no numpy. The batch method for very large energy-only ensembles walks every
chain in lockstep on one (seed, n_samples)-deterministic numpy stream
instead; both are exact samplers of the same per-step distributions.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .blackholes import (BlackHoleState, Emission, _pairwise_sum, entropy_drop, hairs_valid,
                         logsumexp)
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


@dataclass(frozen=True, eq=False, slots=True)
class _Row:
    """Open channels out of one transition state, as tuples of Python ints
    and floats, channel by channel in the order __missing__ builds them."""

    key: tuple[int, int, int]             # the state's (r, cq_left, cj_left)
    hairs: tuple[float, float, float]     # the state's (M, Q, J)
    after: tuple    # the remnant's key after each channel
    m2: tuple       # remnant hairs after each channel
    q2: tuple
    j2: tuple
    logw: tuple     # raw log-weights
    logp: tuple     # the same minus their log-sum-exp: the unit-sum log-probabilities
    cdf: tuple      # unit-sum CDF, last entry pinned to 1.0; empty when stuck


class _TransitionTable(dict):
    """Rows of one (state, policy) cascade keyed by (r, cq_left, cj_left),
    each built on its first lookup, so the dict holds exactly the rows looked
    up; and the cascade's integer ledger: the total quanta of each conserved
    hair, n_quanta, n_charge and n_spin (the last two signed)."""

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
        # The canonical hairs at each remaining count, anchored at the initial
        # state (one product each, so no cumulative drift along a chain). A
        # count lies between 0 and its initial value, so |count| indexes it.
        # The endpoints are pinned: r = 0 is the stop mass, a fully shed
        # charge or spin is exactly zero; a disabled channel keeps its hair.
        self._m = _anchored(state.m, n, policy.energy_quantum, policy.stop_mass)
        self._q, self._j = ([hair] if quantum is None else _anchored(hair, total, quantum)
                            for hair, total, quantum in ((state.q, nq, policy.charge_quantum),
                                                         (state.j, nj, policy.spin_quantum)))

    def __missing__(self, key: tuple[int, int, int]) -> _Row:
        """The row of key = (r, cq_left, cj_left), built and cached on its
        first lookup: each move of 1..r energy, 0..|cq_left| charge and
        0..|cj_left| spin quanta out of key to a valid macro-state, with its
        raw log-weight from entropy_drop on floats; then their log-sum-exp,
        log-probabilities and CDF; none open is a stuck state. FloatingPointError
        when an open channel's log-weight or the log-sum-exp is not finite."""
        r, cq_left, cj_left = key
        state = self.state
        family, alpha = state.family, state.alpha
        # The initial row keeps the state's own hairs: the pinned zero of a
        # zero count would drop the sign of Q = -0.0 or J = -0.0.
        if key == (self.n_quanta, self.n_charge, self.n_spin):
            hairs = (state.m, state.q, state.j)
        else:
            hairs = (self._m[r], self._q[abs(cq_left)], self._j[abs(cj_left)])
        m, q, j = hairs
        # Remaining counts after a move of 0, 1, ... quanta: left, ..., 0.
        charges, spins = (range(left, -1, -1) if left >= 0 else range(left, 1)
                          for left in (cq_left, cj_left))
        after, m2s, q2s, j2s, logw = [], [], [], [], []
        for r2 in range(r - 1, -1, -1):
            m2 = self._m[r2]
            for cq2 in charges:
                q2 = self._q[abs(cq2)]
                for cj2 in spins:
                    j2 = self._j[abs(cj2)]
                    if not hairs_valid(family, m2, q2, j2, alpha):
                        continue
                    try:
                        w = entropy_drop(m, q, j, alpha, m - m2, q - q2, j - j2)
                    except (ArithmeticError, ValueError):  # where numpy gives inf or nan
                        w = math.nan
                    after.append((r2, cq2, cj2))
                    m2s.append(m2)
                    q2s.append(q2)
                    j2s.append(j2)
                    logw.append(w)
        log_z = logsumexp(logw)
        logp = [w - log_z for w in logw]
        if not all(map(math.isfinite, logp)):
            raise FloatingPointError(
                f"the cascade's entropy arithmetic left float64 range at (M, Q, J) = {hairs}: "
                f"log-sum-exp {log_z!r} over {len(logw)} open channels"
            )
        cdf = list(accumulate(map(math.exp, logp)))
        if cdf:
            cdf[-1] = 1.0
        row = self[key] = _Row(key, hairs, *map(tuple, (after, m2s, q2s, j2s, logw, logp, cdf)))
        return row


def _anchored(hair: float, total: int, quantum: float, end: float = 0.0) -> list[float]:
    """The hair at each count of quanta left, from 0 to total (signed),
    indexed by |count|: end at 0, else hair less the quanta shed."""
    sign = -1 if total < 0 else 1
    return [end] + [hair - (total - sign * a) * quantum for a in range(1, abs(total) + 1)]


def _transition_table(state: BlackHoleState, policy: CascadePolicy) -> _TransitionTable:
    """The cached table of (state, policy). States that differ only in the
    sign of a zero hair compare equal, and their initial rows differ, so the
    cache key tells those signs apart as well."""
    return _cached_table(state, policy, math.copysign(1.0, state.q), math.copysign(1.0, state.j))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cached_table(state: BlackHoleState, policy: CascadePolicy, *zero_signs) -> _TransitionTable:
    return _TransitionTable(state, policy)


# ---------------------------------------------------------------------------
# Sampling: one chain at a time on its own stream; the batch walk
# ---------------------------------------------------------------------------


def _chain(table: _TransitionTable, s: int, inc: int):
    """Walk one chain from the table's initial state on the PCG64 stream of
    state s and increment inc (see _pcg64_start): at each step one 128-bit
    LCG step, its XSL-RR output as a double in [0, 1) (PCG64's random()),
    and the channel the row's CDF puts it in; a stuck row draws nothing.
    Returns the steps as (row, channel) pairs, the raw and normalized
    log-probabilities summed in step order, and whether the chain got stuck."""
    mult, m64, m128 = _PCG64_MULT, _M64, _M128  # locals: read at every step
    key = (table.n_quanta, table.n_charge, table.n_spin)
    steps, raw, norm = [], 0.0, 0.0
    while key[0]:
        row = table[key]
        cdf = row.cdf
        if not cdf:
            return steps, raw, norm, True
        s = (s * mult + inc) & m128
        # XSL-RR: the xor of the state's halves, rotated right by its top 6
        # bits; random() keeps the top 53 bits of that.
        x = ((s >> 64) ^ s) & m64
        c = bisect_right(cdf, (((x | x << 64) >> (s >> 122) & m64) >> 11) * 2.0**-53)
        raw += row.logw[c]  # the uniform is < 1.0 = cdf[-1]: c is a channel
        norm += row.logp[c]
        steps.append((row, c))
        key = row.after[c]
    return steps, raw, norm, False


# ---------------------------------------------------------------------------
# The per-sample stream: numpy's PCG64(SeedSequence((seed, i))).random(),
# reproduced bit for bit in Python ints
# ---------------------------------------------------------------------------

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


def _pcg64_start(words: list[int]) -> tuple[int, int]:
    """PCG64(SeedSequence(entropy)), the entropy's uint32 words being words:
    its 128-bit state and increment. SeedSequence's mix_entropy and
    generate_state(4, uint64), then PCG64's srandom, in Python ints."""
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
    return ((inc + (w[0] << 64 | w[1])) * _PCG64_MULT + inc) & _M128, inc


def _walk(table: _TransitionTable, n_chains: int, rng, census: bool):
    """The batch walk: n_chains energy-only chains from the table's initial
    state, all drawing from rng, a numpy Generator. Round t takes step t of
    every live chain, grouped by r in ascending order, each group drawing its
    uniforms in one call; a stuck group draws nothing. The rows are read as
    arrays made once per row in the call. Returns per-chain lengths, first
    moves in quanta (where the length is > 0), raw and normalized
    log-probabilities (summed in step order), stuck flags and, with census,
    cut masks: bit b set when a step leaves n - b quanta (bit n, set by the
    last step, is not a cut)."""
    import numpy as np

    n = table.n_quanta
    r = np.full(n_chains, n)
    lengths, first_k = np.zeros(n_chains, dtype=np.int64), np.zeros(n_chains, dtype=np.int64)
    raw, norm, stuck = np.zeros(n_chains), np.zeros(n_chains), np.zeros(n_chains, dtype=bool)
    cuts = np.zeros(n_chains, dtype=np.int64)
    arrays: dict[int, tuple] = {}  # r -> the row's cdf, logw, logp and remnant r
    live, t = np.flatnonzero(r), 0
    while live.size:
        groups = (live,)
        if live.size > 1:  # slices of the live chains sorted by r, cut where r changes
            order = np.argsort(r[live], kind="stable")
            ordered = live[order]
            cut_at = (np.flatnonzero(np.diff(r[ordered])) + 1).tolist()
            groups = (ordered[a:b] for a, b in zip([0, *cut_at], [*cut_at, live.size]))
        for idx in groups:
            key = int(r[idx[0]])
            if key not in arrays:
                row = table[key, 0, 0]
                arrays[key] = tuple(map(np.array, (row.cdf, row.logw, row.logp,
                                                   [a[0] for a in row.after])))
            cdf, logw, logp, r2 = arrays[key]
            if cdf.size == 0:
                stuck[idx], r[idx] = True, 0  # r = 0 ends the chain
                continue
            pick = cdf.searchsorted(rng.random(idx.size), side="right")
            raw[idx] += logw[pick]
            norm[idx] += logp[pick]
            r[idx] = r2[pick]
            lengths[idx] = t + 1
            if census:
                cuts[idx] |= np.left_shift(1, n - r[idx])
        if t == 0:
            first_k = n - r
        live, t = live[r[live] > 0], t + 1
    return lengths, first_k, raw, norm, stuck, cuts


def _step(state: BlackHoleState, before: BlackHoleState, row: _Row, i: int) -> CascadeStep:
    """Channel i of row, taken from before, a state of the cascade of state."""
    after = state.with_hairs(row.m2[i], row.q2[i], row.j2[i])
    emission = Emission(before.m - after.m, before.q - after.q, before.j - after.j)
    return CascadeStep(emission, after, row.logw[i], row.logp[i])


def sample_cascade(
    state: BlackHoleState, policy: CascadePolicy, seed: int, sample_index: int = 0
) -> EmissionChain:
    """Sample one complete evaporation chain.

    Deterministic for fixed (seed, sample_index): it is the walk of one chain
    on the (seed, sample_index) stream, so it is sample sample_index of every
    per-sample ensemble with that seed.
    """
    seed, sample_index = check_int("seed", seed), check_int("sample_index", sample_index)
    table = _transition_table(state, policy)
    walked, _, _, stuck = _chain(table, *_pcg64_start(_uint32_words(seed)
                                                      + _uint32_words(sample_index)))
    steps: list[CascadeStep] = []
    for row, c in walked:
        steps.append(_step(state, steps[-1].state_after if steps else state, row, c))
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
        for i, (r2, _, _) in enumerate(row.after):
            step = _step(state, current, row, i)
            walk(step.state_after, r2, (*steps, step), raw + step.log_weight, norm + step.log_prob)

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
    length_counts: dict[int, int]
    first_emission_counts: dict[int, int]
    identity_counts: dict[tuple, int] | None
    identity_entropy: float | None
    mean_raw_log_prob: float
    mean_norm_log_prob: float
    n_stuck: int
    terminated_counts: dict[str, int]

    def to_json_dict(self) -> dict:
        steps = sum(k * c for k, c in self.length_counts.items())
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "method": self.method,
            "mean_length": steps / self.n_samples,
            "length_counts": {str(k): v for k, v in sorted(self.length_counts.items())},
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


def _ensemble_stats(n_samples, seed, method, length_counts, first_counts, raw_sum, norm_sum,
                    n_stuck, identity_counts, terminated_counts) -> CascadeEnsembleStats:
    """The one summary of an ensemble, from its tallies: chain lengths and
    first moves in quanta (of chains with a step) with their counts, the
    raw and normalized chain log-probs summed in numpy's pairwise order over
    the samples in order, the stuck chains' count, the identity census and
    the termination counts."""
    identity_entropy = None
    if identity_counts:
        freqs = [c / n_samples for c in identity_counts.values()]
        identity_entropy = 0.0 - _pairwise_sum([f * math.log(f) for f in freqs])  # 0.0, not -0.0
    return CascadeEnsembleStats(
        n_samples=n_samples, seed=seed, method=method,
        length_counts=dict(sorted(length_counts.items())),
        first_emission_counts=dict(sorted(first_counts.items())), identity_counts=identity_counts,
        identity_entropy=identity_entropy, mean_raw_log_prob=raw_sum / n_samples,
        mean_norm_log_prob=norm_sum / n_samples, n_stuck=n_stuck,
        terminated_counts=terminated_counts,
    )


class _Tally:
    """The tallies of _ensemble_stats, added chain by chain."""

    def __init__(self) -> None:
        self.lengths, self.first = Counter(), Counter()
        self.raw, self.norm, self.n_stuck = [], [], 0

    def add(self, length: int, first_k: int, raw: float, norm: float, stuck: bool) -> None:
        self.lengths[length] += 1
        if length:
            self.first[first_k] += 1
        self.raw.append(raw)
        self.norm.append(norm)
        self.n_stuck += stuck

    def sums(self) -> tuple:
        """(length counts, first-move counts, raw sum, normalized sum, stuck count)."""
        return (self.lengths, self.first, _pairwise_sum(self.raw), _pairwise_sum(self.norm),
                self.n_stuck)


def _ensemble_table(state, policy, n_samples: int, seed: int):
    """The transition table of an ensemble, n_samples and seed as ints, after
    their checks: every usage error a per-sample ensemble can raise is raised
    here, before it starts."""
    n_samples, seed = check_int("n_samples", n_samples, 1), check_int("seed", seed)
    return _transition_table(state, policy), n_samples, seed


def cascade_ensemble_stats(
    state: BlackHoleState,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "per-sample",
    on_chain=None,
) -> CascadeEnsembleStats:
    """Sample an ensemble of cascades and summarize it.

    method "per-sample" walks each chain on its own (seed, index) stream, one
    chain at a time in Python, so sample i is sample_cascade(..., seed, i);
    "batch" walks every chain in lockstep on one numpy (seed, n_samples)
    stream, for energy-only cascades only (see _walk).

    on_chain, when given, is called as on_chain(i, steps) after sample i is
    walked, steps being its (row, channel) pairs (see _chain). Only the
    tallies and the census outlive a chain. The batch walk shares one
    stream, so it takes no on_chain.

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
    if batch and on_chain is not None:
        raise UsageError("batch sampling walks one stream: it has no chains to hand over")
    table, n_samples, seed = _ensemble_table(state, policy, n_samples, seed)
    n, charged = table.n_quanta, not policy.energy_only
    census = n <= _CENSUS_MAX_QUANTA
    identity_counts = None
    if batch:
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence((seed, n_samples)))
        lengths, first_k, raw, norm, stuck, cuts = _walk(table, n_samples, rng, census)
        hists = (dict(zip(*(x.tolist() for x in np.unique(a, return_counts=True))))
                 for a in (lengths, first_k[lengths > 0]))
        sums = (*hists, float(np.add.reduce(raw)), float(np.add.reduce(norm)),
                int(np.count_nonzero(stuck)))
        if census:
            masks, counts = np.unique(cuts[~stuck], return_counts=True)
            found = {_composition(m, n): c for m, c in zip(masks.tolist(), counts.tolist())}
            identity_counts = dict(sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])))
    else:
        tally = _Tally()
        identity_counts = {} if census else None
        seed_words = _uint32_words(seed)
        for i in range(n_samples):
            steps, raw, norm, stuck = _chain(table, *_pcg64_start(seed_words + _uint32_words(i)))
            tally.add(len(steps), _move(*steps[0])[0] if steps else 0, raw, norm, stuck)
            if census and not stuck:  # chains come in sample order: first seen first
                moves = (_move(row, c) for row, c in steps)
                ident = tuple(moves) if charged else tuple(k for k, _, _ in moves)
                identity_counts[ident] = identity_counts.get(ident, 0) + 1
            if on_chain is not None:
                on_chain(i, steps)
        sums = tally.sums()
    n_stuck = sums[-1]
    # A stuck chain ends at a floor, as a stop-mass chain. Only the batch
    # summary lists its terminal ending when no chain has it.
    end, stop = _terminal(policy).value, Termination.STOP_MASS.value
    term_counts = {end: n_samples - n_stuck, stop: n_stuck} if end != stop else {end: n_samples}
    term_counts = {k: v for k, v in term_counts.items() if v or (batch and k == end)}
    return _ensemble_stats(n_samples, seed, method, *sums, identity_counts, term_counts)


def _move(row: _Row, c: int) -> tuple[int, int, int]:
    """Channel c's move in energy, charge and spin quanta: the row's counts
    less the remnant's."""
    (r, cq, cj), (r2, cq2, cj2) = row.key, row.after[c]
    return r - r2, cq - cq2, cj - cj2


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
    tally, term_counts = _Tally(), {}
    for i, chain in enumerate(chains):
        if i == 0 and _TransitionTable(chain.initial, policy).n_quanta > _CENSUS_MAX_QUANTA:
            identity_counts = None
        first_k = round(chain.steps[0].emission.omega / policy.energy_quantum) if chain.steps else 0
        tally.add(chain.n_steps, first_k, *chain_log_probability(chain), chain.stuck)
        if identity_counts is not None and not chain.stuck:
            ident = chain_identity(chain, policy)
            identity_counts[ident] = identity_counts.get(ident, 0) + 1
        term_counts[chain.terminated.value] = term_counts.get(chain.terminated.value, 0) + 1
    return _ensemble_stats(n_samples, seed, method, *tally.sums(), identity_counts, term_counts)
