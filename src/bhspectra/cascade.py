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

Randomness: each per-sample chain draws from its own generator, derived by
mixing (seed, sample_index), so a sample is reproducible on its own and
does not depend on the chains walked beside it. The batch method for very
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

from .blackholes import BlackHoleState, Emission, entropy_drop, hairs_valid, logsumexp
# Not called here; kept importable because perfbench/tracer.py wraps it here.
from .blackholes import entropy_grid  # noqa: F401
from .errors import UsageError


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
        if self.max_steps is not None and self.max_steps < 1:
            raise UsageError("max_steps must be >= 1 when given")
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


@dataclass(frozen=True)
class _Plan:
    """Integer ledger of a cascade: total quanta of each conserved hair."""

    n_quanta: int
    n_charge: int   # signed
    n_spin: int     # signed


def _plan(state: BlackHoleState, policy: CascadePolicy) -> _Plan:
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
    return _Plan(n, nq, nj)


def _hairs_at(state, policy, plan, r, cq_left, cj_left):
    """Canonical hairs at integer remaining counts (ints, or int arrays of one
    shape) as float64 arrays, anchored at the initial state (a single product
    each, so no cumulative drift along a chain). The endpoints are pinned
    exactly: r = 0 is the stop mass, a fully shed charge or spin is exactly
    zero. A disabled channel leaves its hair untouched."""
    m = np.where(r == 0, policy.stop_mass, state.m - (plan.n_quanta - r) * policy.energy_quantum)
    if policy.charge_quantum is None:
        q = np.full(np.shape(r), state.q)
    else:
        q = np.where(cq_left == 0, 0.0, state.q - (plan.n_charge - cq_left) * policy.charge_quantum)
    if policy.spin_quantum is None:
        j = np.full(np.shape(r), state.j)
    else:
        j = np.where(cj_left == 0, 0.0, state.j - (plan.n_spin - cj_left) * policy.spin_quantum)
    return m, q, j


def _sign_range(left: int) -> np.ndarray:
    """Move counts 0..|left| carrying the sign of the remaining quanta."""
    return np.arange(0, abs(left) + 1) * (1 if left >= 0 else -1)


def _step_channels(state, policy, plan, r: int, cq_left: int, cj_left: int):
    """Open emission channels with r energy quanta (and cq_left / cj_left
    charge / spin quanta) remaining.

    Returns the candidate remaining-count arrays (r2, cq2, cj2), the remnant
    hairs (m2, q2, j2), the raw log-weights, and the step's log-sum-exp total,
    all filtered to channels whose remnant is a valid macro-state. Empty
    arrays mean the cascade is stuck.
    """
    ks = np.arange(1, r + 1)
    if cq_left == 0 and cj_left == 0:
        r2 = r - ks
        cq2 = np.zeros(r, dtype=np.int64)
        cj2 = np.zeros(r, dtype=np.int64)
    else:
        mq = _sign_range(cq_left)
        mj = _sign_range(cj_left)
        k, cq, cj = (x.ravel() for x in np.meshgrid(ks, mq, mj, indexing="ij"))
        r2, cq2, cj2 = r - k, cq_left - cq, cj_left - cj
    m2, q2, j2 = _hairs_at(state, policy, plan, r2, cq2, cj2)
    ok = hairs_valid(state.family, m2, q2, j2, state.alpha)
    if not ok.all():
        r2, cq2, cj2, m2, q2, j2 = (x[ok] for x in (r2, cq2, cj2, m2, q2, j2))
    if r2.size == 0:
        return r2, cq2, cj2, m2, q2, j2, np.empty(0), float("nan")
    m1, q1, j1 = map(float, _hairs_at(state, policy, plan, r, cq_left, cj_left))
    logw = entropy_drop(m1, q1, j1, state.alpha, m1 - m2, q1 - q2, j1 - j2)
    return r2, cq2, cj2, m2, q2, j2, logw, logsumexp(logw)


# (state, policy) transition tables kept alive at once. Checks that draw random
# chains visit a few hundred pairs; a table holds only the rows its chains reach.
_TABLE_CACHE_SIZE = 1024


@dataclass(frozen=True, eq=False)
class _Row:
    """Open channels out of one transition state, in _step_channels order."""

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
    each built on its first lookup."""

    def __init__(self, state: BlackHoleState, policy: CascadePolicy) -> None:
        super().__init__()
        self.state = state
        self.policy = policy
        self.plan = _plan(state, policy)

    def __missing__(self, key: tuple[int, int, int]) -> _Row:
        *channels, logw, log_z = _step_channels(self.state, self.policy, self.plan, *key)
        logp = logw - log_z
        cdf = np.cumsum(np.exp(logp))
        if cdf.size:
            cdf[-1] = 1.0
        for a in (*channels, logw, logp, cdf):
            a.flags.writeable = False  # shared by every caller of the cached table
        row = self[key] = _Row(*channels, logw, logp, cdf)
        return row


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _transition_table(state: BlackHoleState, policy: CascadePolicy) -> _TransitionTable:
    return _TransitionTable(state, policy)


# ---------------------------------------------------------------------------
# Sampling: one lockstep walk
# ---------------------------------------------------------------------------


def _walk(table: _TransitionTable, n_chains: int, draw, on_step=None):
    """Walk n_chains chains from the table's initial state; round t takes
    step t of every live chain, grouped by transition state in ascending
    order. draw(t, idx) gives group idx its uniforms and on_step(idx, row,
    pick) sees its step; a stuck group draws nothing. Returns per-chain
    lengths, first moves in quanta (where the length is > 0), raw and
    normalized log-probabilities (summed in step order) and stuck flags."""
    plan = table.plan
    r, cq, cj = np.array([[plan.n_quanta], [plan.n_charge], [plan.n_spin]]).repeat(n_chains, 1)
    lengths, first_k = np.zeros(n_chains, dtype=np.int64), np.zeros(n_chains, dtype=np.int64)
    raw, norm, stuck = np.zeros(n_chains), np.zeros(n_chains), np.zeros(n_chains, dtype=bool)
    charged = not table.policy.energy_only
    # Counts lie between 0 and their plan values: keys ascend with (r, cq_left, cj_left).
    span_q, span_j = 2 * abs(plan.n_charge) + 1, 2 * abs(plan.n_spin) + 1
    live, t = np.flatnonzero(r), 0
    while live.size:
        groups = (live,)
        if live.size > 1:
            key = (r[live] * span_q + cq[live]) * span_j + cj[live]
            order = np.argsort(key, kind="stable")
            groups = np.split(live[order], np.flatnonzero(np.diff(key[order])) + 1)
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
                on_step(idx, row, pick)
        if t == 0:
            first_k = plan.n_quanta - r
        live, t = live[r[live] > 0], t + 1
    return lengths, first_k, raw, norm, stuck


def _per_sample_draw(seed: int, sample_indices, n_steps: int):
    """draw for _walk: value t of the (seed, sample_indices[c]) stream at step t
    of chain c. Each stream's first n_steps values, one per step a chain can
    take, are drawn up front, so no generator outlives this call; the values
    a chain does not reach are drawn from its own stream only."""
    uniforms = np.empty((len(sample_indices), n_steps))
    for c, i in enumerate(sample_indices):
        uniforms[c] = np.random.default_rng(np.random.SeedSequence((seed, i))).random(n_steps)
    return lambda t, idx: uniforms[idx, t]


class _Steps(list):
    """on_step for _walk that keeps every step's (idx, row, pick); ordered()
    then sorts the steps by chain, then by step."""

    def __call__(self, idx: np.ndarray, row: _Row, pick: np.ndarray) -> None:
        self.append((idx, row, pick))

    def ordered(self, lengths: np.ndarray) -> "_Steps":
        """Sort the steps, keeping per step only its chain, its step number and
        its channel: an index into the fields of the rows laid end to end."""
        offsets: dict[_Row, int] = {}
        size = 0
        for _, row, _ in self:
            if row not in offsets:
                offsets[row], size = size, size + row.r2.size
        empty = [np.zeros(0, dtype=np.int64)]
        chain = np.concatenate([idx for idx, _, _ in self] or empty)
        order = np.argsort(chain, kind="stable")
        self.chain = chain[order]
        self.channel = np.concatenate([offsets[row] + pick for _, row, pick in self] or empty)[order]
        self.rows = list(offsets)
        starts = np.cumsum(lengths) - lengths
        self.starts = starts[lengths > 0]
        self.step = np.arange(chain.size) - np.repeat(starts, lengths)
        self.clear()
        return self

    def field(self, name: str) -> np.ndarray:
        """A _Row field (m2, r2, logw, ...) at each step's channel."""
        return np.concatenate([getattr(row, name) for row in self.rows] or [[]])[self.channel]

    def moved(self, name: str, initial) -> tuple[np.ndarray, np.ndarray]:
        """(before, after) each step of a _Row field, before being initial at
        a chain's first step."""
        after = self.field(name)
        before = np.empty_like(after)
        before[1:] = after[:-1]
        before[self.starts] = initial
        return before, after

    def columns(self, state: BlackHoleState, first: int) -> dict[str, np.ndarray]:
        """The chains.jsonl columns, chain c being sample first + c. The
        emitted hairs are differences of consecutive remnant hairs, from the
        state's own on; each is computed in place of an operand it frees."""
        mass_before, omega = self.moved("m2", state.m)
        np.subtract(mass_before, omega, out=omega)
        q, j = (np.subtract(*self.moved(f, x)) for f, x in (("q2", state.q), ("j2", state.j)))
        self.chain += first
        return {"sample_index": self.chain, "step": self.step, "omega": omega, "q": q, "j": j,
                "mass_before": mass_before, "log_weight_raw": self.field("logw"),
                "log_prob_norm": self.field("logp")}

    def census(self, table: _TransitionTable, lengths, stuck) -> dict[tuple, int]:
        """Identity counts (see chain_identity) of unstuck chains, first seen first."""
        plan = table.plan
        fields = (("r2", plan.n_quanta), ("cq2", plan.n_charge), ("cj2", plan.n_spin))
        moves = [(before - after).tolist() for before, after in (self.moved(*f) for f in fields)]
        moves = moves[0] if table.policy.energy_only else list(zip(*moves))
        census: dict[tuple, int] = {}
        ends = np.cumsum(lengths).tolist()
        for end, length, is_stuck in zip(ends, lengths.tolist(), stuck.tolist()):
            if not is_stuck:
                ident = tuple(moves[end - length:end])
                census[ident] = census.get(ident, 0) + 1
        return census


def sample_cascade(
    state: BlackHoleState, policy: CascadePolicy, seed: int, sample_index: int = 0
) -> EmissionChain:
    """Sample one complete evaporation chain.

    Deterministic for fixed (seed, sample_index): it is the lockstep walk of
    one chain on the (seed, sample_index) stream, so it is sample
    sample_index of every per-sample ensemble with that seed.
    """
    if sample_index < 0 or seed < 0:
        raise UsageError("seed and sample_index must be non-negative")
    table = _transition_table(state, policy)
    steps: list[CascadeStep] = []

    def take(idx, row, pick):
        i = int(pick[0])
        before = steps[-1].state_after if steps else state
        after = state.with_hairs(float(row.m2[i]), float(row.q2[i]), float(row.j2[i]))
        emission = Emission(before.m - after.m, before.q - after.q, before.j - after.j)
        steps.append(CascadeStep(emission, after, float(row.logw[i]), float(row.logp[i])))

    draw = _per_sample_draw(seed, [sample_index], table.plan.n_quanta)
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
    n = table.plan.n_quanta
    if n > _CENSUS_MAX_QUANTA:
        raise UsageError(f"enumeration capped at {_CENSUS_MAX_QUANTA} quanta, got {n}")
    results: list[tuple[EmissionChain, float, float]] = []

    def walk(current: BlackHoleState, r: int, steps: tuple, raw: float, norm: float):
        if r == 0:
            results.append((EmissionChain(state, steps, _terminal(policy)), raw, norm))
            return
        row = table[r, 0, 0]
        for i in range(row.r2.size):
            after = state.with_hairs(float(row.m2[i]), current.q, current.j)
            step = CascadeStep(Emission(current.m - after.m), after, float(row.logw[i]),
                               float(row.logp[i]))
            walk(after, int(row.r2[i]), (*steps, step), raw + step.log_weight, norm + step.log_prob)

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


def _ensemble_table(state, policy, n_samples: int, seed: int) -> _TransitionTable:
    """The transition table of an ensemble, after its checks: every usage
    error an ensemble walk can raise is raised here, before it starts."""
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    if seed < 0:
        raise UsageError("seed and sample_index must be non-negative")
    return _transition_table(state, policy)


def _walk_ensemble(state, policy, n_samples: int, seed: int, batch: bool, on_chunk=None):
    """Walk n_samples chains on the batch or the per-sample streams and
    return their summary.

    The per-sample walk goes in chunks of consecutive samples (see
    _CHUNK_STEPS), and on_chunk, when given, gets each chunk's chains.jsonl
    columns as soon as the chunk is walked; only the per-chain arrays and the
    census outlive a chunk. The batch walk shares one stream, so it is one chunk.

    The census order fixes how identity_entropy is summed, so it is output:
    per-sample identities first seen first, batch ones fewest parts first,
    then lexicographically. A batch identity is kept as a cut mask, with bit
    b set when a step leaves n - b quanta."""
    table = _ensemble_table(state, policy, n_samples, seed)
    n = table.plan.n_quanta
    census = n <= _CENSUS_MAX_QUANTA
    identity_counts = None
    if batch:
        rng = np.random.default_rng(np.random.SeedSequence((seed, n_samples)))
        cuts = np.zeros(n_samples, dtype=np.int64)

        def cut(idx, row, pick):  # bit n, set by a chain's last step, is not a cut
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
            steps = _Steps() if census or on_chunk is not None else None
            draw = _per_sample_draw(seed, range(first, last), n)
            chunk = _walk(table, last - first, draw, steps)
            for whole, part in zip(walked, chunk):
                whole[first:last] = part
            if steps is None:
                continue
            steps.ordered(chunk[0])
            if census:  # chunks come in sample order, so this keeps first seen first
                for ident, count in steps.census(table, chunk[0], chunk[4]).items():
                    identity_counts[ident] = identity_counts.get(ident, 0) + count
            if on_chunk is not None:
                columns, steps = steps.columns(state, first), None  # drop the step index first
                on_chunk(columns)
    n_stuck = int(np.count_nonzero(walked[4]))
    # A stuck chain ends at a floor, as a stop-mass chain. Only the batch
    # summary lists its terminal ending when no chain has it.
    end, stop = _terminal(policy).value, Termination.STOP_MASS.value
    term_counts = {end: n_samples - n_stuck, stop: n_stuck} if end != stop else {end: n_samples}
    term_counts = {k: v for k, v in term_counts.items() if v or (batch and k == end)}
    method = "batch" if batch else "per-sample"
    return _ensemble_stats(n_samples, seed, method, *walked, identity_counts, term_counts)


def cascade_ensemble_stats(
    state: BlackHoleState,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "per-sample",
) -> CascadeEnsembleStats:
    """Sample an ensemble of cascades and summarize it.

    method "per-sample" draws each chain from its own (seed, index) stream;
    "batch" draws every chain from one (seed, n_samples) stream, for
    energy-only cascades only. Both are the one lockstep walk.
    """
    if method not in ("batch", "per-sample"):
        raise UsageError(f"unknown method {method!r}; choose batch or per-sample")
    if method == "batch" and not policy.energy_only:
        raise UsageError("batch sampling covers energy-only cascades")
    return _walk_ensemble(state, policy, n_samples, seed, batch=method == "batch")


def sample_ensemble(
    state: BlackHoleState, policy: CascadePolicy, n_samples: int, seed: int, on_chunk
) -> CascadeEnsembleStats:
    """A per-sample ensemble's summary. on_chunk gets its steps as
    chains.jsonl columns, one dict per chunk of consecutive samples, by
    sample, then step: sample i's rows are sample_cascade(..., seed, i)'s."""
    return _walk_ensemble(state, policy, n_samples, seed, batch=False, on_chunk=on_chunk)


def ensemble_stats_from_chains(
    chains,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "per-sample",
) -> CascadeEnsembleStats:
    """Aggregate an iterable of already-sampled chains, n_samples of them,
    into ensemble stats."""
    chains = list(chains)
    if len(chains) != n_samples:
        raise UsageError(f"{len(chains)} chains given for n_samples={n_samples}")
    identity_counts: dict[tuple, int] | None = {}
    lengths, first_k = np.zeros(n_samples, dtype=np.int64), np.zeros(n_samples, dtype=np.int64)
    raw_tot, norm_tot, stuck = np.zeros(n_samples), np.zeros(n_samples), np.zeros(n_samples, bool)
    term_counts: dict[str, int] = {}
    for i, chain in enumerate(chains):
        if i == 0 and _plan(chain.initial, policy).n_quanta > _CENSUS_MAX_QUANTA:
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
