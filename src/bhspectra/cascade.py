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
channels, raw log-weights, log-sum-exp and CDF are built once per
(state, policy) and looked up afterwards. The per-sample sampler, the batch
sampler and the enumeration oracle all read that one table.

Randomness: each sample owns a generator derived by mixing (seed,
sample_index), so a sample is reproducible on its own and an ensemble does
not depend on the order its samples are drawn in. The batch sampler used for
very large energy-only ensembles draws from one (seed, n_samples)-deterministic
stream instead; both are exact samplers of the same per-step distributions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blackholes import (
    BlackHoleState,
    Emission,
    _entropy_ld,
    entropy_grid,
    hairs_valid,
)
from .errors import UsageError


class SamplingScheme(str, Enum):
    UNIT_SUM_PER_STEP = "unitsum-per-step"


class Termination(str, Enum):
    EXHAUSTED = "exhausted"    # fully evaporated (stop_mass = 0 reached)
    STOP_MASS = "stop-mass"    # reached a positive stop mass, or stuck at a floor
    MAX_STEPS = "max-steps"


@dataclass(frozen=True)
class CascadePolicy:
    """Discretization and stopping rules for a cascade.

    stop_mass must be > 0 whenever the state carries alpha != 0: the
    log-corrected entropy diverges as the horizon area goes to zero, so a
    corrected cascade needs a floor. Setting charge_quantum / spin_quantum
    opens charge / angular-momentum channels.
    """

    energy_quantum: float
    stop_mass: float = 0.0
    max_steps: int | None = None
    charge_quantum: float | None = None
    spin_quantum: float | None = None
    sampling: SamplingScheme = SamplingScheme.UNIT_SUM_PER_STEP

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

    def to_record(self) -> dict:
        return {
            "energy_quantum": self.energy_quantum,
            "stop_mass": self.stop_mass,
            "max_steps": self.max_steps,
            "charge_quantum": self.charge_quantum,
            "spin_quantum": self.spin_quantum,
            "sampling": self.sampling.value,
        }


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
        return self.terminated is not Termination.MAX_STEPS and not self.stuck

    def total_emission(self) -> Emission:
        total = Emission(0.0)
        for step in self.steps:
            total = total + step.emission
        return total


def chain_log_probability(chain: EmissionChain) -> tuple[float, float]:
    """(raw, normalized) chain log-probability: sums of the per-step values."""
    raw = sum(step.log_weight for step in chain.steps)
    norm = sum(step.log_prob for step in chain.steps)
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
    max_steps: int


def _plan(state: BlackHoleState, policy: CascadePolicy) -> _Plan:
    if state.alpha != 0.0 and policy.stop_mass <= 0.0:
        raise UsageError("alpha != 0 requires stop_mass > 0 (entropy diverges at zero area)")
    if policy.stop_mass > state.m:
        raise UsageError("stop_mass exceeds the initial mass")
    n = _count_quanta(state.m - policy.stop_mass, policy.energy_quantum, "M - stop_mass")
    nq = _count_quanta(state.q, policy.charge_quantum, "Q") if policy.charge_quantum else 0
    nj = _count_quanta(state.j, policy.spin_quantum, "J") if policy.spin_quantum else 0
    max_steps = policy.max_steps if policy.max_steps is not None else max(n, 1)
    if max_steps < n:
        raise UsageError(f"max_steps={max_steps} < {n} = (M - stop_mass)/energy_quantum")
    return _Plan(n, nq, nj, max_steps)


def _hairs_at(state, policy, plan, r, cq_left, cj_left):
    """Canonical hairs at integer remaining counts, anchored at the initial
    state (single product each, so no cumulative drift along a chain). The
    endpoints are pinned exactly: r = 0 is the stop mass, a fully shed charge
    or spin is exactly zero. A disabled channel leaves its hair untouched."""
    m = policy.stop_mass if r == 0 else state.m - (plan.n_quanta - r) * policy.energy_quantum
    if policy.charge_quantum is None:
        q = state.q
    else:
        q = 0.0 if cq_left == 0 else state.q - (plan.n_charge - cq_left) * policy.charge_quantum
    if policy.spin_quantum is None:
        j = state.j
    else:
        j = 0.0 if cj_left == 0 else state.j - (plan.n_spin - cj_left) * policy.spin_quantum
    return m, q, j


def _logsumexp(a: np.ndarray) -> float:
    hi = float(np.max(a))
    return hi + float(np.log(np.sum(np.exp(a - hi))))


def _sign_range(left: int) -> np.ndarray:
    """Move counts 0..|left| carrying the sign of the remaining quanta."""
    return np.arange(0, abs(left) + 1) * (1 if left >= 0 else -1)


def _step_channels(state, policy, plan, r: int, cq_left: int, cj_left: int):
    """Open emission channels with r energy quanta (and cq_left / cj_left
    charge / spin quanta) remaining.

    Returns the candidate remaining-count arrays (r2, cq2, cj2), the raw
    log-weights, and the step's log-sum-exp total, all filtered to channels
    whose remnant is a valid macro-state. Empty arrays mean the cascade is
    stuck.
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
    eps = policy.energy_quantum
    m2 = np.where(r2 == 0, policy.stop_mass, state.m - (plan.n_quanta - r2) * eps)
    if policy.charge_quantum is None:
        q2 = np.full(r2.shape, state.q)
    else:
        q2 = np.where(cq2 == 0, 0.0, state.q - (plan.n_charge - cq2) * policy.charge_quantum)
    if policy.spin_quantum is None:
        j2 = np.full(r2.shape, state.j)
    else:
        j2 = np.where(cj2 == 0, 0.0, state.j - (plan.n_spin - cj2) * policy.spin_quantum)
    ok = hairs_valid(state.family, m2, q2, j2, state.alpha)
    if not ok.all():
        r2, cq2, cj2, m2, q2, j2 = (x[ok] for x in (r2, cq2, cj2, m2, q2, j2))
    if r2.size == 0:
        return r2, cq2, cj2, m2, q2, j2, np.empty(0), float("nan")
    m1, q1, j1 = _hairs_at(state, policy, plan, r, cq_left, cj_left)
    s1 = _entropy_ld(state.family, m1, q1, j1, state.alpha)
    logw = np.asarray(entropy_grid(state.family, m2, q2, j2, state.alpha) - s1, dtype=np.float64)
    return r2, cq2, cj2, m2, q2, j2, logw, _logsumexp(logw)


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
    log_z: float        # their log-sum-exp (nan when no channel is open)
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
        cdf = np.cumsum(np.exp(logw - log_z))
        if cdf.size:
            cdf[-1] = 1.0
        for a in (*channels, logw, cdf):
            a.flags.writeable = False  # shared by every caller of the cached table
        row = self[key] = _Row(*channels, logw, log_z, cdf)
        return row


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _transition_table(state: BlackHoleState, policy: CascadePolicy) -> _TransitionTable:
    return _TransitionTable(state, policy)


def sample_cascade(
    state: BlackHoleState, policy: CascadePolicy, seed: int, sample_index: int = 0
) -> EmissionChain:
    """Sample one complete evaporation chain.

    Deterministic for fixed (seed, sample_index); the per-sample generator is
    derived by mixing the two. Each step draws from the (state, policy)
    transition table, so a state's channels are built once however many
    chains pass through it.
    """
    if sample_index < 0 or seed < 0:
        raise UsageError("seed and sample_index must be non-negative")
    table = _transition_table(state, policy)
    plan = table.plan
    rng = np.random.default_rng(np.random.SeedSequence((seed, sample_index)))
    steps: list[CascadeStep] = []
    current = state
    r, cql, cjl = plan.n_quanta, plan.n_charge, plan.n_spin
    stuck = False
    while r > 0:
        if len(steps) >= plan.max_steps:
            return EmissionChain(state, tuple(steps), Termination.MAX_STEPS)
        row = table[r, cql, cjl]
        if row.cdf.size == 0:
            stuck = True
            break
        pick = min(int(np.searchsorted(row.cdf, rng.random(), side="right")), row.cdf.size - 1)
        after = BlackHoleState(
            state.family, float(row.m2[pick]), float(row.q2[pick]), float(row.j2[pick]),
            state.alpha,
        )
        emission = Emission(
            current.m - after.m, current.q - after.q, current.j - after.j
        )
        logw = float(row.logw[pick])
        steps.append(CascadeStep(emission, after, logw, logw - row.log_z))
        current = after
        r, cql, cjl = int(row.r2[pick]), int(row.cq2[pick]), int(row.cj2[pick])
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
    if n == 0:
        return [(EmissionChain(state, (), _terminal(policy)), 0.0, 0.0)]

    results: list[tuple[EmissionChain, float, float]] = []

    def walk(current: BlackHoleState, r: int, steps: list[CascadeStep], raw: float, norm: float):
        if r == 0:
            results.append((EmissionChain(state, tuple(steps), _terminal(policy)), raw, norm))
            return
        row = table[r, 0, 0]
        for i in range(row.r2.size):
            after = BlackHoleState(state.family, float(row.m2[i]), current.q, current.j, state.alpha)
            emission = Emission(current.m - after.m)
            logw = float(row.logw[i])
            step = CascadeStep(emission, after, logw, logw - row.log_z)
            steps.append(step)
            walk(after, int(row.r2[i]), steps, raw + step.log_weight, norm + step.log_prob)
            steps.pop()

    walk(state, n, [], 0.0, 0.0)
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


def _batch_energy_sample(state: BlackHoleState, policy: CascadePolicy, n_samples: int, seed: int):
    """Vectorized energy-only sampler. One stream, deterministic per
    (seed, n_samples); identical per-step distributions to sample_cascade.

    Up to the census cap, each chain's identity is kept as its cut mask: bit
    b is set when a step leaves n - b quanta, so the parts of the composition
    are the gaps between 0, the set bits and n. Above the cap, the identity
    census is None.
    """
    table = _transition_table(state, policy)
    n = table.plan.n_quanta
    rng = np.random.default_rng(np.random.SeedSequence((seed, n_samples)))
    remaining = np.full(n_samples, n, dtype=np.int64)
    stuck = np.zeros(n_samples, dtype=bool)
    lengths = np.zeros(n_samples, dtype=np.int64)
    first_k = np.zeros(n_samples, dtype=np.int64)
    raw_tot = np.zeros(n_samples)
    norm_tot = np.zeros(n_samples)
    cuts = np.zeros(n_samples, dtype=np.int64) if n <= _CENSUS_MAX_QUANTA else None
    for _ in range(n):
        active = (remaining > 0) & ~stuck
        if not active.any():
            break
        for r in np.unique(remaining[active]):
            r = int(r)
            idx = np.nonzero(active & (remaining == r))[0]
            row = table[r, 0, 0]
            if row.cdf.size == 0:
                stuck[idx] = True
                continue
            u = rng.random(idx.size)
            pick = np.minimum(np.searchsorted(row.cdf, u, side="right"), row.cdf.size - 1)
            k = r - row.r2[pick]  # quanta carried by the picked channels
            raw_tot[idx] += row.logw[pick]
            norm_tot[idx] += row.logw[pick] - row.log_z
            first_k[idx] = np.where(lengths[idx] == 0, k, first_k[idx])
            lengths[idx] += 1
            remaining[idx] -= k
            if cuts is not None:
                left = remaining[idx]
                cuts[idx] |= np.where(left > 0, np.left_shift(1, n - left), 0)
    identity_counts = None
    if cuts is not None:
        masks, counts = np.unique(cuts[~stuck], return_counts=True)
        census = {_composition(m, n): c for m, c in zip(masks.tolist(), counts.tolist())}
        # Fewest parts first, then lexicographic: this order fixes the
        # summation order of identity_entropy, so it is part of the output.
        identity_counts = dict(sorted(census.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return stuck, lengths, first_k, raw_tot, norm_tot, identity_counts


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
        identity_entropy = float(-np.sum(freqs * np.log(freqs)))
    return CascadeEnsembleStats(
        n_samples=n_samples,
        seed=seed,
        method=method,
        lengths=lengths,
        first_emission_counts=first_counts,
        identity_counts=identity_counts,
        identity_entropy=identity_entropy,
        mean_raw_log_prob=float(np.mean(raw_tot)),
        mean_norm_log_prob=float(np.mean(norm_tot)),
        n_stuck=int(np.count_nonzero(stuck)),
        terminated_counts=terminated_counts,
    )


def cascade_ensemble_stats(
    state: BlackHoleState,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "auto",
) -> CascadeEnsembleStats:
    """Sample an ensemble of cascades and summarize it.

    method "per-sample" draws each chain from its own (seed, index) stream;
    "batch" uses the vectorized energy-only sampler (required for very large
    ensembles); "auto" picks batch for energy-only ensembles >= 10^4 samples.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    if method == "auto":
        method = "batch" if (policy.energy_only and n_samples >= 10_000) else "per-sample"
    if method == "batch" and not policy.energy_only:
        raise UsageError("batch sampling covers energy-only cascades")
    if method != "batch":
        chains = (sample_cascade(state, policy, seed, i) for i in range(n_samples))
        return ensemble_stats_from_chains(chains, policy, n_samples, seed, method="per-sample")

    stuck, lengths, first_k, raw_tot, norm_tot, identity_counts = _batch_energy_sample(
        state, policy, n_samples, seed
    )
    n_stuck = int(np.count_nonzero(stuck))
    term_counts = {_terminal(policy).value: n_samples - n_stuck}
    if n_stuck:  # a stuck chain ends at a floor, as a stop-mass chain
        stop = Termination.STOP_MASS.value
        term_counts[stop] = term_counts.get(stop, 0) + n_stuck
    return _ensemble_stats(
        n_samples, seed, method, lengths, first_k, raw_tot, norm_tot, stuck,
        identity_counts, term_counts,
    )


def ensemble_stats_from_chains(
    chains,
    policy: CascadePolicy,
    n_samples: int,
    seed: int,
    method: str = "per-sample",
) -> CascadeEnsembleStats:
    """Aggregate an iterable of already-sampled chains into ensemble stats."""
    identity_counts: dict[tuple, int] | None = {}
    lengths = np.zeros(n_samples, dtype=np.int64)
    first_k = np.zeros(n_samples, dtype=np.int64)
    raw_tot = np.zeros(n_samples)
    norm_tot = np.zeros(n_samples)
    stuck = np.zeros(n_samples, dtype=bool)
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
