"""Entropy and correlation functionals for radiation spectra and cascades.

All functionals work on log-weights and use the 0 * ln 0 = 0 convention.
Entropy-like quantities need probability semantics, so they require unit-sum
spectra; the literal raw-weighted sum is still reported as a diagnostic
column where it differs.

The two-emission joint distribution is built by sequential conditioning,

    joint(w1, w2)  proportional to  p(w1 | M) * p(w2 | M - w1),

the only construction consistent with the factorization identity
p(w1 + w2 | M) = p(w1 | M) p(w2 | M - w1) that the entropy-difference
weights satisfy exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blackholes import (_BLOCK, BlackHoleState, Emission, Family, _pairwise_leaves, _ranked,
                         bh_entropy, entropy_grid, logsumexp)
from .errors import DomainError, Normalization, RemnantInvalid, UsageError
from .spectrum import (GridSpec, SpectrumGrid, _on_axes, emission_log_weight,
                       emission_log_weights, emission_log_weights_bulk, exp_weights, unit_sum)

if TYPE_CHECKING:  # the annotation only: spectrum --report loads no sampler
    from .cascade import EmissionChain

# The info report's pairwise-correlation summary takes every
# (n // _MAX_CORR_NODES)-th of n > _MAX_CORR_NODES omega nodes, so it keeps
# fewer than 2 * _MAX_CORR_NODES of them.
_MAX_CORR_NODES = 128

# Most omega nodes mutual_information takes (its n x n joint peaks at ~0.57 GB
# at the cap).
_MAX_MI_NODES = 1 << 12


def radiation_entropy(spectrum: SpectrumGrid) -> float:
    """Shannon entropy -sum p ln p of a unit-sum spectrum's valid bins,
    summed leaf by leaf over them (blackholes._pairwise_leaves)."""
    if spectrum.normalization is not Normalization.UNIT_SUM:
        raise UsageError("radiation entropy needs a unit-sum spectrum")
    logw = spectrum.log_weight
    n, at = _ranked(spectrum.valid)

    def terms(start, stop):
        logp = logw[at(start, stop)]
        p = exp_weights(logp)
        return np.where(p > 0.0, np.multiply(p, logp, out=p), 0.0)

    return float(0.0 - _pairwise_leaves(n, terms))  # 0.0, not -0.0


@dataclass(frozen=True)
class ConditionalEntropyResult:
    """Remnant conditional entropy under a radiation distribution (nats)."""

    exact: float            # sum_r p(r) S(remnant(r))
    lowenergy: float        # S evaluated at the mean remnant hairs
    raw_weighted: float     # literal raw-weight sum, diagnostic only
    e_r: float              # mean radiated energy <omega>
    mean_q: float
    mean_j: float
    excluded_mass: float    # probability excluded for undefined remnant entropy
    excluded_warning: bool


def conditional_entropy(spectrum: SpectrumGrid) -> ConditionalEntropyResult:
    """Average remnant entropy over the spectrum, exact and low-energy forms.

    exact weights each remnant's entropy by the bin probability; lowenergy
    evaluates the entropy once at the mean remnant hairs
    (M - <omega>, Q - <q>, J - <j>). Bins whose remnant entropy is undefined
    are excluded and their probability mass reported.

    Each sum runs over the valid bins leaf by leaf (blackholes._pairwise_leaves),
    reading the log-weights and hairs of a leaf from the grid: the one array
    of the valid bins' size is their remnant entropies.
    """
    if spectrum.normalization is not Normalization.UNIT_SUM:
        raise UsageError("conditional entropy needs a unit-sum spectrum")
    state, spec, logw, valid = (spectrum.source_state, spectrum.grid_spec,
                                spectrum.log_weight, spectrum.valid)
    axes = spec.omega_nodes(), spec.q_values(), spec.j_values()
    shape = (spec.n_omega, spec.n_q, spec.n_j)
    n, at = _ranked(valid)

    # The remnant entropies of the valid bins, a block of omega nodes at a time.
    def remnant_entropy(w, q, j):
        return (entropy_grid(state.family, state.m - w, state.q - q, state.j - j, state.alpha),)

    s_rem = np.empty(n)
    nodes = max(1, _BLOCK // (spec.n_q * spec.n_j))
    v = valid.reshape(shape)
    rank = 0
    for lo in range(0, spec.n_omega, nodes):
        (s,) = _on_axes(remnant_entropy, axes[0][lo : lo + nodes], *axes[1:])
        s = s[v[lo : lo + nodes]]
        s_rem[rank : rank + s.size] = s
        rank += s.size
    log_norm = spectrum.log_norm if spectrum.log_norm is not None else 0.0

    def terms(at, s_rem):
        """The leaves of the sums over the bins at(start, stop): p times
        each emitted hair, then the raw weight and p times the remnant
        entropy s_rem[start:stop]."""
        def leaf(start, stop):
            bins = at(start, stop)
            logp = logw[bins]
            out = np.empty((5, bins.size))
            exp_weights(logp + log_norm, out=out[3])
            p = exp_weights(logp, out=out[4])
            for row, x, i in zip(out, axes, np.unravel_index(bins, shape)):
                np.multiply(p, x[i] if x.size > 1 else x[0], out=row)
            out[3:] *= s_rem[start:stop]
            return out
        return leaf

    e_r, mean_q, mean_j, raw_weighted, exact = _pairwise_leaves(n, terms(at, s_rem)).tolist()
    excluded = 0.0
    defined = np.isfinite(s_rem)
    if not defined.all():  # the entropy sums run over the bins whose remnant entropy is defined
        undefined = np.zeros_like(valid)
        undefined[valid] = ~defined
        n_out, at_out = _ranked(undefined)
        excluded = float(_pairwise_leaves(n_out, lambda start, stop: exp_weights(
            logw[at_out(start, stop)])))
        n_def, at_def = _ranked(valid & ~undefined)
        raw_weighted, exact = _pairwise_leaves(n_def, terms(at_def, s_rem[defined]))[3:].tolist()
    lowenergy = bh_entropy(state.with_hairs(state.m - e_r, state.q - mean_q, state.j - mean_j))
    return ConditionalEntropyResult(
        exact=exact,
        lowenergy=lowenergy,
        raw_weighted=raw_weighted,
        e_r=e_r,
        mean_q=mean_q,
        mean_j=mean_j,
        excluded_mass=excluded,
        excluded_warning=excluded > 1e-6,
    )


def pairwise_correlation(state: BlackHoleState, e1: Emission, e2: Emission) -> float:
    """Correlation log p(e1+e2) - log p(e1) - log p(e2) between two emissions.

    Positive for the entropy-difference weights of any concave-area family:
    the second emission is more likely once the first happened. For an
    uncorrected Schwarzschild hole the closed form is 8 pi w1 w2.
    """
    return (
        emission_log_weight(state, e1 + e2)
        - emission_log_weight(state, e1)
        - emission_log_weight(state, e2)
    )


@dataclass(frozen=True)
class MutualInformationResult:
    """Mutual information of two sequential emissions, three ways (nats).

    mi_numeric is the definition sum q ln[q/(q1 q2)] under the sequential
    joint; mi_paper_form is 8 pi <w1><w2> with means from the joint's
    marginals; mi_moment_form is 8 pi <w1 w2>. The difference
    moment - paper = 8 pi Cov(w1, w2) is reported, not adjudicated.
    """

    mi_numeric: float
    mi_paper_form: float
    mi_moment_form: float
    mean_w1: float
    mean_w2: float
    covariance: float


def mutual_information(state: BlackHoleState, spec: GridSpec) -> MutualInformationResult:
    """Mutual information between two emissions of a Schwarzschild hole.

    Row i of the joint is p(w_i | M) p(w | M - w_i) on the nodes w, from one
    kernel call on w and one on the (remnant, node) pairs. Closed pairs
    weigh 0.
    """
    if state.family is not Family.SCHWARZSCHILD:
        raise UsageError("the closed forms require a Schwarzschild state")
    if spec.n_omega < 2:
        raise UsageError("mutual information needs at least 2 bins per axis")
    check_report_size(state, spec)
    w = spec.omega_nodes()
    lw1, _ = emission_log_weights(state, w)
    logq, valid = emission_log_weights_bulk(
        state.family, (state.m - w)[:, None], 0.0, 0.0, state.alpha, w[None, :]
    )
    if not valid.any():
        raise DomainError("every emission pair is a closed channel")
    logq += lw1[:, None]
    logq[~valid] = -np.inf
    logq -= logsumexp(logq[valid])
    q = exp_weights(logq, out=logq)
    q1, q2 = q.sum(axis=1), q.sum(axis=0)
    support = q > 0.0
    outer = np.outer(q1, q2)
    mi = float(np.sum(q[support] * (np.log(q[support]) - np.log(outer[support]))))
    mean1, mean2 = float(np.sum(q1 * w)), float(np.sum(q2 * w))
    moment = float(np.sum(q * np.outer(w, w)))
    return MutualInformationResult(
        mi_numeric=mi,
        mi_paper_form=8.0 * np.pi * mean1 * mean2,
        mi_moment_form=8.0 * np.pi * moment,
        mean_w1=mean1,
        mean_w2=mean2,
        covariance=moment - mean1 * mean2,
    )


@dataclass(frozen=True, eq=False)
class ChainInformationLedger:
    """Per-emission self-information bookkeeping along a complete cascade.

    The total self-information equals the entropy drop S(initial) - S(final)
    exactly (telescoping), which is the checkable statement that no
    information is lost in a complete evaporation. correlation_with_prior[i]
    is the correlation of emission i with the aggregate of all earlier ones,
    taken from the initial state; it is 0 for the first emission and nan where
    emission i alone would leave a forbidden remnant, since log p(e_i) is then
    undefined.
    """

    self_information: np.ndarray
    correlation_with_prior: np.ndarray
    total_self_information: float
    entropy_drop: float
    residual: float
    initial_entropy: float
    final_entropy: float


def chain_information_ledger(chain: EmissionChain) -> ChainInformationLedger:
    """Audit a complete chain: per-step self-information and correlations."""
    if not chain.is_complete:
        raise UsageError("information ledger needs a complete chain")
    self_info = np.array([-step.log_weight for step in chain.steps])
    corr = np.zeros(len(chain.steps))
    prior = Emission(0.0)
    for i, step in enumerate(chain.steps):
        if i > 0:
            try:
                corr[i] = pairwise_correlation(chain.initial, prior, step.emission)
            except RemnantInvalid:
                corr[i] = np.nan
        prior = prior + step.emission
    s_init = bh_entropy(chain.initial)
    s_final = bh_entropy(chain.final_state)
    total = float(np.sum(self_info))
    return ChainInformationLedger(
        self_information=self_info,
        correlation_with_prior=corr,
        total_self_information=total,
        entropy_drop=s_init - s_final,
        residual=total - (s_init - s_final),
        initial_entropy=s_init,
        final_entropy=s_final,
    )


@dataclass(frozen=True)
class InfoReport:
    """One-stop information summary of a state over an emission grid."""

    s_r: float
    s_cond: float
    s_cond_lowenergy: float
    s_cond_raw_weighted: float
    e_r: float
    e_bprime: float
    correlation_mean: float | None
    correlation_max: float | None
    mi_numeric: float | None
    mi_paper_form: float | None
    mi_moment_form: float | None
    excluded_mass: float
    excluded_warning: bool

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def check_report_size(state: BlackHoleState, spec: GridSpec) -> None:
    """Raise the usage error build_info_report raises on a spectrum of state
    over spec, mutual_information's node cap, from the two alone: the CLI
    checks it before it builds any array."""
    if state.family is Family.SCHWARZSCHILD and spec.n_omega > _MAX_MI_NODES:
        raise UsageError(f"mutual information on {spec.n_omega} omega nodes, above {_MAX_MI_NODES}")


def build_info_report(spectrum: SpectrumGrid) -> InfoReport:
    """Radiation entropy, conditional entropies, pairwise-correlation summary,
    and (for Schwarzschild) the three mutual-information forms of the
    source state, from the spectrum after spectrum.unit_sum.

    The correlation summary runs over energy-only emission pairs (w_i, w_k),
    i <= k, on the grid's omega axis (subsampled to fewer than
    2 * _MAX_CORR_NODES nodes); pairs with a closed single or combined
    channel are skipped, and where every pair is, the summary's two fields
    are None. Raises no error of its own: a number float64 cannot hold
    raises FloatingPointError where it is made (an emission log-weight, a
    remnant's entropy). The source's own entropy is not read.
    """
    state, spec = spectrum.source_state, spectrum.grid_spec
    spectrum = unit_sum(spectrum)
    s_r = radiation_entropy(spectrum)
    cond = conditional_entropy(spectrum)

    nodes = spec.omega_nodes()
    if nodes.size > _MAX_CORR_NODES:
        nodes = nodes[:: max(1, nodes.size // _MAX_CORR_NODES)]
    lw_single, v_single = emission_log_weights(state, nodes)
    lw_pair, v_pair = emission_log_weights(state, nodes[:, None] + nodes[None, :])
    open_pairs = np.triu(v_pair & v_single[:, None] & v_single[None, :])
    corr_arr = (lw_pair - lw_single[:, None] - lw_single[None, :])[open_pairs]

    mi = None
    if state.family is Family.SCHWARZSCHILD and spec.n_omega >= 2:
        try:
            mi = mutual_information(state, spec)
        except DomainError:
            pass  # every emission pair closed: no joint to take MI of
    return InfoReport(
        s_r=s_r,
        s_cond=cond.exact,
        s_cond_lowenergy=cond.lowenergy,
        s_cond_raw_weighted=cond.raw_weighted,
        e_r=cond.e_r,
        e_bprime=state.m - cond.e_r,
        correlation_mean=float(np.mean(corr_arr)) if corr_arr.size else None,
        correlation_max=float(np.max(corr_arr)) if corr_arr.size else None,
        mi_numeric=mi.mi_numeric if mi else None,
        mi_paper_form=mi.mi_paper_form if mi else None,
        mi_moment_form=mi.mi_moment_form if mi else None,
        excluded_mass=cond.excluded_mass,
        excluded_warning=cond.excluded_warning,
    )
