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

from .blackholes import BlackHoleState, Emission, Family, bh_entropy, entropy_grid, logsumexp
from .errors import DomainError, RemnantInvalid, UsageError
from .grids import GridSpec, Normalization, SpectrumGrid
from .spectrum import emission_log_weight, emission_log_weights, emission_log_weights_bulk

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
    """Shannon entropy -sum p ln p of a unit-sum spectrum's valid bins."""
    if spectrum.normalization is not Normalization.UNIT_SUM:
        raise UsageError("radiation entropy needs a unit-sum spectrum")
    logp = spectrum.log_weight[spectrum.valid]
    with np.errstate(under="ignore"):
        p = np.exp(logp)
    return float(0.0 - np.sum(np.where(p > 0.0, p * logp, 0.0)))  # 0.0, not -0.0


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


def conditional_entropy(
    state: BlackHoleState, spectrum: SpectrumGrid
) -> ConditionalEntropyResult:
    """Average remnant entropy over the spectrum, exact and low-energy forms.

    exact weights each remnant's entropy by the bin probability; lowenergy
    evaluates the entropy once at the mean remnant hairs
    (M - <omega>, Q - <q>, J - <j>). Bins whose remnant entropy is undefined
    are excluded and their probability mass reported.
    """
    if spectrum.normalization is not Normalization.UNIT_SUM:
        raise UsageError("conditional entropy needs a unit-sum spectrum")
    if spectrum.source_state != state:
        raise UsageError("spectrum was built from a different state")
    v = spectrum.valid
    logp = spectrum.log_weight[v]
    with np.errstate(under="ignore"):
        p = np.exp(logp)
    # The valid bins' emitted hairs, their means, then in place the remnant's.
    hairs = [x[v] for x in spectrum.grid_spec.bins()]
    e_r, mean_q, mean_j = (float(np.sum(p * x)) for x in hairs)
    for total, x in zip((state.m, state.q, state.j), hairs):
        np.subtract(total, x, out=x)
    s_rem = entropy_grid(state.family, *hairs, state.alpha)
    defined = np.isfinite(s_rem)
    excluded = float(np.sum(p[~defined]))
    exact = float(np.sum(p[defined] * s_rem[defined]))
    lowenergy = bh_entropy(state.with_hairs(state.m - e_r, state.q - mean_q, state.j - mean_j))
    log_norm = spectrum.log_norm if spectrum.log_norm is not None else 0.0
    with np.errstate(under="ignore"):
        raw = np.exp(logp + log_norm)
    raw_weighted = float(np.sum(raw[defined] * s_rem[defined]))
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
    if spec.n_omega > _MAX_MI_NODES:
        raise UsageError(f"mutual information on {spec.n_omega} omega nodes, above {_MAX_MI_NODES}")
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
    with np.errstate(under="ignore"):
        q = np.exp(logq, out=logq)
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
    correlation_mean: float
    correlation_max: float
    mi_numeric: float | None
    mi_paper_form: float | None
    mi_moment_form: float | None
    excluded_mass: float
    excluded_warning: bool

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def build_info_report(state: BlackHoleState, spectrum: SpectrumGrid) -> InfoReport:
    """Radiation entropy, conditional entropies, pairwise-correlation summary,
    and (for Schwarzschild) the three mutual-information forms, from the
    unit-sum spectrum of `state` on its grid.

    The correlation summary runs over energy-only emission pairs (w_i, w_k),
    i <= k, on the grid's omega axis (subsampled to fewer than
    2 * _MAX_CORR_NODES nodes); pairs with a closed single or combined
    channel are skipped.
    """
    spec = spectrum.grid_spec
    s_r = radiation_entropy(spectrum)
    cond = conditional_entropy(state, spectrum)

    nodes = spec.omega_nodes()
    if nodes.size > _MAX_CORR_NODES:
        nodes = nodes[:: max(1, nodes.size // _MAX_CORR_NODES)]
    lw_single, v_single = emission_log_weights(state, nodes)
    lw_pair, v_pair = emission_log_weights(state, nodes[:, None] + nodes[None, :])
    open_pairs = np.triu(v_pair & v_single[:, None] & v_single[None, :])
    corr_arr = (lw_pair - lw_single[:, None] - lw_single[None, :])[open_pairs]
    if not corr_arr.size:
        corr_arr = np.zeros(1)

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
        correlation_mean=float(np.mean(corr_arr)),
        correlation_max=float(np.max(corr_arr)),
        mi_numeric=mi.mi_numeric if mi else None,
        mi_paper_form=mi.mi_paper_form if mi else None,
        mi_moment_form=mi.mi_moment_form if mi else None,
        excluded_mass=cond.excluded_mass,
        excluded_warning=cond.excluded_warning,
    )
