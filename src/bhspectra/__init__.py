"""Non-thermal black-hole radiation spectra derived from entropy functions,
with evaporation cascades, typicality experiments, and information ledgers.

The public names below are resolved on first access (PEP 562), so
`import bhspectra` loads no submodule and no numpy; `bhspectra.X` imports the
submodule that defines X and caches X here.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "blackholes": (
        "BlackHoleState",
        "Emission",
        "Family",
        "apply_emission",
        "bh_entropy",
        "hawking_temperature",
        "horizon_radius",
        "is_extremal",
        "state_from_record",
        "state_to_record",
    ),
    "cascade": (
        "CascadeEnsembleStats",
        "CascadePolicy",
        "CascadeStep",
        "EmissionChain",
        "Termination",
        "cascade_ensemble_stats",
        "chain_identity",
        "chain_log_probability",
        "ensemble_stats_from_chains",
        "enumerate_chains",
        "sample_cascade",
    ),
    "errors": (
        "BhspectraError",
        "DomainError",
        "RemnantInvalid",
        "UsageError",
    ),
    "information": (
        "ChainInformationLedger",
        "ConditionalEntropyResult",
        "InfoReport",
        "MutualInformationResult",
        "build_info_report",
        "chain_information_ledger",
        "conditional_entropy",
        "mutual_information",
        "pairwise_correlation",
        "radiation_entropy",
    ),
    "spectrum": (
        "GridSpec",
        "Normalization",
        "SpectrumComparison",
        "SpectrumGrid",
        "build_spectrum",
        "build_thermal_spectrum",
        "compare_thermal",
        "emission_log_weight",
        "emission_log_weights",
        "thermal_log_weight",
        "unit_sum",
    ),
    "typicality": (
        "EnergyLedger",
        "ReducedDensity",
        "TypicalityLabReport",
        "concentration",
        "lab_ledger",
        "level_diagonal",
        "microcanonical_weights",
        "offdiagonal_rms",
        "sample_reduced_density",
        "typicality_lab",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
