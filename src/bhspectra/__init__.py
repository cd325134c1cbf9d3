"""Non-thermal black-hole radiation spectra derived from entropy functions,
with evaporation cascades, typicality experiments, and information ledgers."""

__version__ = "0.1.0"

from .blackholes import (
    BlackHoleState,
    Emission,
    Family,
    apply_emission,
    bh_entropy,
    hawking_temperature,
    horizon_radius,
    is_extremal,
    state_from_record,
    state_to_record,
)
from .cascade import (
    CascadeEnsembleStats,
    CascadePolicy,
    CascadeStep,
    EmissionChain,
    Termination,
    cascade_ensemble_stats,
    chain_identity,
    chain_log_probability,
    ensemble_stats_from_chains,
    enumerate_chains,
    sample_cascade,
)
from .errors import (
    BhspectraError,
    DomainError,
    RemnantInvalid,
    UsageError,
    VerificationFailure,
)
from .grids import GridSpec, Normalization, SpectrumGrid
from .information import (
    ChainInformationLedger,
    ConditionalEntropyResult,
    InfoReport,
    MutualInformationResult,
    build_info_report,
    chain_information_ledger,
    conditional_entropy,
    mutual_information,
    pairwise_correlation,
    radiation_entropy,
    sequential_joint,
)
from .spectrum import (
    SpectrumComparison,
    build_spectrum,
    build_thermal_spectrum,
    compare_thermal,
    emission_log_weight,
    emission_log_weights,
    entropy_function_for,
    thermal_log_weight,
)
from .typicality import (
    EnergyLedger,
    EntropyFunction,
    MacroState,
    PureStateSample,
    ReducedDensity,
    TypicalityLabReport,
    lab_ledger,
    level_diagonal,
    microcanonical_weights,
    offdiagonal_rms,
    reduce_to_system,
    sample_universe_state,
    spectrum_from_entropy,
    typicality_lab,
)
