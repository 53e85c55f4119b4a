"""Random DFAs, exact pair-chain numerics, and meeting-time experiments."""

from .aux_chain import (
    AuxChain,
    AuxChainError,
    AuxEventReport,
    aux_fvtl_report,
    auto_return_horizon,
    build_aux_chain,
    check_events,
    return_mass,
)
from .chains import (
    ChainSpec,
    ConvergenceError,
    MixingProfile,
    MultipleRecurrentClassesError,
    StationaryResidualError,
    UnreachableTargetError,
    ergodic_walk_chain,
    hitting_time_expectation,
    make_chain,
    mixing_profile,
    product_matrix,
    stationary_distribution,
    walk_matrix,
)
from .dfa import (
    Dfa,
    DfaError,
    DfaFormatError,
    generate_dfa,
    parse_dfa,
    serialize_dfa,
)
from .fvtl import (
    FvtlReport,
    PerronConvergenceError,
    QuasiStationaryPair,
    fvtl_quantities,
    quasi_stationary_tail_check,
    two_state_chain,
)
from .recipes import Recipe, RecipeResult, run_recipe
from .seeds import seed_split
from .simulate import (
    RunManifest,
    TrialRecord,
    default_cap,
    read_records_csv,
    run_experiment,
    sample_coalescence,
    sample_kingman_reference,
    sample_meeting_coupled,
    sample_meeting_independent,
    sample_meeting_independent_batch,
    sample_sync,
    write_records_csv,
)
from .stats import FitReport, geometric_tail_fit, ks_distance, w1_distance

__version__ = "0.1.0"
