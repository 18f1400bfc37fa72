"""Two-site entanglement structure of 1D quadratic fermion chains.

The package computes Wootters concurrences of site pairs in ground states of
the SSH and Kitaev chains, from closed-form momentum sums and from the
real-space Wick data of each pair's X state: one FFT on clean rings, a closed
form on clean open SSH chains, the particle matrix or its polar factor on
other chains (Majorana flattening and dense RDMs remain only as checks).
"""

from .analysis import (
    CriticalReport,
    DisorderTable,
    KitaevDensityTable,
    LogFitResult,
    ObcTable,
    SweepResult,
    central_pair_concurrence,
    critical_report,
    deta1,
    disorder_ensemble,
    eta1,
    eta2,
    find_lambda_minus,
    find_lambda_plus,
    free_energy_check,
    jump_at_zero,
    kitaev_density,
    kitaev_density_jump,
    kitaev_local_density,
    logfit,
    obc_center_derivative,
    obc_fill_count,
    slope_c1_at_lambda_plus,
    sweep,
)
from .entanglement import (
    EntangledGraph,
    EtaValue,
    Phase,
    TwoSiteRDM,
    classify_phase,
    concurrence,
    concurrence_from_eta,
    entangled_graph,
    eta_analytic,
    eta_thermodynamic,
    rdm_matrix_from_eta,
    rdm_pair,
)
from .errors import (
    ChainentError,
    DegenerateFillError,
    DisorderUnsupportedError,
    GaplessError,
    GridTooCoarseError,
    InvalidStateError,
    NoRootError,
    OddDimensionError,
    ParityError,
    SizeError,
    WindowError,
)
from .gaussian import (
    BlockDiagonalization,
    ReducedDensityMatrix,
    block_diagonalize,
    canonical_blocks,
    flatten_from_fill,
    majorana_correlator,
    pfaffian,
    rdm_from_restriction,
    restrict,
    spectral_flatten,
)
from .models import (
    Boundary,
    DisorderSpec,
    Family,
    ModelSpec,
    bloch_vector,
    momentum_grid,
    realspace_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
