"""Two-site entanglement structure of 1D quadratic fermion chains.

The package computes Wootters concurrences of site pairs in ground states of
the SSH and Kitaev chains, from closed-form momentum sums and from the
real-space Wick data of each pair's X state: one FFT on clean rings, a closed
form on clean open SSH chains, the particle matrix or its polar factor on
other chains.  Majorana flattening and dense RDMs remain only as checks, in
:mod:`chainent.reference`.
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
    free_energy_check,
    jump_at_zero,
    kitaev_density,
    logfit,
    obc_center_derivative,
    obc_fill_count,
    sweep,
)
from .entanglement import (
    EntangledGraph,
    Phase,
    classify_phase,
    concurrence_from_eta,
    entangled_graph,
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
from .models import (
    Boundary,
    DisorderSpec,
    Family,
    ModelSpec,
    bloch_vector,
    momentum_grid,
)
from .reference import (
    BlockDiagonalization,
    ReducedDensityMatrix,
    TwoSiteRDM,
    block_diagonalize,
    canonical_blocks,
    concurrence,
    eta_analytic,
    majorana_correlator,
    pfaffian,
    rdm_from_restriction,
    rdm_matrix_from_eta,
    rdm_pair,
    realspace_hamiltonian,
    restrict,
    spectral_flatten,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
