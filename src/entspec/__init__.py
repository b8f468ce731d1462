"""Distributions of bipartite purity over qubit bipartitions.

Characterizes multipartite entanglement of n-qubit pure states through the
probability density of the participation number N_AB = 1/purity over
families of bipartitions, alongside closed-form random-state statistics and
comparison measures (Q, concurrence, tangles).
"""

from .measures import (
    ConcurrenceResult,
    EigenConvergenceError,
    TangleReport,
    concurrence,
    tangle_report,
)
from .purity import (
    Bipartition,
    PurityResult,
    purities,
    purity,
)
from .spectra import (
    BipartitionFamily,
    EntanglementDistribution,
    Histogram,
    compute_distribution,
    histogram,
)
from .states import (
    EnsembleSpec,
    PureState,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_w,
    sample_blocks,
    state_from_dict,
    state_to_dict,
)
from .theory import (
    GaussianModel,
    asymptotic_model,
    exact_moments,
    participation_pdf,
    purity_pdf,
    sphere_moment,
)

__all__ = [
    "Bipartition",
    "BipartitionFamily",
    "ConcurrenceResult",
    "EigenConvergenceError",
    "EnsembleSpec",
    "EntanglementDistribution",
    "GaussianModel",
    "Histogram",
    "PureState",
    "PurityResult",
    "TangleReport",
    "asymptotic_model",
    "compute_distribution",
    "concurrence",
    "exact_moments",
    "histogram",
    "make_basis",
    "make_cluster1d",
    "make_ghz",
    "make_w",
    "participation_pdf",
    "purities",
    "purity",
    "purity_pdf",
    "sample_blocks",
    "sphere_moment",
    "state_from_dict",
    "state_to_dict",
    "tangle_report",
]

__version__ = "0.1.0"
