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
    ReducedDensity,
    complement,
    purities,
    purity,
    purity_quadruple_sum,
    reduced_density,
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
    apply_single_qubit,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_product,
    make_w,
    permute_qubits,
    sample_blocks,
    sample_haar,
    sample_phase_sphere,
    state_from_dict,
    state_to_dict,
)
from .theory import (
    GaussianModel,
    MomentProvider,
    asymptotic_model,
    concentration_ratio,
    delta_moments,
    exact_moments,
    factorized_gaussian_moments,
    marginal_amplitude_pdf,
    moment_provider,
    participation_pdf,
    purity_pdf,
    sphere_moment,
    sphere_moments,
    w_participation,
    xm_split,
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
    "MomentProvider",
    "PureState",
    "PurityResult",
    "ReducedDensity",
    "TangleReport",
    "apply_single_qubit",
    "asymptotic_model",
    "complement",
    "compute_distribution",
    "concentration_ratio",
    "concurrence",
    "delta_moments",
    "exact_moments",
    "factorized_gaussian_moments",
    "histogram",
    "make_basis",
    "make_cluster1d",
    "make_ghz",
    "make_product",
    "make_w",
    "marginal_amplitude_pdf",
    "moment_provider",
    "participation_pdf",
    "permute_qubits",
    "purities",
    "purity",
    "purity_pdf",
    "purity_quadruple_sum",
    "reduced_density",
    "sample_blocks",
    "sample_haar",
    "sample_phase_sphere",
    "sphere_moment",
    "sphere_moments",
    "state_from_dict",
    "state_to_dict",
    "tangle_report",
    "w_participation",
    "xm_split",
]

__version__ = "0.1.0"
