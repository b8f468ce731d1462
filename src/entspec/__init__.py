"""Distributions of bipartite purity over qubit bipartitions.

Characterizes multipartite entanglement of n-qubit pure states through the
probability density of the participation number N_AB = 1/purity over
families of bipartitions, alongside closed-form random-state statistics and
comparison measures (Q, concurrence, tangles).

Importing the package lets idle OpenBLAS workers sleep instead of spin: see
`_blas`, which sets `OPENBLAS_THREAD_TIMEOUT` only while numpy loads, only
when the user has not set it, and leaves the environment as found.
"""

# `_blas` first: it sets the OpenBLAS thread timeout before numpy loads, and
# any other submodule would import numpy before it could.
from . import _blas
from .measures import (
    EigenConvergenceError,
    TangleReport,
    concurrences,
    named_tangle_report,
    tangle_report,
)
from .purity import purities
from .spectra import (
    BipartitionFamily,
    Histogram,
    histogram,
    named_purities,
    participation_statistics,
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
    "BipartitionFamily",
    "EigenConvergenceError",
    "EnsembleSpec",
    "GaussianModel",
    "Histogram",
    "PureState",
    "TangleReport",
    "asymptotic_model",
    "concurrences",
    "exact_moments",
    "histogram",
    "make_basis",
    "make_cluster1d",
    "make_ghz",
    "make_w",
    "named_purities",
    "named_tangle_report",
    "participation_pdf",
    "participation_statistics",
    "purities",
    "purity_pdf",
    "sample_blocks",
    "sphere_moment",
    "state_from_dict",
    "state_to_dict",
    "tangle_report",
]

__version__ = "0.1.0"
