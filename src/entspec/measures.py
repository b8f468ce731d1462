"""Comparison measures: global Q, pairwise concurrence, tangles, and their ratio.

Q averages the linear entropy of the single-qubit reductions and is blind
to everything beyond maximally unbalanced cuts; the concurrence/tangle pair
probes exactly that pairwise structure.  Both are provided so distributions
of participation numbers can be compared against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._fmt import json_dumps
from .purity import Bipartition, purity
from .states import PureState, _qubit_axes

TAU1_DEFINED_FLOOR = 1e-12

# sigma_y (x) sigma_y is real, so a real state's spin-flip product stays real
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


class EigenConvergenceError(RuntimeError):
    """A LAPACK factorization did not converge: the QR or singular values
    behind a concurrence, or the eigenvalues of eig4."""


def eig4(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 complex matrix, in no particular order, from
    LAPACK (numpy.linalg.eigvals).  Raises EigenConvergenceError when LAPACK
    reports non-convergence.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"4x4 eigenvalues did not converge: {exc}") from exc


@dataclass(frozen=True)
class ConcurrenceResult:
    """Pairwise concurrence with the four spin-flip roots, the singular values
    of Z^T (Y x Y) Z, largest first."""

    value: float
    lambdas: tuple[float, float, float, float]


@dataclass(frozen=True)
class TangleReport:
    """Per-qubit one-tangle, two-tangle, and their ratio (None when undefined),
    with the pairwise concurrences behind the two-tangles as (i, j, C) triples
    in row-major upper-triangular order (i < j).
    """

    tau1: tuple[float, ...]
    tau2: tuple[float, ...]
    ratio: tuple[float | None, ...]
    concurrences: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        # written so that NaN fails every check
        for t1, t2 in zip(self.tau1, self.tau2):
            if not (-1e-12 <= t1 <= 1.0 + 1e-12):
                raise ValueError(f"one-tangle {t1!r} outside [0, 1]")
            if not t2 >= -1e-12:
                raise ValueError(f"two-tangle {t2!r} negative")
            if not t1 >= t2 - 1e-10:
                raise ValueError(
                    f"monogamy violated: tau1 = {t1!r} < tau2 = {t2!r}"
                )


def concurrence(state: PureState, i: int, j: int) -> ConcurrenceResult:
    """Wootters concurrence of qubits i and j.

    With Z the pair's 4 x N_B coefficient matrix (rho = Z Z^dagger), the
    spin-flip roots lambda are the singular values of Z^T (Y x Y) Z, padded
    with zeros to four (Wootters, PRL 80, 2245 (1998)), and the concurrence
    is max(0, l1 - l2 - l3 - l4).  When N_B > 4, Z is first replaced by
    R^dagger from the QR factorization Z^dagger = Q R: R^dagger R = Z Z^dagger
    leaves the lambdas unchanged and keeps the SVD at most 4x4.
    """
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError(f"qubits {i} and {j} out of range for {state.n} qubits")
    if i == j:
        raise ValueError(f"qubits must differ, got {i} and {j}")
    rest = [q for q in range(state.n) if q != i and q != j]
    z = _qubit_axes(state.amplitudes, state.n, sorted((i, j)), rest).reshape(4, -1)
    try:
        if z.shape[1] > 4:
            z = np.linalg.qr(z.conj().T, mode="r").conj().T
        sigma = np.linalg.svd(z.T @ _YY @ z, compute_uv=False)  # descending
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"spin-flip singular values: {exc}") from exc
    lam = np.zeros(4)
    lam[: sigma.size] = sigma
    value = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return ConcurrenceResult(value=value, lambdas=tuple(float(v) for v in lam))


def q_measure(state: PureState) -> float:
    """Global measure Q = 2 (1 - mean single-qubit purity), the mean one-tangle."""
    if state.n < 2:
        raise ValueError(f"Q needs at least 2 qubits, got {state.n}")
    return sum(tangle1(state, i) for i in range(state.n)) / state.n


def tangle1(state: PureState, i: int) -> float:
    """One-tangle of qubit i: 4 det(rho_i) = 2 (1 - purity of qubit i)."""
    if not (0 <= i < state.n):
        raise ValueError(f"qubit {i} out of range for {state.n} qubits")
    return 2.0 * (1.0 - purity(state, Bipartition(state.n, 1 << i)).purity)


def _tau2_and_ratio(tau1: float, row: list[float]) -> tuple[float, float | None]:
    """Two-tangle from one row of pair concurrences (ascending partner order,
    0.0 for the qubit itself) and the ratio tau2/tau1, which is None when tau1
    is numerically zero (factorized qubit)."""
    tau2 = sum(c**2 for c in row)
    return tau2, tau2 / tau1 if tau1 >= TAU1_DEFINED_FLOOR else None


def tangle2_and_R(state: PureState, i: int) -> tuple[float, float | None]:
    """Two-tangle of qubit i and the monogamy ratio tau2/tau1 (None when
    tau1 is numerically zero)."""
    if state.n < 2:
        raise ValueError(f"two-tangle needs at least 2 qubits, got {state.n}")
    row = [0.0 if j == i else concurrence(state, i, j).value for j in range(state.n)]
    return _tau2_and_ratio(tangle1(state, i), row)


def tangle_report(state: PureState) -> TangleReport:
    """Per-qubit tangles from one purity per qubit and one concurrence per pair."""
    n = state.n
    if n < 2:
        raise ValueError(f"tangle report needs at least 2 qubits, got {n}")
    pairs = tuple(combinations(range(n), 2))
    table = np.zeros((n, n))
    for i, j in pairs:
        table[i, j] = table[j, i] = concurrence(state, i, j).value
    rows = table.tolist()
    tau1 = tuple(tangle1(state, i) for i in range(n))
    tau2, ratio = zip(*map(_tau2_and_ratio, tau1, rows))
    return TangleReport(
        tau1=tau1,
        tau2=tau2,
        ratio=ratio,
        concurrences=tuple((i, j, rows[i][j]) for i, j in pairs),
    )


def format_measures_json(state: PureState) -> str:
    """Measures JSON: Q (the mean one-tangle), per-qubit tangles and ratios,
    pairwise concurrences.

    Concurrences are listed as [i, j, value] triples in row-major
    upper-triangular order (i < j).
    """
    report = tangle_report(state)
    return json_dumps(
        {
            "n": state.n,
            "Q": sum(report.tau1) / state.n,
            "tau1": report.tau1,
            "tau2": report.tau2,
            "R": report.ratio,
            "concurrence": report.concurrences,
        }
    ) + "\n"
