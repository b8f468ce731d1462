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
from .purity import Bipartition, purity, reduced_density
from .states import PureState

EIG_TOL_FACTOR = 1e-12  # subdiagonal negligible below this times the matrix norm
EIG_MAX_SWEEPS = 100

EIGVAL_SNAP = 1e-10  # spin-flip eigenvalues within this of zero are roundoff
TAU1_DEFINED_FLOOR = 1e-12

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


class EigenConvergenceError(RuntimeError):
    """QR iteration failed to drive a subdiagonal below tolerance."""


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Reduce to upper Hessenberg form by Householder similarity transforms."""
    h = a.astype(np.complex128, copy=True)
    m = h.shape[0]
    for k in range(m - 2):
        x = h[k + 1 :, k]
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        v = x.copy()
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v[0] += phase * nx
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        h[k + 1 :, :] -= 2.0 * np.outer(v, v.conj() @ h[k + 1 :, :])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v.conj())
    return h


def _givens(f: complex, g: complex) -> tuple[float, complex]:
    """Rotation [[c, s], [-conj(s), c]] with c real sending (f, g) to (r, 0)."""
    if g == 0:
        return 1.0, 0.0 + 0.0j
    if f == 0:
        return 0.0, np.conj(g) / abs(g)
    d = np.hypot(abs(f), abs(g))
    c = abs(f) / d
    s = (f / abs(f)) * np.conj(g) / d
    return c, s


def _wilkinson_shift(block: np.ndarray) -> complex:
    """Eigenvalue of the trailing 2x2 closest to the bottom-right entry."""
    a, b = block[-2, -2], block[-2, -1]
    c, d = block[-1, -2], block[-1, -1]
    disc = np.sqrt((a - d) ** 2 + 4.0 * b * c + 0.0j)
    r1 = (a + d + disc) / 2.0
    r2 = (a + d - disc) / 2.0
    return r1 if abs(r1 - d) <= abs(r2 - d) else r2


def _shifted_qr_step(block: np.ndarray, shift: complex) -> np.ndarray:
    """One explicit QR step: factor (block - shift*I), recombine as RQ + shift*I."""
    k = block.shape[0]
    t = block - shift * np.eye(k)
    rotations = []
    for i in range(k - 1):
        c, s = _givens(t[i, i], t[i + 1, i])
        rotations.append((c, s))
        rows = t[i : i + 2, :].copy()
        t[i, :] = c * rows[0] + s * rows[1]
        t[i + 1, :] = -np.conj(s) * rows[0] + c * rows[1]
    for i, (c, s) in enumerate(rotations):
        cols = t[:, i : i + 2].copy()
        t[:, i] = c * cols[:, 0] + np.conj(s) * cols[:, 1]
        t[:, i + 1] = -s * cols[:, 0] + c * cols[:, 1]
    return t + shift * np.eye(k)


def eig4(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 complex matrix, in no particular order.

    Householder reduction to Hessenberg form followed by explicitly shifted
    QR iteration with Wilkinson shifts; an eigenvalue deflates once the
    adjacent subdiagonal falls below 1e-12 times the Frobenius norm of the
    input.  Raises EigenConvergenceError after a bounded number of sweeps.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(4, dtype=np.complex128)
    tol = EIG_TOL_FACTOR * scale
    h = _hessenberg(a)
    eigs = np.empty(4, dtype=np.complex128)
    m = 3
    sweeps = 0
    while True:
        while m > 0 and abs(h[m, m - 1]) < tol:
            eigs[m] = h[m, m]
            m -= 1
        if m == 0:
            eigs[0] = h[0, 0]
            return eigs
        p = m
        while p > 0 and abs(h[p, p - 1]) >= tol:
            p -= 1
        block = h[p : m + 1, p : m + 1]
        h[p : m + 1, p : m + 1] = _shifted_qr_step(block, _wilkinson_shift(block))
        sweeps += 1
        if sweeps > EIG_MAX_SWEEPS:
            raise EigenConvergenceError(
                f"subdiagonal above {tol!r} after {sweeps} QR sweeps"
            )


@dataclass(frozen=True)
class ConcurrenceResult:
    """Pairwise concurrence with the four sorted spin-flip singular values."""

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


def _pair_density(state: PureState, i: int, j: int) -> np.ndarray:
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError(f"qubits {i} and {j} out of range for {state.n} qubits")
    if i == j:
        raise ValueError(f"qubits must differ, got {i} and {j}")
    if state.n == 2:
        # the whole state already lives on the pair
        return np.outer(state.amplitudes, state.amplitudes.conj())
    part = Bipartition(state.n, (1 << i) | (1 << j))
    return reduced_density(state, part).entries


def concurrence(state: PureState, i: int, j: int) -> ConcurrenceResult:
    """Wootters concurrence of qubits i and j.

    Forms R = rho (Y x Y) rho* (Y x Y) on the two-qubit reduction, takes the
    square roots of its eig4 eigenvalues, and returns
    max(0, l1 - l2 - l3 - l4) over the decreasing-sorted roots.  The product
    has non-negative spectrum only in exact arithmetic, so eigenvalues within
    EIGVAL_SNAP of zero are snapped to zero before the square root (a
    leftover 1e-17 would otherwise surface as a 1e-8 error in the root).
    """
    rho = _pair_density(state, i, j)
    evals = eig4(rho @ _YY @ rho.conj() @ _YY).real
    evals[np.abs(evals) < EIGVAL_SNAP] = 0.0
    lam = np.sqrt(np.clip(evals, 0.0, None))
    lam = np.sort(lam)[::-1]
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
