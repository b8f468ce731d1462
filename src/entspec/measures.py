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

from .purity import purities
from .states import PureState, _qubit_axes

TAU1_DEFINED_FLOOR = 1e-12
QR_ROWS = 1024  # rows per block of the stacked QR tree in `concurrences`

# sigma_y (x) sigma_y is real, so a real state's spin-flip product stays real
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


class EigenConvergenceError(RuntimeError):
    """A LAPACK factorization behind a concurrence did not converge: the QR
    of the pair's coefficient matrix or the singular values of Z^T (Y x Y) Z."""


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

    @property
    def q(self) -> float:
        """Global measure Q = 2 (1 - mean single-qubit purity), the mean one-tangle."""
        return sum(self.tau1) / len(self.tau1)


def concurrences(state: PureState, pairs) -> np.ndarray:
    """Spin-flip roots of every qubit pair (i, j) in `pairs`, as a
    len(pairs) x 4 float64 array, largest first in each row.

    With Z the pair's 4 x N_B coefficient matrix (rho = Z Z^dagger), the
    spin-flip roots lambda are the singular values of Z^T (Y x Y) Z, padded
    with zeros to four (Wootters, PRL 80, 2245 (1998)), and the concurrence
    is max(0, l1 - l2 - l3 - l4) (as `tangle_report` computes it).
    (i, j) and (j, i) name one pair.  Every pair is checked before anything
    is allocated; each is then copied, laid out by `_qubit_axes` with the
    bits of (lo, hi) as the row, into one 4 x N_B buffer reused across pairs,
    and Z^T is reduced to at most four rows by a tree of stacked QRs (the
    tall-skinny QR of Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
    Comput. 34, A206 (2012)): its blocks of QR_ROWS rows are factorized in
    one call and their R factors stacked, until at most four rows remain.
    With Z^T = Q R, R^T conj(R) = Z Z^dagger = rho, so Z := R^T leaves the
    lambdas unchanged and keeps the SVD at most 4 x 4.
    """
    n = state.n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"qubits {i} and {j} out of range for {n} qubits")
        if i == j:
            raise ValueError(f"qubits must differ, got {i} and {j}")
    lambdas = np.zeros((len(pairs), 4))
    if not pairs:
        return lambdas
    amps = state.amplitudes
    pair = np.empty((4, 1 << (n - 2)), amps.dtype)
    for lam, (i, j) in zip(lambdas, pairs):
        lo, hi = min(i, j), max(i, j)
        rest = [q for q in range(n) if q != lo and q != hi]
        np.copyto(pair.reshape((2,) * n), _qubit_axes(amps, n, (lo, hi), rest))
        z = pair.T  # Z^T, then its R factor
        try:
            while z.shape[0] > 4:
                rows = min(z.shape[0], QR_ROWS)
                z = np.linalg.qr(z.reshape(-1, rows, 4), mode="r").reshape(-1, 4)
            sigma = np.linalg.svd(z @ _YY @ z.T, compute_uv=False)  # descending
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(f"spin-flip singular values: {exc}") from exc
        lam[: sigma.size] = sigma
    return lambdas


def tangle_report(state: PureState) -> TangleReport:
    """Per-qubit tangles from one `purities` call over the single-qubit cuts
    and one `concurrences` call over every pair.

    tau1 = 4 det(rho_i) = 2 (1 - purity of qubit i); tau2 is the sum of the
    squared concurrences of qubit i with every other qubit; the ratio is
    tau2/tau1, or None when tau1 is numerically zero (a factorized qubit).
    """
    n = state.n
    if n < 2:
        raise ValueError(f"tangle report needs at least 2 qubits, got {n}")
    pairs = tuple(combinations(range(n), 2))
    lambdas = concurrences(state, pairs)
    table = np.zeros((n, n))
    for (i, j), lam in zip(pairs, lambdas):
        table[i, j] = table[j, i] = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    rows = table.tolist()
    single = purities(state.amplitudes[None], n, [1 << i for i in range(n)])[0]
    tau1 = tuple(2.0 * (1.0 - p) for p in single.tolist())
    tau2 = tuple(sum(c**2 for c in row) for row in rows)
    return TangleReport(
        tau1=tau1,
        tau2=tau2,
        ratio=tuple(
            t2 / t1 if t1 >= TAU1_DEFINED_FLOOR else None for t1, t2 in zip(tau1, tau2)
        ),
        concurrences=tuple((i, j, rows[i][j]) for i, j in pairs),
    )
