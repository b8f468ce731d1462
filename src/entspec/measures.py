"""Comparison measures: global Q, pairwise concurrence, tangles, and their ratio.

Q averages the linear entropy of the single-qubit reductions and is blind
to everything beyond maximally unbalanced cuts; the concurrence/tangle pair
probes exactly that pairwise structure.  Both are provided so distributions
of participation numbers can be compared against them.  `tangle_report`
takes them from a state's amplitudes; `named_tangle_report` takes them for
a named state by the rules of its `states.KINDS` entry, without building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .purity import _cut_matrices, _deal, purities
from .states import PureState, _integer, named

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
    (i, j) and (j, i) name one pair, and each qubit is an integer by the rule
    of `purities`' masks: any type with __index__, but not bool.  Every pair
    is checked (ValueError) before anything is allocated; each is then read
    by `purity._cut_matrices` as the cut 1 << i | 1 << j, with the bits of
    (lo, hi) as the row (a view when the pair is (0, 1) or (n-2, n-1), a
    copy into a worker's one buffer otherwise), and Z^T is reduced to at most
    four rows by a tree of stacked QRs (the tall-skinny QR of Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, A206 (2012)): its
    blocks of QR_ROWS rows are factorized in one call and their R factors
    stacked, until at most four rows remain.
    With Z^T = Q R, R^T conj(R) = Z Z^dagger = rho, so Z := R^T leaves the
    lambdas unchanged and keeps the SVD at most 4 x 4.  `purity._deal` runs
    the pairs at one BLAS thread and deals them, each counted at 32 N_B real
    multiply-adds (its QR tree's 16 N_B and as much again for the gather), so
    no row depends on the worker count.
    """
    n = state.n
    masks = []
    for i, j in pairs:
        i, j = _integer(i, "qubit"), _integer(j, "qubit")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"qubits {i} and {j} out of range for {n} qubits")
        if i == j:
            raise ValueError(f"qubits must differ, got {i} and {j}")
        masks.append(1 << i | 1 << j)
    block = state.amplitudes[None]
    scale = 4 if block.dtype == np.complex128 else 1  # real multiply-adds per multiply-add
    lambdas = np.zeros((len(masks), 4))

    def run(share):  # one worker's pairs, through a gather of its own
        for (u, _), z in zip(share, _cut_matrices(block, n, [m for _, m in share])):
            z = z[0].T  # Z^T, then its R factor
            try:
                while z.shape[0] > 4:
                    rows = min(z.shape[0], QR_ROWS)
                    z = np.linalg.qr(z.reshape(-1, rows, 4), mode="r").reshape(-1, 4)
                sigma = np.linalg.svd(z @ _YY @ z.T, compute_uv=False)  # descending
            except np.linalg.LinAlgError as exc:
                raise EigenConvergenceError(f"spin-flip singular values: {exc}") from exc
            lambdas[u, : sigma.size] = sigma

    _deal(list(enumerate(masks)), len(masks) * scale << (n + 3), run, block.nbytes)
    return lambdas


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every qubit pair (i, j) of n qubits, i < j, in row-major order: the
    report's pair order.  ValueError below 2 qubits."""
    if n < 2:
        raise ValueError(f"tangle report needs at least 2 qubits, got {n}")
    return tuple(combinations(range(n), 2))


def _report(pairs, values, single: np.ndarray) -> TangleReport:
    """The one rule from a source's measures to its report, for both paths:
    `values` holds the concurrence of each of `_pairs`' pairs, and `single`
    the purity across each single-qubit cut 1 << i.

    tau1 = 4 det(rho_i) = 2 (1 - purity of qubit i); tau2 is the sum of the
    squared concurrences of qubit i's pairs, added from 0 in pair order
    (its pairs with j < i, then with j > i); the ratio is tau2/tau1, or None
    when tau1 is numerically zero (a factorized qubit).  The concurrence
    triples are the pairs with their values, in pair order.
    """
    tau2 = [0] * single.size
    for (i, j), c in zip(pairs, values):
        tau2[i] += c**2
        tau2[j] += c**2
    tau1 = tuple(2.0 * (1.0 - p) for p in single.tolist())
    return TangleReport(
        tau1=tau1,
        tau2=tuple(tau2),
        ratio=tuple(
            t2 / t1 if t1 >= TAU1_DEFINED_FLOOR else None for t1, t2 in zip(tau1, tau2)
        ),
        concurrences=tuple((i, j, c) for (i, j), c in zip(pairs, values)),
    )


def tangle_report(state: PureState) -> TangleReport:
    """Per-qubit tangles of a state's amplitudes, from one `concurrences`
    call over every pair, C = max(0, l1 - l2 - l3 - l4), and one `purities`
    call over the single-qubit cuts; `_report` combines them.  ValueError
    below 2 qubits, before either call."""
    n = state.n
    pairs = _pairs(n)
    values = [max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
              for lam in concurrences(state, pairs)]
    single = purities(state.amplitudes[None], n, [1 << i for i in range(n)])[0]
    return _report(pairs, values, single)


def named_tangle_report(kind: str, n: int) -> TangleReport:
    """The `tangle_report` of the named state `kind` (a key of
    `states.KINDS`) of n qubits, by the kind's rules: no state, QR, BLAS or
    threads.  The single-qubit purities come from the kind's purity rule and
    every pair's concurrence from its closed form, each rounded once, so the
    report does not depend on the host or the BLAS build (and a basis
    state's index does not change it).  ValueError for an unknown kind, for
    n outside the kind's constructor's range (`states.named`, with its
    messages), and below 2 qubits as `tangle_report`."""
    entry = named(kind, n)
    pairs = _pairs(n)
    single = entry.purities(n, 1 << np.arange(n, dtype=np.int64))
    return _report(pairs, [entry.concurrence(n)] * len(pairs), single)
