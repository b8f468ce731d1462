"""Shared test utilities: independent oracles and random inputs."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from entspec import EnsembleSpec, PureState, sample_blocks


def sampled_rows(spec: EnsembleSpec, count: int) -> np.ndarray:
    """The first `count` samples of `spec` as one count x 2**n array."""
    return np.concatenate(list(sample_blocks(spec, count)))


def haar_states(n: int, count: int, seed: int) -> list[PureState]:
    """The first `count` Haar samples of (n, seed), one `PureState` per row."""
    spec = EnsembleSpec("haar", n, seed)
    return [PureState(n, row) for block in sample_blocks(spec, count) for row in block]


def _sample_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def haar_row_reference(n: int, seed: int, index: int) -> np.ndarray:
    """Haar sample `index` drawn and normalized alone, one vector at a time."""
    dim = 1 << n
    g = _sample_stream(seed, index).standard_normal(2 * dim)
    z = g[:dim] + 1j * g[dim:]
    return z / np.linalg.norm(z)


def phase_sphere_row_reference(n: int, seed: int, index: int) -> np.ndarray:
    """Phase-sphere sample `index` drawn and built alone, one vector at a time."""
    dim = 1 << n
    rng = _sample_stream(seed, index)
    g = rng.standard_normal(dim)
    r = np.abs(g) / np.linalg.norm(g)
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    """Haar 2x2 unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def partial_trace_reshape(state: PureState, keep: list[int]) -> np.ndarray:
    """Partial trace by tensor reshape/transpose.

    The package's gather is a tensor transpose too, so for the gather itself
    `scatter_coefficient_matrix` below is the independent reference.

    Row index of the result carries the kept qubits in ascending order, the
    lowest kept qubit in the least-significant bit, matching the package's
    compaction convention.
    """
    n = state.n
    psi = state.amplitudes.reshape([2] * n)  # axis i holds qubit n-1-i
    keep_axes = [n - 1 - q for q in sorted(keep, reverse=True)]
    rest = [ax for ax in range(n) if ax not in keep_axes]
    psi = np.transpose(psi, keep_axes + rest).reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T


def scatter_indices(positions: list[int]) -> np.ndarray:
    """Basis indices of the subsystem spanned by `positions`, in compaction order.

    Bit t of the subsystem index is placed at qubit positions[t] by integer
    bit operations, with no tensor reshape.
    """
    src = np.arange(1 << len(positions), dtype=np.int64)
    idx = np.zeros_like(src)
    for t, pos in enumerate(positions):
        idx |= ((src >> t) & 1) << pos
    return idx


def scatter_coefficient_matrix(state: PureState, keep: list[int]) -> np.ndarray:
    """Reference Z[j_A, l_B]: the amplitudes gathered through bit-scatter index tables.

    Subsystem A is the qubits in `keep`; rows follow A's compaction order and
    columns the complement's, the package's documented convention.
    """
    a_idx = scatter_indices(sorted(keep))
    b_idx = scatter_indices([q for q in range(state.n) if q not in keep])
    return state.amplitudes[a_idx[:, None] + b_idx[None, :]]


def permute_amplitudes_bitloop(state: PureState, perm: list[int]) -> np.ndarray:
    """Reference relabelling: bit j of each basis index moves to bit perm[j]."""
    src = np.arange(state.dim, dtype=np.int64)
    dest = np.zeros_like(src)
    for j, p in enumerate(perm):
        dest |= ((src >> j) & 1) << p
    amps = np.empty_like(state.amplitudes)
    amps[dest] = state.amplitudes
    return amps


def graph_state_line(n: int) -> PureState:
    """Open-chain graph state built the circuit way: H on all, CZ on neighbors.

    Local-Z equivalent to make_cluster1d(n), so every bipartition purity
    must coincide; amplitudes themselves differ.
    """
    k = np.arange(1 << n, dtype=np.int64)
    # sign is -1 raised to the number of neighboring 1-pairs
    pairs = k & (k >> 1) & ((1 << (n - 1)) - 1)
    v = pairs.copy()
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    signs = 1.0 - 2.0 * (v & 1)
    return PureState(n, signs.astype(np.complex128) / np.sqrt(1 << n))


def path_cut_rank(n: int, mask: int) -> int:
    """GF(2) rank of the A x B block of the open-chain adjacency matrix.

    Subsystem A holds the qubits whose bits are set in `mask`.  For a graph
    state the bipartite participation number is exactly N_AB = 2**rank
    (Hein, Eisert & Briegel, PRA 69, 062311 (2004), quant-ph/0307130).  Each
    A vertex contributes one row, the bitmask of its neighbors in B, and the
    rows are reduced by integer XOR elimination.
    """
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for i in range(n):
        if not mask >> i & 1:
            continue
        row = 0
        for j in (i - 1, i + 1):
            if 0 <= j < n and not mask >> j & 1:
                row |= 1 << j
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def path_balanced_mean(n: int) -> Fraction:
    """Exact mean of 2**path_cut_rank over all C(n, n//2) balanced cuts."""
    total = sum(
        1 << path_cut_rank(n, mask)
        for mask in range(1 << n)
        if mask.bit_count() == n // 2
    )
    return Fraction(total, comb(n, n // 2))


def quartic_roots(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 via its characteristic polynomial.

    Coefficients come from Newton's identities on the power-sum traces and
    the roots from numpy's companion-matrix solver.  It never forms the
    eigenvalue problem of the matrix itself, so it stays independent of the
    package's LAPACK `eigvals` path.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    powers = [a]
    for _ in range(3):
        powers.append(powers[-1] @ a)
    s = [np.trace(p) for p in powers]
    e1 = s[0]
    e2 = (e1 * s[0] - s[1]) / 2.0
    e3 = (e2 * s[0] - e1 * s[1] + s[2]) / 3.0
    e4 = (e3 * s[0] - e2 * s[1] + e1 * s[2] - s[3]) / 4.0
    return np.roots([1.0, -e1, e2, -e3, e4])


# sigma_y (x) sigma_y: real and symmetric, so equal to its transpose and conjugate
YY = np.array(
    [[0.0, 0.0, 0.0, -1.0],
     [0.0, 0.0, 1.0, 0.0],
     [0.0, 1.0, 0.0, 0.0],
     [-1.0, 0.0, 0.0, 0.0]]
)


def concurrence_svd(state: PureState, i: int, j: int) -> float:
    """Wootters concurrence of qubits i and j from singular values, with no
    eigenvalue problem.

    With Z the 4 x 2^(n-2) coefficient matrix of the pair, rho = Z Z^dagger,
    and the eigenvalues of rho (Y x Y) rho* (Y x Y) are the squared singular
    values of M = Z^T (Y x Y) Z (M is symmetric, so M^dagger = conj(M)).  The
    lambdas are those singular values, largest first, padded with zeros to four.
    """
    z = scatter_coefficient_matrix(state, [i, j])
    sigma = np.linalg.svd(z.T @ YY @ z, compute_uv=False)[:4]  # descending
    lam = np.zeros(4)
    lam[: sigma.size] = sigma
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def match_multisets(a, b) -> float:
    """Greedy nearest matching; returns the largest pairwise distance."""
    remaining = list(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        remaining.pop(j)
    return worst


def cluster1d_bit_parity(n: int) -> np.ndarray:
    """Reference cluster amplitudes built from full-length int64 bit patterns.

    The sign of basis index k is the parity of the positions j with bit j
    clear and bit j+1 set, computed by an xor-fold popcount over the whole
    index range.  The result is float64, like the package's real states.
    """
    k = np.arange(1 << n, dtype=np.int64)
    v = (~k) & (k >> 1) & ((1 << (n - 1)) - 1)
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    signs = 1.0 - 2.0 * (v & 1)
    return signs / np.sqrt(1 << n)
