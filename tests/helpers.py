"""Shared test utilities: independent oracles, state fixtures and random inputs.

The purity oracles (`purity_quadruple_sum`, `xm_split`) and the concurrence
references gather Z through `scatter_coefficient_matrix`, which places each
subsystem bit by integer bit operations; they share no code with the
package's tensor-transpose gather, the one they check.  The fixtures that
relabel qubits (`permute_amplitudes_bitloop`) or act on them
(`make_product`, `apply_single_qubit`) do not go through that gather either.
"""

from __future__ import annotations

import ctypes
import math
from fractions import Fraction

import numpy as np

from entspec import EnsembleSpec, PureState, _blas, sample_blocks
from entspec.states import _check_qubits


def blas_core() -> str | None:
    """The OpenBLAS core this process runs, as OpenBLAS names it ("SkylakeX",
    "Haswell", "Sandybridge", ...), read through
    `scipy_openblas_get_corename64_` in numpy's OpenBLAS as `_blas` opens
    it; None where there is no such library or symbol.  OPENBLAS_CORETYPE
    picks the core when the library loads, so a forced core shows here."""
    corename = getattr(_blas._library(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


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


def make_product(a: PureState, b: PureState) -> PureState:
    """Tensor product; qubits of `a` keep positions 0..n_a-1, `b` fills the rest."""
    n = a.n + b.n
    _check_qubits(n, 1, "product state")
    # index k = k_b * 2**n_a + k_a, so b supplies the high bits
    return PureState(n, np.kron(b.amplitudes, a.amplitudes))


def apply_single_qubit(state: PureState, qubit: int, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one qubit (norm is re-checked on construction).

    A real `u` keeps a real state real.
    """
    if not (0 <= qubit < state.n):
        raise ValueError(f"qubit {qubit} out of range for {state.n} qubits")
    u = np.asarray(u)
    if u.shape != (2, 2):
        raise ValueError("single-qubit operator must be 2x2")
    arr = state.amplitudes.reshape(-1, 2, 1 << qubit)
    return PureState(state.n, np.einsum("ab,ibj->iaj", u, arr).reshape(-1))


def w_participation(n: int, n_a: int) -> float:
    """Participation number of the n-qubit W state across any cut of size n_a."""
    if not (1 <= n_a < n):
        raise ValueError(f"subsystem size {n_a} invalid for {n} qubits")
    n_b = n - n_a
    return n**2 / (n_a**2 + n_b**2)


def marginal_amplitude_pdf(N: int, r):
    """Density of a single modulus of a sphere-uniform N-vector, on [0, 1].

    p(r) = (2/sqrt(pi)) * Gamma(N/2)/Gamma((N-1)/2) * (1 - r^2)^((N-3)/2),
    evaluated through log-gamma so large N does not overflow.
    """
    if N < 4:
        raise ValueError(f"dimension must be >= 4, got {N}")
    r = np.asarray(r, dtype=np.float64)
    if not np.all((0 <= r) & (r <= 1)):  # written so that NaN fails too
        raise ValueError("modulus must lie in [0, 1]")
    log_norm = (
        math.log(2.0 / math.sqrt(math.pi))
        + math.lgamma(N / 2.0)
        - math.lgamma((N - 1) / 2.0)
    )
    with np.errstate(divide="ignore"):  # r = 1 gives log(0) -> density 0
        out = np.exp(log_norm + ((N - 3) / 2.0) * np.log1p(-(r**2)))
    return float(out) if out.ndim == 0 else out


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


def mask_qubits(mask: int) -> list[int]:
    """The qubits whose bits are set in `mask`, ascending."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def purity_quadruple_sum(state: PureState, mask: int) -> float:
    """Slow oracle: the purity across `mask` as a literal quadruple index sum.

    Evaluates sum_{j,j',l,l'} z_{jl} conj(z_{j'l}) z_{j'l'} conj(z_{jl'}) term
    by term over the bit-scatter Z (optimize=False keeps einsum from
    factorizing the contraction into the Gram form).  O(N_A^2 N_B^2), so for
    small n only.
    """
    z = scatter_coefficient_matrix(state, mask_qubits(mask))
    val = np.einsum("jl,Jl,JL,jL->", z, z.conj(), z, z.conj(), optimize=False)
    return float(np.real(val))


def xm_split(state: PureState, mask: int) -> tuple[float, float]:
    """Split the purity across `mask` into its phase-bearing and modulus-only parts.

    Writing z = r * exp(i*phi) on the N_A x N_B index grid of the bit-scatter
    Z, the cross part X sums the terms with both row and column indices
    distinct (the only ones that keep their phases), and M collects the
    same-row, same-column, and fourth-power terms, which depend on the moduli
    alone.  X + M equals the purity.  Evaluated literally (O(N_A^2 N_B^2)).
    """
    z = scatter_coefficient_matrix(state, mask_qubits(mask))
    r = np.abs(z)
    w = r * np.exp(1j * np.angle(z))
    off_a = 1.0 - np.eye(z.shape[0])
    off_b = 1.0 - np.eye(z.shape[1])
    x = np.einsum(
        "jl,Jl,JL,jL,jJ,lL->", w, w.conj(), w, w.conj(), off_a, off_b, optimize=False
    )
    r2 = r**2
    m = (
        np.einsum("jl,Jl,jJ->", r2, r2, off_a, optimize=False)
        + np.einsum("jl,jL,lL->", r2, r2, off_b, optimize=False)
        + np.sum(r2**2)
    )
    return float(np.real(x)), float(m)


def permute_amplitudes_bitloop(state: PureState, perm: list[int]) -> np.ndarray:
    """Reference relabelling: bit j of each basis index moves to bit perm[j]."""
    src = np.arange(1 << state.n, dtype=np.int64)
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


def cluster_rank_steps(n: int, masks: np.ndarray) -> np.ndarray:
    """Cut rank of the open chain for each mask of an int64 array, run by run.

    The chain edges that cross the cut form runs, and a run of E edges has
    rank ceil(E/2).  Each of at most n/2 vectorized steps counts every run's
    lowest edge, then clears it and the edge above it.
    """
    edges = (masks ^ (masks >> 1)) & ((1 << (n - 1)) - 1)  # bit q: edge (q, q + 1)
    rank = np.zeros(masks.shape, np.int64)
    for _ in range(n // 2):
        lowest = edges & ~(edges << 1)
        rank += np.bitwise_count(lowest)
        edges &= ~(lowest | lowest << 1)
    assert not edges.any()
    return rank


def path_balanced_mean(n: int) -> Fraction:
    """Exact mean of 2**path_cut_rank over all C(n, n//2) balanced cuts."""
    total = sum(
        1 << path_cut_rank(n, mask)
        for mask in range(1 << n)
        if mask.bit_count() == n // 2
    )
    return Fraction(total, math.comb(n, n // 2))


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


def concurrence_qr(state: PureState, i: int, j: int) -> np.ndarray:
    """Spin-flip roots of qubits i and j through one QR of the whole pair
    matrix, largest first and padded with zeros to four.

    With Z the 4 x 2^(n-2) coefficient matrix of the pair, gathered by bit
    scatter, Z is replaced by R^dagger from the single QR Z^dagger = Q R when
    it has more than four columns (R^dagger R = Z Z^dagger), and the roots
    are the singular values of Z^T (Y x Y) Z.
    """
    z = scatter_coefficient_matrix(state, [i, j])
    if z.shape[1] > 4:
        z = np.linalg.qr(z.conj().T, mode="r").conj().T
    sigma = np.linalg.svd(z.T @ YY @ z, compute_uv=False)  # descending
    lam = np.zeros(4)
    lam[: sigma.size] = sigma
    return lam


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
