"""Reference values the benchmark checks CLI output against.

Everything here is computed without importing entspec: graph-state purities
from the GF(2) cut-rank, reduced states by tensor reshape and partial trace,
W-state measures from closed forms, and the exact ensemble mean purity in
rational arithmetic.  Random states are regenerated from the sampling
contract the package documents (one PCG64 stream per sample, split from
(seed, index) by SeedSequence).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def masks_with_popcount(n: int, k: int) -> list[int]:
    """All n-bit masks with k set bits, ascending."""
    return sorted(sum(1 << j for j in c) for c in combinations(range(n), k))


def path_cut_rank(n: int, mask: int) -> int:
    """GF(2) rank of the A x B block of the open-chain adjacency matrix.

    For a graph state, the participation number across the cut is
    2**rank (Hein, Eisert & Briegel, PRA 69, 062311).
    """
    b_pos = [j for j in range(n) if not (mask >> j) & 1]
    col = {q: t for t, q in enumerate(b_pos)}
    # rows of the block as bitmasks over B; the basis keeps distinct leading
    # bits in descending order, so one pass of min(row, row ^ v) reduces a row
    basis: list[int] = []
    for a in (j for j in range(n) if (mask >> j) & 1):
        row = 0
        for q in (a - 1, a + 1):
            if q in col:
                row |= 1 << col[q]
        for v in basis:
            row = min(row, row ^ v)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def path_graph_amplitudes(n: int) -> np.ndarray:
    """Open-chain graph state: Hadamards on all qubits, CZ on each neighbour pair."""
    k = np.arange(1 << n)
    sign = np.zeros(1 << n, dtype=np.int64)
    for j in range(n - 1):
        sign ^= (k >> j) & (k >> (j + 1)) & 1
    return (1.0 - 2.0 * sign) / math.sqrt(1 << n)


def w_amplitudes(n: int) -> np.ndarray:
    amps = np.zeros(1 << n)
    amps[[1 << j for j in range(n)]] = 1.0 / math.sqrt(n)
    return amps


def reduced_state(amps: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """rho over the qubits in `keep`, by reshape and a partial trace over the rest.

    Little-endian indexing: tensor axis i carries qubit n-1-i.
    """
    psi = np.asarray(amps).reshape([2] * n)
    keep_axes = [n - 1 - q for q in keep]
    trace_axes = [ax for ax in range(n) if ax not in keep_axes]
    rho = np.tensordot(psi, psi.conj(), axes=(trace_axes, trace_axes))
    d = 1 << len(keep)
    return rho.reshape(d, d)


def reshape_purity(amps: np.ndarray, n: int, mask: int) -> float:
    rho = reduced_state(amps, n, [j for j in range(n) if (mask >> j) & 1])
    return float(np.real(np.trace(rho @ rho)))


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def haar_sample(n: int, seed: int, index: int) -> np.ndarray:
    dim = 1 << n
    g = _sample_rng(seed, index).standard_normal(2 * dim)
    z = g[:dim] + 1j * g[dim:]
    return z / np.linalg.norm(z)


def phase_sphere_sample(n: int, seed: int, index: int) -> np.ndarray:
    dim = 1 << n
    rng = _sample_rng(seed, index)
    g = rng.standard_normal(dim)
    r = np.abs(g) / np.linalg.norm(g)
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))


def family_summary(participations: list[float]) -> dict[str, float]:
    """Mean, population and sample variance, min and max, as the sample CLI reports them."""
    v = np.asarray(participations)
    return {
        "mean": float(v.mean()),
        "var_population": float(v.var()),
        "var_sample": float(v.var(ddof=1)),
        "min": float(v.min()),
        "max": float(v.max()),
    }


def w_measures(n: int) -> dict[str, float]:
    """Closed forms for the n-qubit W state: Q = tau1 = tau2 = 4(n-1)/n^2, C_ij = 2/n, R = 1."""
    t = 4.0 * (n - 1) / n**2
    return {"Q": t, "tau1": t, "tau2": t, "C": 2.0 / n, "R": 1.0}


_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix, via numpy's eigvals."""
    ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def sphere_moment(N: int, exponents: tuple[int, ...]) -> Fraction:
    """E[prod_i x_i^(2 m_i)] for a point uniform on the real unit sphere in R^N, exactly."""
    num = math.prod(math.prod(range(1, 2 * m, 2)) for m in exponents)
    den = math.prod(N + 2 * j for j in range(sum(exponents)))
    return Fraction(num, den)


def phase_sphere_mean_purity(dim_a: int, dim_b: int) -> Fraction:
    """Exact E[Tr rho_A^2] for moduli uniform on the real sphere and independent phases.

    Of the quadruple sum over z_jl z*_j'l z_j'l' z*_jl', only terms with
    j = j' or l = l' survive the phase average: N (N_A + N_B - 2) terms
    E[r_1^2 r_2^2] and N terms E[r^4], with N = N_A N_B.
    """
    N = dim_a * dim_b
    return N * (dim_a + dim_b - 2) * sphere_moment(N, (1, 1)) + N * sphere_moment(N, (2,))
