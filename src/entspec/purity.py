"""Bipartite purity and participation number.

A bipartition is a bitmask over the qubits; set bits form subsystem A.  For
basis index k, the subsystem indices (j_A, l_B) are the order-preserving
compactions of k's bits at the mask positions and at the complement
positions: the t-th lowest set bit of the mask supplies bit t of j_A.  The
amplitude vector rearranged as the N_A x N_B matrix Z[j_A, l_B] then gives
rho_A = Z Z^dagger and purity = ||Z Z^dagger||_F^2 without ever forming the
full 2**n x 2**n density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import PureState, _qubit_axes

QUAD_SUM_MAX_QUBITS = 12  # the literal quadruple sum costs O(N_A^2 N_B^2)


@dataclass(frozen=True)
class Bipartition:
    """Split of n qubits into subsystem A (set bits of mask) and its complement."""

    n: int
    mask: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "mask", int(self.mask))
        if self.n < 2:
            raise ValueError(f"bipartition needs at least 2 qubits, got {self.n}")
        if not (0 <= self.mask < (1 << self.n)):
            raise ValueError(f"mask {self.mask:#x} out of range for {self.n} qubits")
        k = self.mask.bit_count()
        if k == 0 or k == self.n:
            raise ValueError(
                f"mask {self.mask:#x} leaves a subsystem empty for n={self.n}"
            )

    @property
    def n_a(self) -> int:
        return self.mask.bit_count()

    @property
    def n_b(self) -> int:
        return self.n - self.n_a

    @property
    def dim_a(self) -> int:
        return 1 << self.n_a

    @property
    def dim_b(self) -> int:
        return 1 << self.n_b

    def positions_a(self) -> list[int]:
        return [j for j in range(self.n) if (self.mask >> j) & 1]

    def positions_b(self) -> list[int]:
        return [j for j in range(self.n) if not ((self.mask >> j) & 1)]


@dataclass(frozen=True)
class PurityResult:
    """Purity pi, participation number 1/pi, and effective entangled spins log2(1/pi)."""

    purity: float
    participation: float
    effective_spins: float

    @classmethod
    def from_purity(cls, value: float) -> "PurityResult":
        return cls(
            purity=value,
            participation=1.0 / value,
            effective_spins=0.0 - math.log2(value),  # avoids -0.0 at purity 1
        )


def coefficient_matrix(state: PureState, part: Bipartition) -> np.ndarray:
    """Amplitudes rearranged into the N_A x N_B matrix Z[j_A, l_B].

    Z may be a read-only view of the state's amplitudes rather than a copy;
    every caller only reads it.
    """
    if part.n != state.n:
        raise ValueError(
            f"bipartition is over {part.n} qubits but the state has {state.n}"
        )
    z = _qubit_axes(state.amplitudes, state.n, part.positions_a(), part.positions_b())
    return z.reshape(part.dim_a, part.dim_b)


def purities(block: np.ndarray, n: int, masks) -> np.ndarray:
    """Purity of every row of `block` across every cut in `masks`.

    block holds count x 2**n amplitudes, float64 or complex128 (ValueError
    names a shape or dtype that is not, before anything is allocated), and
    each mask lies in [1, 2**n - 2] (ValueError names the first that does
    not); the result is a count x len(masks) float64 array.  A mask and its
    complement are one cut, turned so that A is the smaller side, or of two
    equal sides the lower mask.  Each cut is gathered once, however many
    masks name it, and its value is written to the column of every such
    mask, so a mask, its complement and a repeat of either give bit-identical
    purities.  The amplitudes of each cut are copied into one gather buffer
    allocated per call, the Grams Z Z^dagger (Z Z^T for a float64 block) go
    into one reused Gram buffer, and each row's purity is the vdot of its
    Gram with itself.
    """
    if block.ndim != 2 or block.shape[1] != 1 << n:
        raise ValueError(f"block has shape {block.shape}, expected (count, {1 << n})")
    if block.dtype not in (np.float64, np.complex128):
        raise ValueError(
            f"block has dtype {block.dtype}, expected float64 or complex128"
        )
    full = (1 << n) - 1
    cuts = {}  # turned mask -> its column in `values`
    where = []  # the column in `values` of each requested mask
    for mask in masks:
        mask = int(mask)
        if not 0 < mask < full:
            raise ValueError(f"mask {mask:#x} is not a cut of {n} qubits")
        k = mask.bit_count()
        if (k, mask) > (n - k, mask ^ full):
            mask ^= full
        where.append(cuts.setdefault(mask, len(cuts)))
    count = block.shape[0]
    values = np.empty((count, len(cuts)))
    if not cuts:
        return values
    shape = (count,) + (2,) * n
    gather = np.empty(shape, block.dtype)
    conj = None if block.dtype == np.float64 else np.empty(shape, block.dtype)
    gram = np.empty(count << 2 * max(mask.bit_count() for mask in cuts), block.dtype)
    for c, mask in enumerate(cuts):
        k = mask.bit_count()
        a, b = [], []
        for q in range(n):
            (a if mask >> q & 1 else b).append(q)
        np.copyto(gather, _qubit_axes(block, n, a, b))
        z = gather.reshape(count, 1 << k, 1 << (n - k))
        g = gram[: count << 2 * k].reshape(count, 1 << k, 1 << k)
        if conj is None:
            np.matmul(z, z.transpose(0, 2, 1), out=g)
        else:
            zc = conj.reshape(z.shape)
            np.conjugate(z, out=zc)
            np.matmul(z, zc.transpose(0, 2, 1), out=g)
        for r in range(count):
            values[r, c] = np.vdot(g[r], g[r]).real
    return values[:, where]


def purity(state: PureState, part: Bipartition) -> PurityResult:
    """Purity of the reduced state across the bipartition.

    The one-state, one-cut call of `purities`: the squared Frobenius norm of
    the Gram matrix Z Z^dagger, cost O(min^2 * max) instead of the O(N^2)
    of the index-sum form.  A mask and its complement give bit-identical
    purities.
    """
    if part.n != state.n:
        raise ValueError(
            f"bipartition is over {part.n} qubits but the state has {state.n}"
        )
    value = purities(state.amplitudes[None], state.n, (part.mask,))[0, 0]
    return PurityResult.from_purity(float(value))


def purity_quadruple_sum(state: PureState, part: Bipartition) -> float:
    """Slow oracle: the purity as a literal quadruple index sum.

    Evaluates sum_{j,j',l,l'} z_{jl} conj(z_{j'l}) z_{j'l'} conj(z_{jl'})
    term by term (optimize=False keeps einsum from factorizing the
    contraction into the fast Gram form).
    """
    if state.n > QUAD_SUM_MAX_QUBITS:
        raise ValueError(
            f"quadruple sum limited to {QUAD_SUM_MAX_QUBITS} qubits, got {state.n}"
        )
    z = coefficient_matrix(state, part)
    val = np.einsum("jl,Jl,JL,jL->", z, z.conj(), z, z.conj(), optimize=False)
    return float(np.real(val))


def complement(part: Bipartition) -> Bipartition:
    """Swap the roles of A and B."""
    return Bipartition(part.n, part.mask ^ ((1 << part.n) - 1))
