"""Reduced density matrices, bipartite purity, and participation number.

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

from .states import PureState, _qubit_groups

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10

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
class ReducedDensity:
    """Density matrix of subsystem A; Hermitian, unit trace, PSD (validated)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}")
        if not np.isfinite(m).all():
            raise ValueError("reduced density matrix has entries that are not finite")
        # each check is written so that a NaN fails it
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            raise ValueError("reduced density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"reduced density matrix trace is {tr!r}, expected 1")
        if not float(np.linalg.eigvalsh(m).min()) >= PSD_FLOOR:
            raise ValueError("reduced density matrix is not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


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
    return _qubit_groups(state, part.positions_a(), part.positions_b())


def reduced_density(state: PureState, part: Bipartition) -> ReducedDensity:
    """Partial trace over subsystem B: rho_A = Z Z^dagger."""
    z = coefficient_matrix(state, part)
    return ReducedDensity(part.dim_a, z @ z.conj().T)


def purity(state: PureState, part: Bipartition) -> PurityResult:
    """Purity of the reduced state across the bipartition.

    Computed as the squared Frobenius norm of the Gram matrix of Z taken on
    the smaller side (both sides give the same value); cost O(min^2 * max)
    instead of the O(N^2) of the index-sum form.
    """
    z = coefficient_matrix(state, part)
    if part.dim_a <= part.dim_b:
        g = z @ z.conj().T
    else:
        g = z.conj().T @ z
    return PurityResult.from_purity(float(np.real(np.vdot(g, g))))


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
