"""Bipartite purity.

A bipartition is a bitmask over the qubits; set bits form subsystem A.  For
basis index k, the subsystem indices (j_A, l_B) are the order-preserving
compactions of k's bits at the mask positions and at the complement
positions: the t-th lowest set bit of the mask supplies bit t of j_A.  The
amplitude vector rearranged as the N_A x N_B matrix Z[j_A, l_B] then gives
rho_A = Z Z^dagger and purity = ||Z Z^dagger||_F^2 without ever forming the
full 2**n x 2**n density matrix.
"""

from __future__ import annotations

import numpy as np

from .states import _qubit_axes


def purities(block: np.ndarray, n: int, masks) -> np.ndarray:
    """Purity of every row of `block` across every cut in `masks`.

    block holds count x 2**n amplitudes, float64 or complex128 (ValueError
    names a shape or dtype that is not, before anything is allocated), and
    each mask lies in [1, 2**n - 2] (ValueError names the first that does
    not; this is the package's one check of a cut); the result is a count x len(masks) float64 array.  A mask and its
    complement are one cut, turned so that A is the smaller side, or of two
    equal sides the lower mask.  Each cut is gathered once, however many
    masks name it, and its value is written to the column of every such
    mask, so a mask, its complement and a repeat of either give bit-identical
    purities.  When A is a run of qubits at either end, Z is a view of the
    block; any other cut is copied into one gather buffer, allocated per
    call by the first cut that needs it.  The Grams Z Z^dagger (Z Z^T for a
    float64 block) go into one reused Gram buffer, and each row's purity is
    the vdot of its Gram with itself.
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
    gather = None
    conj = None if block.dtype == np.float64 else np.empty(shape, block.dtype)
    gram = np.empty(count << 2 * max(mask.bit_count() for mask in cuts), block.dtype)
    for c, mask in enumerate(cuts):
        k = mask.bit_count()
        a, b = [], []
        for q in range(n):
            (a if mask >> q & 1 else b).append(q)
        z = _qubit_axes(block, n, a, b)  # reshapes without a copy when A is an end run
        if mask not in ((1 << k) - 1, full ^ ((1 << (n - k)) - 1)):
            if gather is None:
                gather = np.empty(shape, block.dtype)
            np.copyto(gather, z)
            z = gather
        z = z.reshape(count, 1 << k, 1 << (n - k))
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

