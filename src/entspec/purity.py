"""Bipartite purity.

A bipartition is a bitmask over the qubits; set bits form subsystem A.  For
basis index k, the subsystem indices (j_A, l_B) are the order-preserving
compactions of k's bits at the mask positions and at the complement
positions: the t-th lowest set bit of the mask supplies bit t of j_A.  The
amplitude vector rearranged as the N_A x N_B matrix Z[j_A, l_B] then gives
rho_A = Z Z^dagger and purity = ||Z Z^dagger||_F^2 without ever forming the
full 2**n x 2**n density matrix.  `_cut_matrices` is the one reader of Z:
`purities` takes every cut through it, and `measures.concurrences` every
qubit pair.
"""

from __future__ import annotations

import operator

import numpy as np

from ._blas import blas_threads

SLAB_ROWS = 512  # rows of Z per Gram slab; a cut with at most this many rows is one slab
# real multiply-adds (a complex one counts 4) of one slab Gram, per state, from
# which the Gram runs at the caller's BLAS threads rather than at one
THREADED_MADDS = 1 << 22


def _integer(value, what: str) -> int:
    """`value` as an int: any type with __index__, but not bool, so a float
    or a bool is refused (ValueError naming `what`) rather than truncated."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def _cut_matrices(block: np.ndarray, n: int, masks):
    """Yield, for each int mask, the count x N_A x N_B matrix Z of `block`.

    Z is a view of the block when A is a run of qubits at either end; any
    other cut is copied into one block-sized buffer, allocated by the first
    cut that needs it and overwritten by the next.
    """
    count = block.shape[0]
    full = (1 << n) - 1
    tensor = block.reshape((count,) + (2,) * n)  # axis n - q holds qubit q
    gather = None
    for mask in masks:
        k = mask.bit_count()
        order = sorted(reversed(range(n)), key=lambda q: not mask >> q & 1)  # A, then B
        z = tensor.transpose([0] + [n - q for q in order])
        if mask not in ((1 << k) - 1, full ^ ((1 << (n - k)) - 1)):
            if gather is None:
                gather = np.empty(tensor.shape, block.dtype)
            np.copyto(gather, z)
            z = gather
        yield z.reshape(count, 1 << k, 1 << (n - k))


def purities(block: np.ndarray, n: int, masks) -> np.ndarray:
    """Purity of every row of `block` across every cut in `masks`.

    block holds count x 2**n amplitudes, float64 or complex128 (ValueError
    names a shape or dtype that is not, before anything is allocated), and
    each mask is an integer (`_integer`: any type with __index__, but not
    bool) in [1, 2**n - 2] (ValueError names the first that is not; this is
    the package's one check of a cut); the result is a count x len(masks)
    float64 array.  A mask and its complement are one cut, turned so that A
    is the smaller side, or of two equal sides the lower mask.  Each cut is
    gathered once by `_cut_matrices`, however many masks name it, and its
    value is written to the column of every such mask, so a mask, its
    complement and a repeat of either give bit-identical purities.

    Z is split into row slabs Z_i of s = min(SLAB_ROWS, N_A) rows, and
    purity = sum over i <= j of (2 - delta_ij) ||Z_i Z_j^dagger||_F^2, each
    term the vdot of a slab Gram with itself.  The slab Grams go into one
    count x s x s buffer; for a complex block, each Z_j is first conjugated
    into one buffer of one slab, while a float64 diagonal Gram is Z_i Z_i^T
    on one buffer (a BLAS syrk).  Both buffers are sized by the call's cuts
    and reused by every cut, so beyond the state and the gather a call holds
    one slab's Gram and conjugate, however large N_A is.  A cut of at most
    SLAB_ROWS rows is one slab: one Gram of the whole Z.

    The call runs at one BLAS thread (`_blas.blas_threads`), its vdot row
    reductions included, so no result depends on the thread count; only a
    slab Gram of at least THREADED_MADDS real multiply-adds per state runs at
    the caller's count.
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
        mask = _integer(mask, "mask")
        if not 0 < mask < full:
            raise ValueError(f"mask {mask:#x} is not a cut of {n} qubits")
        k = mask.bit_count()
        if (k, mask) > (n - k, mask ^ full):
            mask ^= full
        where.append(cuts.setdefault(mask, len(cuts)))
    count = block.shape[0]
    values = np.zeros((count, len(cuts)))
    if not cuts:
        return values
    slab_rows = {k: min(SLAB_ROWS, 1 << k) for k in {mask.bit_count() for mask in cuts}}
    gram = np.empty(count * max(slab_rows.values()) ** 2, block.dtype)
    conj = None
    if block.dtype == np.complex128:
        conj = np.empty(count * max(s << (n - k) for k, s in slab_rows.items()), block.dtype)
    scale = 4 if conj is not None else 1  # real multiply-adds per multiply-add
    with blas_threads(1) as caller:
        for c, z in enumerate(_cut_matrices(block, n, cuts)):
            s = min(SLAB_ROWS, z.shape[1])
            threads = caller if scale * s * s * z.shape[2] >= THREADED_MADDS else None
            for j in range(0, z.shape[1], s):
                zj = z[:, j : j + s]
                if conj is not None:
                    zj = np.conjugate(zj, out=conj[: zj.size].reshape(zj.shape))
                zt = zj.transpose(0, 2, 1)  # float64 and i == j: one buffer, so a syrk
                for i in range(0, j + 1, s):
                    zi = z[:, i : i + s]
                    g = gram[: count * zi.shape[1] * zt.shape[2]]
                    g = g.reshape(count, zi.shape[1], zt.shape[2])
                    with blas_threads(threads):
                        np.matmul(zi, zt, out=g)
                    weight = 1 if i == j else 2
                    for r, gr in enumerate(g):
                        values[r, c] += weight * np.vdot(gr, gr).real
    return values[:, where]
