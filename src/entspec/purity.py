"""Bipartite purity.

A bipartition is a bitmask over the qubits; set bits form subsystem A.  For
basis index k, the subsystem indices (j_A, l_B) are the order-preserving
compactions of k's bits at the mask positions and at the complement
positions: the t-th lowest set bit of the mask supplies bit t of j_A.  The
amplitude vector rearranged as the N_A x N_B matrix Z[j_A, l_B] then gives
rho_A = Z Z^dagger and purity = ||Z Z^dagger||_F^2 without ever forming the
full 2**n x 2**n density matrix.  `_cut_matrices` is the one reader of Z:
`purities` takes every cut through it, and `measures.concurrences` every
qubit pair.  A sweep whose Gram work pays for it deals its cuts to the
caller's count of BLAS threads, each worker making the same one-thread BLAS
calls, so the result is the same at any count.
"""

from __future__ import annotations

import operator
import threading
from collections import Counter

import numpy as np

from ._blas import blas_threads
from .states import BLOCK_BYTES

SLAB_ROWS = 512  # rows of Z per Gram slab; a cut with at most this many rows is one slab
# real multiply-adds (a complex one counts 4) of one slab Gram, per state, from
# which the Gram runs at the caller's BLAS threads rather than at one
THREADED_MADDS = 1 << 22
# mean real multiply-adds of Gram work per cut, over the block, from which a
# sweep deals its cuts to the caller's BLAS threads (`purities`)
DEAL_MADDS = 1 << 19


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


def _sweep(block: np.ndarray, n: int, cuts: list, share: slice, values, caller) -> None:
    """One worker's part of `purities`: write the purity of every row across
    each turned cut in `cuts[share]` to that cut's column of `values`, through
    a gather, Gram and conjugate buffer of its own.  A slab Gram of at least
    THREADED_MADDS real multiply-adds per state runs at `caller` BLAS
    threads, any other at the count the caller set."""
    cuts, columns = cuts[share], range(len(cuts))[share]
    count = block.shape[0]
    slab_rows = {k: min(SLAB_ROWS, 1 << k) for k in {mask.bit_count() for mask in cuts}}
    gram = np.empty(count * max(slab_rows.values()) ** 2, block.dtype)
    conj = None
    if block.dtype == np.complex128:
        conj = np.empty(count * max(s << (n - k) for k, s in slab_rows.items()), block.dtype)
    scale = 4 if conj is not None else 1  # real multiply-adds per multiply-add
    for c, z in zip(columns, _cut_matrices(block, n, cuts)):
        s = min(SLAB_ROWS, z.shape[1])
        threads = caller if scale * s * s * z.shape[2] >= THREADED_MADDS else None
        for j in range(0, z.shape[1], s):
            zj = z[:, j : j + s]
            if conj is not None:
                zj = np.conjugate(zj, out=conj[: zj.size].reshape(zj.shape))
            zt = zj.transpose(0, 2, 1)  # float64 and i == j: one buffer, so a syrk
            for i in range(0, j + 1, s):
                zi = z[:, i : i + s]
                size = zi.shape[1] * zt.shape[2]
                g = gram[: count * size].reshape(count, zi.shape[1], zt.shape[2])
                with blas_threads(threads):
                    np.matmul(zi, zt, out=g)
                g = g.reshape(count, size)  # the row length is explicit for count 0
                square = np.vecdot(g, g).real  # ||Z_i Z_j^dagger||^2 of each row
                values[:, c] += square if i == j else 2 * square


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
    term one `np.vecdot` of the count slab Grams with themselves (numpy's
    loop calls BLAS's dot once per row, as `np.vdot` would).  The slab Grams
    go into one count x s x s buffer; for a complex block, each Z_j is first
    conjugated into one buffer of one slab, while a float64 diagonal Gram is
    Z_i Z_i^T on one buffer (a BLAS syrk).  Both buffers are sized by the
    cuts they serve and reused by every cut, so beyond the state and the
    gather a sweep holds one slab's Gram and conjugate, however large N_A
    is.  A cut of at most SLAB_ROWS rows is one slab: one Gram of the whole
    Z.

    The call runs at one BLAS thread (`_blas.blas_threads`), its row
    reductions included, so no result depends on the thread count; only a
    slab Gram of at least THREADED_MADDS real multiply-adds per state runs at
    the caller's count T.  Where dealing pays, the turned cuts are dealt
    round-robin to min(T, cuts) workers instead: T' - 1 threads and the
    calling thread, each with its own gather, Gram and conjugate buffers,
    each making the same one-thread BLAS calls for its cuts as one worker
    would, so the result does not depend on the worker count either.  It
    pays when no cut takes a threaded Gram (so workers and BLAS threads
    never multiply), the block holds at most BLOCK_BYTES (so the workers'
    gathers add at most (T - 1) x BLOCK_BYTES) and the mean Gram work per
    cut, count x s^2 x N_B real multiply-adds (a complex one counts 4),
    reaches DEAL_MADDS.  An error in a worker is raised once every worker
    has finished.
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
    cuts = list(cuts)
    sizes = Counter(map(int.bit_count, cuts))  # cuts per size of A
    scale = 4 if block.dtype == np.complex128 else 1  # real multiply-adds per multiply-add
    madds = {k: scale * min(SLAB_ROWS, 1 << k) ** 2 << (n - k) for k in sizes}  # per state
    work = count * sum(madds[k] * number for k, number in sizes.items())  # of the whole sweep
    # OpenBLAS's thread count is process-wide: the workers start once the
    # call is at one thread and have joined before the caller's count is back
    with blas_threads(1) as caller:
        workers = 1
        if (
            max(madds.values()) < THREADED_MADDS
            and block.nbytes <= BLOCK_BYTES
            and work >= DEAL_MADDS * len(cuts)
        ):
            workers = min(caller or 1, len(cuts))
        errors = []

        def worker(w):
            try:
                with blas_threads(1):
                    _sweep(block, n, cuts, slice(w, None, workers), values, caller)
            except BaseException as error:  # raised by the caller once all have joined
                errors.append(error)

        started = []
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=worker, args=(w,))
                thread.start()
                started.append(thread)
            _sweep(block, n, cuts, slice(0, None, workers), values, caller)
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]
    return values[:, where]
