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


def _sweep(block: np.ndarray, n: int, plan: list, values) -> None:
    """Carry out one worker's share of a `purities` plan: for each entry
    (column, turned mask, slab rows s, Gram threads), write the purity of
    every row across that cut to its column of `values`, through a gather,
    Gram and conjugate buffer of its own, each slab Gram at the entry's BLAS
    thread count (None: the count the caller set)."""
    count = block.shape[0]
    gram = np.empty(count * max(s for _, _, s, _ in plan) ** 2, block.dtype)
    conj = None
    if block.dtype == np.complex128:
        slab = max(s << (n - mask.bit_count()) for _, mask, s, _ in plan)  # s x N_B
        conj = np.empty(count * slab, block.dtype)
    cuts = _cut_matrices(block, n, [mask for _, mask, _, _ in plan])
    for (c, _, s, threads), z in zip(plan, cuts):
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
    reductions included, so no result depends on the thread count.  The pass
    that turns the masks plans each new cut: its column, mask, s, and the
    BLAS threads of its slab Grams, the caller's count T where one Gram takes
    THREADED_MADDS or more real multiply-adds per state (scale x s^2 x N_B, a
    complex one counting 4).  Where dealing pays, the plan is dealt
    round-robin to T' = min(T, cuts) workers: T' - 1 threads and the calling
    thread, each with its own buffers and making the same one-thread BLAS
    calls, so the result does not depend on the worker count either.  It
    pays when no cut takes a threaded Gram (so workers and BLAS threads
    never multiply), the block holds at most BLOCK_BYTES (so the gathers add
    at most (T - 1) x BLOCK_BYTES) and count x the mean Gram work per cut
    reaches DEAL_MADDS.  A worker's error is raised once all have finished.
    """
    if block.ndim != 2 or block.shape[1] != 1 << n:
        raise ValueError(f"block has shape {block.shape}, expected (count, {1 << n})")
    if block.dtype not in (np.float64, np.complex128):
        raise ValueError(
            f"block has dtype {block.dtype}, expected float64 or complex128"
        )
    full = (1 << n) - 1
    scale = 4 if block.dtype == np.complex128 else 1  # real multiply-adds per multiply-add
    columns = {}  # turned mask -> its column in `values`
    plan = []  # per turned cut: column, mask, slab rows, slab Gram multiply-adds per state
    where = []  # the column in `values` of each requested mask
    for mask in masks:
        mask = _integer(mask, "mask")
        if not 0 < mask < full:
            raise ValueError(f"mask {mask:#x} is not a cut of {n} qubits")
        k = mask.bit_count()
        if (k, mask) > (n - k, mask ^ full):
            mask, k = mask ^ full, n - k
        if mask not in columns:
            columns[mask] = len(plan)
            s = min(SLAB_ROWS, 1 << k)
            plan.append((len(plan), mask, s, scale * s * s << (n - k)))
        where.append(columns[mask])
    count = block.shape[0]
    values = np.zeros((count, len(plan)))
    if not plan:
        return values
    work = count * sum(madds for *_, madds in plan)  # of the whole sweep
    # OpenBLAS's thread count is process-wide: the workers start once the
    # call is at one thread and have joined before the caller's count is back
    with blas_threads(1) as caller:
        # each cut's Gram work gives way to the BLAS threads of its slab Grams
        plan = [(*cut, caller if madds >= THREADED_MADDS else None) for *cut, madds in plan]
        workers = 1
        if (
            all(threads is None for *_, threads in plan)
            and block.nbytes <= BLOCK_BYTES
            and work >= DEAL_MADDS * len(plan)
        ):
            workers = min(caller or 1, len(plan))
        errors = []

        def worker(w):
            try:
                with blas_threads(1):
                    _sweep(block, n, plan[w::workers], values)
            except BaseException as error:  # raised by the caller once all have joined
                errors.append(error)

        started = []
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=worker, args=(w,))
                thread.start()
                started.append(thread)
            _sweep(block, n, plan[::workers], values)
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]
    return values[:, where]
