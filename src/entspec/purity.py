"""Bipartite purity.

A bipartition is a bitmask over the qubits; set bits form subsystem A.  For
basis index k, the subsystem indices (j_A, l_B) are the order-preserving
compactions of k's bits at the mask positions and at the complement
positions: the t-th lowest set bit of the mask supplies bit t of j_A.  The
amplitude vector rearranged as the N_A x N_B matrix Z[j_A, l_B] then gives
rho_A = Z Z^dagger and purity = ||Z Z^dagger||_F^2 without ever forming the
full 2**n x 2**n density matrix.  `_cut_matrices` is the one reader of Z:
`purities` takes every cut through it, and `measures.concurrences` every
qubit pair.  Every BLAS call runs at one thread; `_deal` deals a sweep's
cuts, one large cut's slab pairs or `concurrences`' pairs to the caller's
count of BLAS threads, so the result is the same at any count.
"""

from __future__ import annotations

import threading

import numpy as np

from ._blas import blas_threads
from .states import MAX_QUBITS, _integer

SLAB_ROWS = 512  # rows of Z per Gram slab; a cut with at most this many rows is one slab
DEAL_MADDS = 1 << 19  # mean real multiply-adds of a unit from which `_deal` deals


def _masks(masks, n: int) -> np.ndarray:
    """`masks`, a sequence or 1-D array, as a 1-D int64 array of cuts of n
    qubits: the package's one check of a cut.  ValueError if it is not 1-D,
    or naming the first mask that is not an integer (`_integer`) or not in
    [1, 2**n - 2]; an int or uint array is checked in one vectorized pass."""
    array = np.asarray(masks)
    if array.ndim != 1:
        raise ValueError(f"masks have shape {array.shape}, expected (cuts,)")
    full = (1 << n) - 1
    if isinstance(masks, np.ndarray) and array.dtype.kind in "iu":
        cut = (array > 0) & (array < full)
        masks = [] if cut.all() else [array[cut.argmin()]]  # to name the first failure
    for mask in masks:
        mask = _integer(mask, "mask")
        if not 0 < mask < full:
            raise ValueError(f"mask {mask:#x} is not a cut of {n} qubits")
    return array.astype(np.int64, copy=False)  # each in [1, 2**n - 2]: exact in any dtype


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


def _deal(units: list, madds: int, run, gather: int = 0) -> None:
    """Call `run` on `units` at one BLAS thread, dealt round-robin where the
    mean work of a unit, `madds / len(units)` real multiply-adds (a complex
    one counts 4), reaches DEAL_MADDS: then worker w of T' = min(T, units)
    runs `run(units[w::T'])`, where T is the caller's count of BLAS threads
    and worker 0 the calling thread.  Units that each gather `gather` bytes
    of their own go to at most (16 << MAX_QUBITS) // gather workers (at
    least one): no more gather memory than one complex state of MAX_QUBITS.
    OpenBLAS keeps one count for the whole process, so T is read and one
    thread set before any worker starts, and restored once all have joined;
    a worker's error is raised only then.  The caller holds `blas_threads`'
    lock meanwhile, so `run` must not enter `blas_threads` from a worker: it
    would wait on the caller, which waits on it.  No units: nothing is read
    or run."""
    if not units:
        return
    with blas_threads(1) as caller:
        dealt = madds >= DEAL_MADDS * len(units)
        cap = max(1, (16 << MAX_QUBITS) // max(gather, 1))  # units that gather their own
        workers = min(caller or 1, len(units), cap) if dealt else 1
        errors = []

        def worker(w):
            try:
                run(units[w::workers])
            except BaseException as error:  # raised by the caller once all have joined
                errors.append(error)

        started = []
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=worker, args=(w,))
                thread.start()
                started.append(thread)
            run(units[::workers])
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]


def _sweep(block: np.ndarray, n: int, plan: list, out, z=None) -> None:
    """One worker's share of a `purities` plan: for each entry (column, mask,
    slab rows s, slab pairs), add each pair's term to out[:, column] in turn.
    Each pair's Gram, and a complex slab's conjugate, is a temporary of
    numpy's, released before the next pair's; Z is `z` (one cut's, shared)
    or gathered into this worker's own buffer."""
    masks = [mask for _, mask, _, _ in plan]
    cuts = _cut_matrices(block, n, masks) if z is None else [z] * len(plan)
    for (c, _, s, pairs), z in zip(plan, cuts):
        for i, j in pairs:
            # a float64 conj() is the slab itself, so i == j is one buffer: a syrk
            g = np.matmul(z[:, i : i + s], z[:, j : j + s].conj().transpose(0, 2, 1))
            g = g.reshape(-1, s * s)  # one row a state
            square = np.vecdot(g, g).real  # ||Z_i Z_j^dagger||^2 of each row
            del g  # before the next pair's Gram is allocated
            out[:, c] += square if i == j else 2 * square


def purities(block: np.ndarray, n: int, masks) -> np.ndarray:
    """Purity of every row of `block` across every cut in `masks`.

    block holds count x 2**n amplitudes, float64 or complex128 (ValueError
    names a shape or dtype that is not, before anything is allocated), and
    each mask a cut of n qubits (`_masks`: ValueError names the first that is
    not); the result is a count x len(masks) float64 array.  A mask and its
    complement are one cut, turned so that A is the smaller side (of equal
    sides, the lower mask), and gathered once by `_cut_matrices` however many
    masks name it; its value goes to the column of every such mask, so a
    mask, its complement and a repeat of either give bit-identical purities.

    Z is split into row slabs Z_i of s = min(SLAB_ROWS, N_A) rows, and
    purity = sum over j, then i <= j, of (2 - delta_ij) ||Z_i Z_j^dagger||_F^2,
    each term one `np.vecdot` of the count slab Grams with themselves
    (numpy's loop calls BLAS's dot once per row, as `np.vdot` would).  Each
    pair's count x s x s Gram, and a complex Z_j's conjugate, are numpy
    temporaries, released before the next pair's Gram is allocated; a
    float64 Z_j's conj() is Z_j itself, so a float64 diagonal Gram is
    Z_i Z_i^T on one buffer (a BLAS syrk).  So beyond the state and the
    gather a worker holds one slab's Gram and conjugate, however large N_A
    is; a cut of at most SLAB_ROWS rows is one slab, one Gram of Z.

    The plan is made from the mask array, turned and deduplicated by
    `np.unique` (columns follow the ascending turned mask); each popcount's
    slab rows, slab pairs and work, a Python int of scale x s^2 x N_B real
    multiply-adds a pair, are taken once.  No rows: it returns after the check.
    A call of one cut of several slabs is gathered once, and its plan becomes
    that cut's slab pairs, which the workers share.  Then one `_deal` call
    runs the plan at one BLAS thread and deals its entries where it pays,
    each worker gathering its own cuts, into one term array of a column per
    entry; a lone cut's columns are summed in order, 0 + t_0 + t_1 ..., once
    all have joined.  Each worker makes the same one-thread BLAS calls, so no
    result depends on the thread or the worker count.
    """
    if block.ndim != 2 or block.shape[1] != 1 << n:
        raise ValueError(f"block has shape {block.shape}, expected (count, {1 << n})")
    if block.dtype not in (np.float64, np.complex128):
        raise ValueError(
            f"block has dtype {block.dtype}, expected float64 or complex128"
        )
    masks = _masks(masks, n)
    count = block.shape[0]
    if not count or not masks.size:
        return np.zeros((count, masks.size))
    complement = masks ^ ((1 << n) - 1)
    # A the smaller side; of two equal sides the lower mask, the one without qubit n - 1
    turn = 2 * np.bitwise_count(masks) + (masks >> (n - 1)) > n
    cuts, where = np.unique(np.where(turn, complement, masks), return_inverse=True)
    sizes = np.bitwise_count(cuts)
    scale = 4 if block.dtype == np.complex128 else 1  # real multiply-adds per multiply-add
    slabs = {}  # N_A -> its slab rows and slab pairs
    madds = 0  # of one row's Grams over every cut, a Python int
    for k, cut_count in enumerate(np.bincount(sizes).tolist()):
        if cut_count:
            s = min(SLAB_ROWS, 1 << k)
            slabs[k] = s, [(i, j) for j in range(0, 1 << k, s) for i in range(0, j + 1, s)]
            madds += cut_count * len(slabs[k][1]) * scale * s * s << (n - k)
    plan = [(c, m, *slabs[k]) for c, (m, k) in enumerate(zip(cuts.tolist(), sizes.tolist()))]
    z, gather = None, block.nbytes  # each worker gathers its own cuts ...
    if len(plan) == 1 and len(plan[0][3]) > 1:  # ... but one cut of several slabs
        _, mask, s, pairs = plan[0]  # is gathered once and dealt by its slab pairs
        z, gather = next(_cut_matrices(block, n, [mask])), 0
        plan = [(u, mask, s, [pair]) for u, pair in enumerate(pairs)]
    terms = np.zeros((count, len(plan)))
    _deal(plan, count * madds, lambda share: _sweep(block, n, share, terms, z), gather)
    if z is not None:
        terms = sum(terms.T)[:, None]  # 0 + t_0 + t_1 ..., the kernel's order
    return terms[:, where]
