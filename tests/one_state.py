"""One-state shorthands over the package's kernels, for the tests.

The package computes every purity in `purities(block, n, masks)` (a family
sweep is that call over `family.masks()`), every participation statistic in
`participation_statistics(values)` and every spin-flip root in
`concurrences(state, pairs)`.  These functions make such calls for one state
and unpack its single row; they add no rule of their own beyond the
concurrence C = max(0, l1 - l2 - l3 - l4), which `tangle_report` also takes,
in the same subtraction order.  `assert_masks_refused` holds the kernel and
`named_purities` to one check of a cut.  `helpers.py` must not import this
module, so that its oracles stay independent of the kernels they check.
"""

import numpy as np
import pytest

from entspec import concurrences, named_purities, participation_statistics, purities
from entspec.spectra import STATISTICS


def purity(state, mask: int) -> float:
    """Purity of `state` across the cut whose subsystem A is `mask`."""
    return float(purities(state.amplitudes[None], state.n, [mask])[0, 0])


def participations(state, family):
    """N_AB = 1/purity of `state` on each of the family's masks, in order."""
    return 1.0 / purities(state.amplitudes[None], state.n, family.masks())[0]


def statistics(state, family) -> dict:
    """The participation statistics of one state's family sweep, by name."""
    row = participation_statistics(participations(state, family)[None])[0]
    return dict(zip(STATISTICS, row.tolist()))


def spin_flip_roots(state, i: int, j: int):
    """The four spin-flip roots of qubits i and j, largest first."""
    return concurrences(state, [(i, j)])[0]


def concurrence(state, i: int, j: int) -> float:
    lam = spin_flip_roots(state, i, j)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def participation_bound(n: int, mask: int) -> int:
    """min(N_A, N_B), the largest participation number the cut allows."""
    k = mask.bit_count()
    return 1 << min(k, n - k)


def assert_masks_refused(kind: str, n: int, masks, message: str) -> None:
    """`purities` (on a block of one row) and `named_purities` (of `kind`)
    both refuse `masks` of n qubits with a ValueError matching `message`."""
    with pytest.raises(ValueError, match=message):
        purities(np.zeros((1, 1 << n)), n, masks)
    with pytest.raises(ValueError, match=message):
        named_purities(kind, n, masks)
