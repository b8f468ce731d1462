"""One-state shorthands over the package's kernels, for the tests.

The package computes every purity in `purities(block, n, masks)`, every
family sweep in `compute_distributions(block, family)` and every spin-flip
root in `concurrences(state, pairs)`.  These functions make one such call for
one state and unpack its single result; they add no rule of their own beyond
the concurrence C = max(0, l1 - l2 - l3 - l4), which `tangle_report` also
takes, in the same subtraction order.  `helpers.py` must not import this
module, so that its oracles stay independent of the kernels they check.
"""

from entspec import compute_distributions, concurrences, purities


def purity(state, mask: int) -> float:
    """Purity of `state` across the cut whose subsystem A is `mask`."""
    return float(purities(state.amplitudes[None], state.n, [mask])[0, 0])


def distribution(state, family):
    """The family sweep of one state."""
    (dist,) = compute_distributions(state.amplitudes[None], family)
    return dist


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
