"""Bipartition families and the distribution of participation numbers.

The distribution of N_AB over a family of bipartitions is the package's
central object: its mean measures how much entanglement a state carries and
its width how evenly that entanglement is spread over the cuts.  A family's
masks come from one rule for every selector, a table of half-masks by
popcount written run by run into one array.  A sweep is two arrays,
`family.masks()` and `purities(block, family.n, masks)`;
`participation_statistics` summarizes its rows and `histogram` one row.
The named states have closed-form cut spectra, so `named_purities` sweeps
them by rule, exactly, from the mask array alone; each kind's rule is its
entry in `states.KINDS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .purity import _masks
from .states import _check_qubits, _integer, named

SELECTORS = ("balanced", "all-sizes", "fixed-size", "max-unbalanced")
# the columns of `participation_statistics`, in output order
STATISTICS = ("mean_participation", "var_population", "var_sample", "min", "max")

HISTOGRAM_BINS = 50  # equal-width bins for a spectrum too broad for exact bars
DISCRETE_VALUE_LIMIT = 32  # at most this many distinct values -> exact bars
VALUE_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class BipartitionFamily:
    """A named set of bipartitions of n qubits.

    balanced:       n_A = floor(n/2); for even n each unordered split appears
                    twice (mask and complement), matching the plain binomial
                    count n!/(n_A! n_B!).
    all-sizes:      every valid mask, 1 <= popcount < n.
    fixed-size:     all masks with popcount = size.
    max-unbalanced: single-qubit subsystems, n masks.
    """

    n: int
    selector: str
    size: int | None = None

    def __post_init__(self):
        _check_qubits(self.n, 2, "family")  # 2 <= n <= MAX_QUBITS, before masks() allocates
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown family selector {self.selector!r}")
        if self.selector == "fixed-size":
            if self.size is None or not 0 < _integer(self.size, "size") < self.n:
                raise ValueError(
                    f"fixed-size family needs 0 < size < {self.n}, got {self.size}"
                )
        elif self.size is not None:
            raise ValueError(f"selector {self.selector!r} does not take a size")

    @property
    def label(self) -> str:
        if self.selector == "fixed-size":
            return f"fixed-size({self.size})"
        return self.selector

    def masks(self) -> np.ndarray:
        """Subsystem-A masks of the family as an ascending int64 array.

        Each selector names its popcounts, and `table[p]` holds the ascending
        (n//2)-bit low halves that complete a high half of popcount p to one
        of them.  The high halves are walked in ascending order, and each
        one's run of masks is written into the preallocated output in place,
        so the build holds the output and a table of n//2 + 2 or fewer
        arrays of at most 2^(n//2) masks (under 1 MiB).
        """
        n, h = self.n, self.n // 2
        sizes = {"balanced": [n // 2], "all-sizes": range(1, n),
                 "max-unbalanced": [1]}.get(self.selector, [self.size])
        low = np.arange(1 << h, dtype=np.int64)
        popcount = np.bitwise_count(low)
        table = [low[np.isin(popcount + p, sizes)] for p in range(n - h + 1)]
        runs = [table[high.bit_count()] for high in range(1 << (n - h))]
        out = np.empty(sum(run.size for run in runs), np.int64)
        start = 0
        for high, run in enumerate(runs):
            if run.size:  # a high half that no low half completes is skipped
                np.bitwise_or(run, high << h, out=out[start : start + run.size])
                start += run.size
        return out


def participation_statistics(values: np.ndarray) -> np.ndarray:
    """The STATISTICS of each row of a count x cuts array of participation
    numbers, as a count x len(STATISTICS) float64 array.

    Each row is its own 1-D reduction, with the arithmetic of v.mean(),
    v.var() and v.var(ddof=1) bit for bit but without numpy's Python
    wrappers; one 2-D reduction along the rows would not be bit-identical to
    them.  ValueError if `values` is not 2-D or has fewer than 2 columns.
    """
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError(
            f"participations have shape {values.shape}, expected (count, cuts >= 2)"
        )
    n = values.shape[1]
    stats = np.empty((values.shape[0], len(STATISTICS)))
    for v, out in zip(values, stats):
        mean = np.add.reduce(v) / n
        d = v - mean
        d *= d
        q = np.add.reduce(d)
        out[:] = mean, q / n, q / (n - 1), np.minimum.reduce(v), np.maximum.reduce(v)
    return stats


def named_purities(kind: str, n: int, masks) -> np.ndarray:
    """Purity of the named state `kind` (a key of `states.KINDS`) of n
    qubits across each mask of a 1-D array, as a float64 array, by the
    kind's rule: no amplitudes, no BLAS and no threads.  Each value is the
    exact purity rounded once, so it does not depend on the host or the BLAS
    build; a mask and its complement give the same value.

    ValueError for an unknown kind or n outside the kind's constructor's
    range (`states.named`, whose messages it keeps), for masks that are not
    1-D, and naming the first mask that is not a cut (`_masks`).
    """
    return named(kind, n).purities(n, _masks(masks, n))


@dataclass(frozen=True)
class Histogram:
    """Piecewise-constant density: contiguous bins, counts, and bar centers.

    For exact bars (few distinct values) the edges are midpoints between
    consecutive values and `centers` holds the exact values; for binned
    values the bins are equal-width over [min, max] and `centers` are
    midpoints.  densities x np.diff(bin_edges) is each bar's mass.
    """

    bin_edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray
    centers: np.ndarray


def histogram(values: np.ndarray, bins: int = HISTOGRAM_BINS) -> Histogram:
    """Histogram of a 1-D array of participation numbers.

    Distributions with at most DISCRETE_VALUE_LIMIT distinct values get one
    exact bar per value; anything broader is binned into `bins` equal-width
    bins spanning [min, max].  Densities integrate to 1 in both modes.
    ValueError if `values` is not 1-D or is empty.
    """
    if _integer(bins, "bin count") < 1:
        raise ValueError(f"bin count must be positive, got {bins}")
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"participations have shape {values.shape}, expected (cuts >= 1,)")
    # sorted neighbors more than VALUE_MERGE_TOL apart start a new distinct
    # value; the breaks are counted before any group is made
    ordered = np.sort(values)
    breaks = np.diff(ordered) > VALUE_MERGE_TOL
    if np.count_nonzero(breaks) < DISCRETE_VALUE_LIMIT:
        groups = np.split(ordered, np.flatnonzero(breaks) + 1)
        centers = np.array([g.mean() for g in groups])
        counts = np.array([g.size for g in groups])
        if len(centers) == 1:
            edges = np.array([centers[0] - 0.5, centers[0] + 0.5])
        else:
            mid = (centers[:-1] + centers[1:]) / 2.0
            edges = np.concatenate(
                [[2 * centers[0] - mid[0]], mid, [2 * centers[-1] - mid[-1]]]
            )
    else:
        counts, edges = np.histogram(values, bins=bins, range=(values.min(), values.max()))
        centers = (edges[:-1] + edges[1:]) / 2.0
    return Histogram(
        bin_edges=edges,
        densities=counts / (values.size * np.diff(edges)),
        counts=counts,
        centers=centers,
    )
