"""Bipartition families and the distribution of participation numbers.

The distribution of N_AB over a family of bipartitions is the package's
central object: its mean measures how much entanglement a state carries and
its width how evenly that entanglement is spread over the cuts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .purity import purities

SELECTORS = ("balanced", "all-sizes", "fixed-size", "max-unbalanced")
# EntanglementDistribution's participation statistics, in output order
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
        if self.n < 2:
            raise ValueError(f"family needs at least 2 qubits, got {self.n}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown family selector {self.selector!r}")
        if self.selector == "fixed-size":
            if self.size is None or not (0 < self.size < self.n):
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
        """Subsystem-A masks of the family as an ascending int64 array."""
        n = self.n
        if self.selector == "all-sizes":  # every integer in [1, 2^n - 2]
            return np.arange(1, (1 << n) - 1, dtype=np.int64)
        k = {"balanced": n // 2, "max-unbalanced": 1}.get(self.selector, self.size)
        return np.fromiter(_masks_with_popcount(n, k), np.int64, math.comb(n, k))


@dataclass(frozen=True)
class EntanglementDistribution:
    """Purities over a bipartition family and statistics of their 1/purity.

    masks[i] is the subsystem-A mask of cut i and purity_values[i] its purity;
    the statistics are derived from the two arrays on construction.
    """

    masks: np.ndarray
    purity_values: np.ndarray
    mean_participation: float = field(init=False)
    var_population: float = field(init=False)
    var_sample: float = field(init=False)
    min: float = field(init=False)
    max: float = field(init=False)

    def __post_init__(self):
        v = self.participations()
        stats = (v.mean(), v.var(), v.var(ddof=1), v.min(), v.max())
        for name, value in zip(STATISTICS, stats):
            object.__setattr__(self, name, float(value))

    @property
    def count(self) -> int:
        return self.masks.size

    def participations(self) -> np.ndarray:
        return 1.0 / self.purity_values


@dataclass(frozen=True)
class Histogram:
    """Piecewise-constant density: contiguous bins, counts, and bar centers.

    In discrete mode (few distinct values) the edges are midpoints between
    consecutive values and `centers` holds the exact values; in binned mode
    the bins are equal-width over [min, max] and `centers` are midpoints.
    """

    bin_edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray
    centers: np.ndarray
    discrete: bool


def _masks_with_popcount(n: int, k: int) -> Iterator[int]:
    """All n-bit masks with popcount k in ascending numeric order (Gosper)."""
    m = (1 << k) - 1
    while m < 1 << n:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


def compute_distributions(
    block: np.ndarray, family: BipartitionFamily
) -> list[EntanglementDistribution]:
    """One distribution per row of a count x 2**n amplitude block, from one
    `purities` call over the family's masks in ascending order (which
    evaluates each unordered cut once).  One state is the block
    `state.amplitudes[None]`."""
    masks = family.masks()
    values = purities(block, family.n, masks)
    return [EntanglementDistribution(masks, row) for row in values]


def histogram(dist: EntanglementDistribution, bins: int = HISTOGRAM_BINS) -> Histogram:
    """Histogram of participation numbers.

    Distributions with at most DISCRETE_VALUE_LIMIT distinct values get one
    exact bar per value; anything broader is binned into `bins` equal-width
    bins spanning [min, max].  Densities integrate to 1 in both modes.
    """
    if bins < 1:
        raise ValueError(f"bin count must be positive, got {bins}")
    values = dist.participations()
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
        widths = np.diff(edges)
        return Histogram(
            bin_edges=edges,
            densities=counts / (values.size * widths),
            counts=counts,
            centers=centers,
            discrete=True,
        )
    counts, edges = np.histogram(values, bins=bins, range=(values.min(), values.max()))
    widths = np.diff(edges)
    return Histogram(
        bin_edges=edges,
        densities=counts / (values.size * widths),
        counts=counts,
        centers=(edges[:-1] + edges[1:]) / 2.0,
        discrete=False,
    )
