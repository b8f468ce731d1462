"""Bipartition families and the distribution of participation numbers.

The distribution of N_AB over a family of bipartitions is the package's
central object: its mean measures how much entanglement a state carries and
its width how evenly that entanglement is spread over the cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import g17, json_dumps
from .purity import Bipartition, PurityResult, purity
from .states import PureState

SELECTORS = ("balanced", "all-sizes", "fixed-size", "max-unbalanced")

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

    @classmethod
    def balanced(cls, n: int) -> "BipartitionFamily":
        return cls(n, "balanced")

    @classmethod
    def all_sizes(cls, n: int) -> "BipartitionFamily":
        return cls(n, "all-sizes")

    @classmethod
    def fixed_size(cls, n: int, size: int) -> "BipartitionFamily":
        return cls(n, "fixed-size", size)

    @classmethod
    def max_unbalanced(cls, n: int) -> "BipartitionFamily":
        return cls(n, "max-unbalanced")

    @property
    def label(self) -> str:
        if self.selector == "fixed-size":
            return f"fixed-size({self.size})"
        return self.selector


@dataclass(frozen=True)
class EntanglementDistribution:
    """Participation numbers over a bipartition family with summary statistics."""

    entries: tuple[tuple[Bipartition, PurityResult], ...]
    mean_participation: float
    var_population: float
    var_sample: float
    min: float
    max: float
    count: int

    def participations(self) -> np.ndarray:
        return np.array([r.participation for _, r in self.entries])

    def purities(self) -> np.ndarray:
        return np.array([r.purity for _, r in self.entries])


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


def _masks_with_popcount(n: int, k: int) -> list[int]:
    """All n-bit masks with popcount k in ascending numeric order (Gosper)."""
    masks = []
    m = (1 << k) - 1
    limit = 1 << n
    while m < limit:
        masks.append(m)
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return masks


def enumerate_masks(family: BipartitionFamily) -> list[Bipartition]:
    """Bipartitions of the family in ascending mask order."""
    n = family.n
    if family.selector == "balanced":
        masks = _masks_with_popcount(n, n // 2)
    elif family.selector == "fixed-size":
        masks = _masks_with_popcount(n, family.size)
    elif family.selector == "max-unbalanced":
        masks = _masks_with_popcount(n, 1)
    else:  # all-sizes: every integer in [1, 2^n - 2] is a valid mask
        masks = range(1, (1 << n) - 1)
    return [Bipartition(n, m) for m in masks]


def compute_distribution(
    state: PureState, family: BipartitionFamily
) -> EntanglementDistribution:
    """Evaluate the purity on every mask of the family, in ascending mask order."""
    if family.n != state.n:
        raise ValueError(
            f"family is over {family.n} qubits but the state has {state.n}"
        )
    parts = enumerate_masks(family)
    results = [purity(state, p) for p in parts]
    values = np.array([r.participation for r in results])
    count = len(values)
    var_pop = float(values.var())
    var_sample = float(values.var(ddof=1)) if count > 1 else float("nan")
    return EntanglementDistribution(
        entries=tuple(zip(parts, results)),
        mean_participation=float(values.mean()),
        var_population=var_pop,
        var_sample=var_sample,
        min=float(values.min()),
        max=float(values.max()),
        count=count,
    )


def summarize(dist: EntanglementDistribution) -> dict:
    """Summary record of the participation-number distribution."""
    if dist.count < 1:
        raise ValueError("empty distribution")
    return {
        "mean": dist.mean_participation,
        "var_population": dist.var_population,
        "var_sample": dist.var_sample,
        "std_population": math.sqrt(dist.var_population),
        "std_sample": math.sqrt(dist.var_sample) if dist.count > 1 else float("nan"),
        "min": dist.min,
        "max": dist.max,
        "count": dist.count,
    }


def _distinct_groups(values: np.ndarray) -> list[np.ndarray]:
    """Group sorted values whose neighbors differ by at most VALUE_MERGE_TOL."""
    ordered = np.sort(values)
    breaks = np.nonzero(np.diff(ordered) > VALUE_MERGE_TOL)[0] + 1
    return np.split(ordered, breaks)


def histogram(dist: EntanglementDistribution, bins: int = 50) -> Histogram:
    """Histogram of participation numbers.

    Distributions with at most DISCRETE_VALUE_LIMIT distinct values get one
    exact bar per value; anything broader is binned into `bins` equal-width
    bins spanning [min, max].  Densities integrate to 1 in both modes.
    """
    if dist.count < 1:
        raise ValueError("empty distribution")
    if bins < 1:
        raise ValueError(f"bin count must be positive, got {bins}")
    values = dist.participations()
    groups = _distinct_groups(values)
    if len(groups) <= DISCRETE_VALUE_LIMIT:
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


def format_spectrum_csv(dist: EntanglementDistribution) -> str:
    """Per-mask CSV: mask_hex,n_A,purity,participation."""
    lines = ["mask_hex,n_A,purity,participation"]
    for part, res in dist.entries:
        lines.append(
            f"{part.mask:#x},{part.n_a},{g17(res.purity)},{g17(res.participation)}"
        )
    return "\n".join(lines) + "\n"


def format_summary_json(dist: EntanglementDistribution, family: BipartitionFamily) -> str:
    """Summary JSON for one family sweep."""
    return json_dumps(
        {
            "n": family.n,
            "family": family.label,
            "count": dist.count,
            "mean_participation": dist.mean_participation,
            "var_population": dist.var_population,
            "var_sample": dist.var_sample,
            "min": dist.min,
            "max": dist.max,
        }
    ) + "\n"


def format_histogram_tsv(hist: Histogram) -> str:
    """Histogram TSV: bin_center<TAB>density<TAB>count."""
    lines = ["bin_center\tdensity\tcount"]
    for center, density, count in zip(hist.centers, hist.densities, hist.counts):
        lines.append(f"{g17(center)}\t{g17(density)}\t{int(count)}")
    return "\n".join(lines) + "\n"
