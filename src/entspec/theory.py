"""Closed-form statistics of the bipartite purity for random states.

For states with independent uniform phases and moduli drawn from a
symmetric distribution on the real unit sphere, the purity across a cut is
a sum of O(N^2) terms of size O(1/N^2) and tends to a Gaussian.  Its exact
mean and variance are polynomial combinations of a handful of moduli
moments; this module carries those combinations, evaluated under one of
three moment kinds named by a string (exact sphere, factorized Gaussian,
delta), the large-N model, and the change of variables from purity to
participation number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .states import _integer

MODEL_MAX_QUBITS = 511  # largest n for which 2/N^2 = 2^(1-2n) is a normal double


@dataclass(frozen=True)
class GaussianModel:
    """Normal model for the purity: mean mu and variance sigma2 > 0."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"variance must be positive, got {self.sigma2!r}")


# Half-exponent pattern of each moduli moment in the purity mean and variance,
# by name: m224 = E[r1^2 r2^2 r3^4] for distinct coordinates.
MOMENT_PATTERNS = {
    "m22": (1, 1), "m4": (2,), "m2222": (1, 1, 1, 1), "m224": (1, 1, 2),
    "m44": (2, 2), "m26": (1, 3), "m8": (4,),
}


def _double_factorials(ms) -> int:  # prod_i (2*m_i - 1)!!
    return math.prod(math.prod(range(1, 2 * m, 2)) for m in ms)


def sphere_moment(N: int, exponents) -> Fraction:
    """E[prod_i x_i^(2*m_i)] for a uniform point on the real unit sphere S^(N-1).

    Closed form, as an exact rational: prod_i (2*m_i - 1)!! / prod_{j=0}^{M-1}
    (N + 2*j) with M = sum_i m_i.  Validated against Monte Carlo in the tests.
    """
    if N < 2:
        raise ValueError(f"dimension must be >= 2, got {N}")
    ms = list(exponents)
    if not ms or any(type(m) is not int or m < 1 for m in ms):  # bool is no exponent
        raise ValueError(f"exponents must be positive integers, got {exponents!r}")
    if len(ms) > N:
        raise ValueError(f"{len(ms)} coordinates requested but dimension is {N}")
    return Fraction(_double_factorials(ms), math.prod(range(N, N + 2 * sum(ms), 2)))


# E[prod_i r_i^(2*m_i)] under each moment kind, with M = sum_i m_i:
# exact-sphere (closed-form sphere moments), factorized-gaussian (independent
# Gaussian marginals of variance 1/N) or delta (every r_k^2 pinned to 1/N).
_MOMENT_RULES = {
    "exact-sphere": sphere_moment,
    "factorized-gaussian": lambda N, ms: Fraction(_double_factorials(ms), N ** sum(ms)),
    "delta": lambda N, ms: Fraction(1, N ** sum(ms)),
}
PROVIDER_KINDS = tuple(_MOMENT_RULES)


def _dimensions(N_A: int, N_B: int) -> tuple[int, int]:
    """N_A and N_B as Python ints (`states._integer`, so a numpy integer
    cannot overflow the exact polynomials), each 2 or more; ValueError
    otherwise."""
    N_A, N_B = _integer(N_A, "subsystem dimension"), _integer(N_B, "subsystem dimension")
    if N_A < 2 or N_B < 2:
        raise ValueError(f"subsystem dimensions must be >= 2, got {N_A}, {N_B}")
    return N_A, N_B


def exact_moments(N_A: int, N_B: int, kind: str) -> GaussianModel:
    """Exact purity mean and variance for an N_A x N_B cut.

    The moduli moments of MOMENT_PATTERNS are taken, as exact rationals, from
    the rule of `kind` (one of PROVIDER_KINDS; ValueError otherwise).  mu
    comes from the modulus-only part of the purity (the phase-bearing cross
    part has zero mean); the variance adds the second moments of both parts.
    The degree-8 coefficient polynomials are kept term for term as derived,
    with no algebraic simplification, and are cross-checked against Monte
    Carlo in the tests.  With rational moments the polynomial is exact, and
    mu and sigma2 are rounded to doubles once.
    """
    N_A, N_B = _dimensions(N_A, N_B)
    if kind not in PROVIDER_KINDS:  # a tuple: an unhashable kind is refused too
        raise ValueError(f"unknown provider kind {kind!r}")
    N = N_A * N_B
    m = {name: _MOMENT_RULES[kind](N, ms) for name, ms in MOMENT_PATTERNS.items()}
    mu = N * (N_A + N_B - 2) * m["m22"] + N * m["m4"]
    cross_sq = 2 * N * (N_A - 1) * (N_B - 1) * m["m2222"]
    mod_sq = (
        N * (N_A + N_B - 2) * ((N_A + N_B) * (N - 4) - 2 * (N - 5)) * m["m2222"]
        + 2 * N * (N_A + N_B - 2) * (N + 2 * N_A + 2 * N_B - 8) * m["m224"]
        + N * (N + 2 * N_A + 2 * N_B - 5) * m["m44"]
        + 4 * N * (N_A + N_B - 2) * m["m26"]
        + N * m["m8"]
    )
    return GaussianModel(mu=float(mu), sigma2=float(cross_sq + mod_sq - mu**2))


def asymptotic_model(N_A: int, N_B: int) -> GaussianModel:
    """Large-N limit: mu = (N_A + N_B - 1)/N, sigma2 = 2/N^2."""
    N_A, N_B = _dimensions(N_A, N_B)
    N = N_A * N_B
    return GaussianModel(mu=(N_A + N_B - 1) / N, sigma2=float(Fraction(2, N**2)))


def purity_pdf(model: GaussianModel, x):
    """Gaussian density of the purity at x (scalar or array); NaN is refused."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("purity values must not be NaN")
    with np.errstate(over="ignore"):  # far tails: the exponent -> -inf, density 0
        out = np.exp(-((x - model.mu) ** 2) / (2.0 * model.sigma2)) / np.sqrt(
            2.0 * np.pi * model.sigma2
        )
    return float(out) if out.ndim == 0 else out


def participation_pdf(model: GaussianModel, y):
    """Density of the participation number: purity_pdf(1/y) / y^2."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(y > 0):  # written so that NaN fails too
        raise ValueError("participation values must be positive")
    # toward y = 0, 1/y overflows and y^2 underflows to 0; toward y = inf, y^2
    # overflows: the density there is 0, and stays 0 rather than 0/0
    with np.errstate(over="ignore", invalid="ignore"):
        dens = purity_pdf(model, 1.0 / y)
        out = np.where(dens == 0.0, 0.0, dens / y**2)
    return float(out) if out.ndim == 0 else out
