"""Construction of named n-qubit pure states and random-state ensembles.

Amplitude indexing is little-endian throughout the package: basis index k
carries the value of qubit j in bit j, so qubit 0 is the least-significant
bit and k = sum_j b_j 2^j.

The named kinds live in one table, `KINDS`: each entry holds the kind's
fewest qubits, the name its refusals use, its constructor, its purity across
every cut by rule and its pair concurrence.  `named` is the one check of a
kind, n and basis index; the constructors, `spectra.named_purities`,
`measures.named_tangle_report` and the CLI's --kind all read the table, so a
new named kind is one entry there.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import blas_threads

MAX_QUBITS = 26  # 2**26 complex amplitudes ~ 1 GiB; a real state is half that
NORM_TOL = 1e-12
BLOCK_BYTES = 1 << 18  # bytes of amplitudes per sampled block


def _integer(value, what: str) -> int:
    """`value` as an int: any type with __index__, but not bool, so a float
    or a bool is refused (ValueError naming `what`) rather than truncated."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def _check_qubits(n: int, minimum: int, what: str) -> None:
    """The qubit-count check, run before anything of size 2**n is allocated:
    n an integer (`_integer`) in [minimum, MAX_QUBITS]."""
    if _integer(n, "qubit count") < minimum:
        raise ValueError(f"{what} needs {minimum} or more qubits, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"qubit count {n} exceeds the memory guard of {MAX_QUBITS}")


def named(kind: str, n: int, index: int = 0) -> NamedKind:
    """The KINDS entry of named state `kind`, once n and the basis index (0
    for the other kinds) pass the checks its constructor makes before it
    allocates: n against the kind's fewest qubits and MAX_QUBITS, then the
    index an integer in [0, 2**n).  ValueError for an unknown kind, or
    naming the first check that fails."""
    if kind not in tuple(KINDS):  # a tuple: an unhashable kind is refused too
        raise ValueError(f"unknown named state {kind!r}")
    entry = KINDS[kind]
    _check_qubits(n, entry.minimum, entry.what)
    if not 0 <= _integer(index, "basis index") < 1 << n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    return entry


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the 2**n computational basis.

    The amplitudes are stored as float64 when every imaginary part is zero
    (a -0.0 counts as zero) and as complex128 otherwise, so the dtype alone
    tells every kernel whether real arithmetic suffices.  An input that is
    already a contiguous array of the stored dtype is kept, not copied, and
    is made read-only.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubits(self.n, 1, "state")
        amps = np.asarray(self.amplitudes)
        if np.iscomplexobj(amps) and not amps.imag.any():
            amps = amps.real
        dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
        amps = np.ascontiguousarray(amps, dtype=dtype)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {1 << self.n}"
            )
        # sum |z|^2 over the float64 view, as `sample_blocks` takes it: no BLAS
        # call, so no thread count moves its bits and no scope is entered; a
        # NaN or infinite amplitude, or a sum that overflows, is not finite
        real = amps.view(np.float64)
        norm2 = float(np.einsum("i,i->", real, real))
        if not math.isfinite(norm2):
            raise ValueError(
                f"squared norm of the amplitudes is not finite: sum |z|^2 = {norm2!r}"
            )
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: sum |z|^2 = {norm2!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class EnsembleSpec:
    """Random-state ensemble: kind, qubit count, and a 64-bit seed.

    The seed fully determines every sampled state; the stream for sample i
    is derived from (seed, i), so samples do not depend on how many states
    are requested in one call.
    """

    kind: str
    n: int
    seed: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        _check_qubits(self.n, 1, "ensemble")
        if not 0 <= _integer(self.seed, "seed") < 2**64:
            raise ValueError("seed must be a 64-bit non-negative integer")


def make_basis(n: int, k: int) -> PureState:
    """Computational basis state |k> on n qubits."""
    named("basis", n, k)
    amps = np.zeros(1 << n)
    amps[k] = 1.0
    return PureState(n, amps)


def make_ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2); every bipartition has participation 2."""
    named("ghz", n)
    amps = np.zeros(1 << n)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def make_w(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis states, all phases +1."""
    named("w", n)
    amps = np.zeros(1 << n)
    amps[[1 << j for j in range(n)]] = 1.0 / np.sqrt(n)
    return PureState(n, amps)


def make_cluster1d(n: int) -> PureState:
    """One-dimensional cluster state on an open chain of n qubits.

    The amplitude of basis string b is 2**(-n/2) * (-1)**c(b) where c(b)
    counts positions k in [0, n-2] with b_k = 0 and b_{k+1} = 1.  This is
    the expansion of the chain product of (|0>_k Z_{k+1} + |1>_k) factors
    with the Z on the last factor dropped; it is local-Z equivalent to the
    CZ-circuit graph state on the same chain.
    """
    named("cluster", n)
    amps = np.empty(1 << n)
    amps[:2] = 1.0 / np.sqrt(1 << n)
    # by doubling: when qubit k joins, the half with b_k = 1 copies the first
    # 2^k amplitudes, its sign flipped where b_{k-1} = 0
    for k in range(1, n):
        low, half = 1 << (k - 1), 1 << k
        np.negative(amps[:low], out=amps[half : half + low])
        amps[half + low : 2 * half] = amps[low:half]
    return PureState(n, amps)


def _cluster_purities(n: int, masks: np.ndarray) -> np.ndarray:
    """2**-r for the 1-D cluster state, r the GF(2) rank of the cut's block of
    the open chain's adjacency (N_AB = 2**r for a graph state; Hein, Eisert &
    Briegel, PRA 69, 062311 (2004)).  The chain edges that cross the cut fall
    into runs of consecutive edges; a run of E edges is a path, of rank
    ceil(E/2): the number of its edges of its lowest edge's parity.  One pass
    counts them.  Adding the lowest edge of each run that starts at an even
    edge carries through that run and clears it, so those runs are the edges
    the sum lacks; flipping them in the odd edges leaves each such run's even
    edges and every other run's odd ones, and r is their popcount.  It holds
    two int64 arrays, the second reused for the result, and an int8 one (and,
    for one step, the popcount's uint8 one)."""
    edges = masks >> 1
    edges ^= masks
    edges &= (1 << (n - 1)) - 1  # bit q: edge (q, q + 1) crosses the cut
    runs = np.left_shift(edges, 1)
    np.invert(runs, out=runs)
    runs &= edges  # each run's lowest edge
    runs &= 0x5555_5555_5555_5555  # ... if it is even
    runs += edges
    np.invert(runs, out=runs)
    runs &= edges  # the runs that start at an even edge
    edges &= 0x2AAA_AAAA_AAAA_AAAA  # the odd edges
    edges ^= runs
    rank = np.zeros(masks.shape, np.int8)  # negated
    rank -= np.bitwise_count(edges)
    return np.ldexp(1.0, rank, out=runs.view(np.float64))


def _w_purities(n: int, masks: np.ndarray) -> np.ndarray:
    """(k^2 + (n - k)^2) / n^2 for W, k = popcount: rho_A has the eigenvalues
    k/n and (n - k)/n.  Every integer here is below 2^53, an exact double, so
    this is one correctly rounded division; it runs in place on two float64
    arrays of the masks' size."""
    k = np.bitwise_count(masks).astype(np.float64)
    rest = n - k
    k *= k
    k += np.square(rest, out=rest)
    return np.divide(k, n * n, out=k)


class NamedKind(NamedTuple):
    """What one named state kind is: its fewest qubits, the name its refusals
    give it, its constructor of (n, basis index), its purity across every
    mask of an int64 array of cuts of n qubits, and the concurrence of every
    one of its qubit pairs at n qubits."""

    minimum: int
    what: str
    make: Callable[[int, int], PureState]
    purities: Callable[[int, np.ndarray], np.ndarray]
    concurrence: Callable[[int], float]


# A W pair's reduction is an X state with coherence 1/n between |01> and
# |10> and no |11> weight, so C = 2/n.  A GHZ pair is an even mixture of
# |00> and |11>, and a cluster pair, as any connected graph state's past 2
# qubits, is (I + S)/4 for at most one stabilizer element S on it: both are
# separable, except the Bell pair at n = 2.
KINDS = {
    "basis": NamedKind(1, "basis state", make_basis,
                       lambda n, masks: np.ones(masks.shape), lambda n: 0.0),
    "ghz": NamedKind(2, "GHZ state", lambda n, index: make_ghz(n),
                     lambda n, masks: np.full(masks.shape, 0.5),  # a star's LC class: rank 1
                     lambda n: 1.0 if n == 2 else 0.0),
    "w": NamedKind(2, "W state", lambda n, index: make_w(n), _w_purities, lambda n: 2 / n),
    "cluster": NamedKind(2, "cluster state", lambda n, index: make_cluster1d(n),
                         _cluster_purities, lambda n: 1.0 if n == 2 else 0.0),
}


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # one PCG64 stream per sample, split from (seed, index) via SeedSequence
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _haar_rows(seed: int, indices: range, dim: int) -> np.ndarray:
    g = np.empty((len(indices), 2 * dim))
    for row, i in zip(g, indices):
        _sample_rng(seed, i).standard_normal(out=row)
    z = np.empty((len(indices), dim), np.complex128)
    z.real, z.imag = g[:, :dim], g[:, dim:]
    z /= np.array([np.linalg.norm(row) for row in z])[:, None]
    return z


def _phase_sphere_rows(seed: int, indices: range, dim: int) -> np.ndarray:
    g = np.empty((len(indices), dim))
    z = np.empty((len(indices), dim), np.complex128)
    for row, phases, i in zip(g, z, indices):
        rng = _sample_rng(seed, i)
        rng.standard_normal(out=row)
        phases[:] = 1j * rng.uniform(0.0, 2.0 * np.pi, dim)
    moduli = np.abs(g)
    moduli /= np.array([np.linalg.norm(row) for row in g])[:, None]
    np.exp(z, out=z)
    z *= moduli
    return z


_ENSEMBLE_ROWS = {"haar": _haar_rows, "phase-sphere": _phase_sphere_rows}
ENSEMBLE_KINDS = tuple(_ENSEMBLE_ROWS)


def sample_blocks(spec: EnsembleSpec, count: int) -> Iterator[np.ndarray]:
    """Draw `count` states as consecutive blocks of complex128 rows.

    Each block holds at most BLOCK_BYTES of amplitudes (always at least one
    row), so a caller that consumes the blocks one at a time holds a bounded
    number of states whatever the count.  Row i is sample i of the ensemble:

    haar:         2**(n+1) standard normals, the first half the real parts
                  and the second half the imaginary parts, normalized to
                  unit length; rotation invariance of the Gaussian makes
                  the state Haar-uniform on the complex unit sphere.
    phase-sphere: 2**n standard normals, folded and normalized to give
                  moduli uniform on the real unit sphere, times phases from
                  the next 2**n uniforms on [0, 2*pi).

    Each block is drawn at one BLAS thread, so no row depends on the thread
    count, and checked once for finite, normalized rows.
    """
    if _integer(count, "count") < 0:
        raise ValueError("count must be non-negative")
    dim = 1 << spec.n
    draw = _ENSEMBLE_ROWS[spec.kind]
    step = max(1, BLOCK_BYTES // (16 * dim))
    for start in range(0, count, step):
        with blas_threads(1):  # each row's np.linalg.norm is a BLAS dot
            block = draw(spec.seed, range(start, min(start + step, count)), dim)
        real = block.view(np.float64)
        norm2 = np.einsum("ij,ij->i", real, real)
        bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= NORM_TOL))  # NaN counts as bad
        if bad.size:
            raise ValueError(
                f"sample {start + bad[0]} is not a finite unit vector: "
                f"sum |z|^2 = {float(norm2[bad[0]])!r}"
            )
        yield block


def state_to_dict(state: PureState) -> dict:
    """JSON-ready form: {"n": ..., "amplitudes": [[re, im], ...]}."""
    a = state.amplitudes
    return {"n": state.n, "amplitudes": np.stack((a.real, a.imag), 1).tolist()}


def state_from_dict(data: dict) -> PureState:
    """Inverse of state_to_dict; validates types, shape and normalization.

    n must be a JSON integer and each [re, im] component a JSON number
    within the double range; strings, booleans, nulls and a float n such as
    2.0 are rejected rather than converted.
    """
    try:
        n = data["n"]
        pairs = data["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state record: {exc}") from exc
    if type(n) is not int:
        raise ValueError(f"state record n must be an integer, got {n!r}")
    not_pairs = "amplitudes must be a list of [re, im] pairs"
    try:
        components = {type(x) for pair in pairs for x in pair}
    except TypeError:
        raise ValueError(not_pairs) from None
    if not components <= {int, float}:
        raise ValueError("amplitude components must be numbers")
    try:
        arr = np.asarray(pairs, dtype=np.float64)
    except ValueError:  # ragged pairs
        raise ValueError(not_pairs) from None
    except OverflowError:  # an integer beyond the largest double
        raise ValueError("amplitude components must fit in a double") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(not_pairs)
    # a complex view of the pairs keeps the sign of a -0.0 real part, which
    # re + 1j * im would turn to +0.0
    return PureState(n, arr.view(np.complex128)[:, 0])
