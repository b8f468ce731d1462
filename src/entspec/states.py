"""Construction of named n-qubit pure states and random-state ensembles.

Amplitude indexing is little-endian throughout the package: basis index k
carries the value of qubit j in bit j, so qubit 0 is the least-significant
bit and k = sum_j b_j 2^j.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 26  # 2**26 complex amplitudes ~ 1 GiB; a real state is half that
NORM_TOL = 1e-12
BLOCK_BYTES = 1 << 18  # bytes of amplitudes per sampled block


def _check_qubits(n: int, minimum: int, what: str) -> None:
    """The qubit-count range check, run before anything of size 2**n is allocated."""
    if n < minimum:
        raise ValueError(f"{what} needs {minimum} or more qubits, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"qubit count {n} exceeds the memory guard of {MAX_QUBITS}")


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
        # a NaN or infinite amplitude, or a sum that overflows, is not finite
        norm2 = float(np.real(np.vdot(amps, amps)))
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
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit non-negative integer")


def make_basis(n: int, k: int) -> PureState:
    """Computational basis state |k> on n qubits."""
    _check_qubits(n, 1, "basis state")
    if not (0 <= k < (1 << n)):
        raise ValueError(f"basis index {k} out of range for {n} qubits")
    amps = np.zeros(1 << n)
    amps[k] = 1.0
    return PureState(n, amps)


def make_ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2); every bipartition has participation 2."""
    _check_qubits(n, 2, "GHZ state")
    amps = np.zeros(1 << n)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def make_w(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis states, all phases +1."""
    _check_qubits(n, 2, "W state")
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
    _check_qubits(n, 2, "cluster state")
    amps = np.full(1 << n, 1.0 / np.sqrt(1 << n))
    for k in range(n - 1):  # axes (high bits, b_{k+1}, b_k, low bits)
        amps.reshape(-1, 2, 2, 1 << k)[:, 1, 0, :] *= -1
    return PureState(n, amps)


def _qubit_axes(amps: np.ndarray, n: int, *groups: list[int]) -> np.ndarray:
    """View of the last axis of `amps` as one length-2 axis per qubit, in
    group order, so that reshaped to one index per group, bit t of index g is
    qubit groups[g][t].  Axis n-1-q of the (2,)*n tensor holds qubit q, and
    any leading axes are kept.
    """
    lead = amps.ndim - 1
    axes = [lead + n - 1 - q for group in groups for q in reversed(group)]
    tensor = amps.reshape(amps.shape[:lead] + (2,) * n)
    return tensor.transpose(list(range(lead)) + axes)


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

    Each block is checked once for finite, normalized rows.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    dim = 1 << spec.n
    draw = _ENSEMBLE_ROWS[spec.kind]
    step = max(1, BLOCK_BYTES // (16 * dim))
    for start in range(0, count, step):
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
    return {
        "n": state.n,
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes],
    }


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
