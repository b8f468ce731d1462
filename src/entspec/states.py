"""Construction of named n-qubit pure states and random-state ensembles.

Amplitude indexing is little-endian throughout the package: basis index k
carries the value of qubit j in bit j, so qubit 0 is the least-significant
bit and k = sum_j b_j 2^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 26  # 2**26 complex amplitudes ~ 1 GiB
NORM_TOL = 1e-12

ENSEMBLE_KINDS = ("haar", "phase-sphere")


def _check_qubits(n: int, minimum: int, what: str) -> None:
    """The qubit-count range check, run before anything of size 2**n is allocated."""
    if n < minimum:
        raise ValueError(f"{what} needs {minimum} or more qubits, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"qubit count {n} exceeds the memory guard of {MAX_QUBITS}")


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the 2**n computational basis."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubits(self.n, 1, "state")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {1 << self.n}"
            )
        # any NaN or infinite amplitude makes the norm non-finite
        norm2 = float(np.real(np.vdot(amps, amps)))
        if not math.isfinite(norm2):
            raise ValueError(f"amplitudes are not finite: sum |z|^2 = {norm2!r}")
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: sum |z|^2 = {norm2!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


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
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[k] = 1.0
    return PureState(n, amps)


def make_ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2); every bipartition has participation 2."""
    _check_qubits(n, 2, "GHZ state")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def make_w(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis states, all phases +1."""
    _check_qubits(n, 2, "W state")
    amps = np.zeros(1 << n, dtype=np.complex128)
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
    amps = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=np.complex128)
    # axes (high bits, b_{k+1}, b_k, low bits); only the real parts flip, so
    # the imaginary parts stay +0.0
    for k in range(n - 1):
        amps.real.reshape(-1, 2, 2, 1 << k)[:, 1, 0, :] *= -1
    return PureState(n, amps)


def make_product(a: PureState, b: PureState) -> PureState:
    """Tensor product; qubits of `a` keep positions 0..n_a-1, `b` fills the rest."""
    n = a.n + b.n
    _check_qubits(n, 1, "product state")
    # index k = k_b * 2**n_a + k_a, so b supplies the high bits
    return PureState(n, np.kron(b.amplitudes, a.amplitudes))


def _qubit_groups(state: PureState, *groups: list[int]) -> np.ndarray:
    """Amplitudes with one index per group: bit t of index g is qubit groups[g][t].

    Axis n-1-q of the (2,)*n tensor holds qubit q.  The result is a read-only
    view of the amplitudes when no transpose is needed, and a copy otherwise.
    """
    axes = [state.n - 1 - q for group in groups for q in reversed(group)]
    tensor = state.amplitudes.reshape((2,) * state.n).transpose(axes)
    return tensor.reshape([1 << len(group) for group in groups])


def permute_qubits(state: PureState, perm: list[int] | tuple[int, ...]) -> PureState:
    """Relabel qubits: qubit j of the input becomes qubit perm[j] of the output."""
    if sorted(perm) != list(range(state.n)):
        raise ValueError(f"perm must be a permutation of 0..{state.n - 1}")
    inverse = sorted(range(state.n), key=perm.__getitem__)  # perm[inverse[q]] == q
    return PureState(state.n, _qubit_groups(state, inverse))


def apply_single_qubit(state: PureState, qubit: int, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one qubit (norm is re-checked on construction)."""
    if not (0 <= qubit < state.n):
        raise ValueError(f"qubit {qubit} out of range for {state.n} qubits")
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError("single-qubit operator must be 2x2")
    arr = state.amplitudes.reshape(-1, 2, 1 << qubit)
    return PureState(state.n, np.einsum("ab,ibj->iaj", u, arr).reshape(-1))


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # one PCG64 stream per sample, split from (seed, index) via SeedSequence
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_haar(spec: EnsembleSpec, count: int) -> list[PureState]:
    """Draw `count` states uniformly on the complex unit sphere.

    Each state is a vector of 2**n complex entries whose real and imaginary
    parts are independent standard normals, normalized to unit length;
    rotation invariance of the Gaussian makes the result Haar-uniform.
    """
    if spec.kind != "haar":
        raise ValueError(f"ensemble kind is {spec.kind!r}, expected 'haar'")
    if count < 0:
        raise ValueError("count must be non-negative")
    dim = 1 << spec.n
    states = []
    for i in range(count):
        g = _sample_rng(spec.seed, i).standard_normal(2 * dim)
        z = g[:dim] + 1j * g[dim:]
        states.append(PureState(spec.n, z / np.linalg.norm(z)))
    return states


def sample_phase_sphere(spec: EnsembleSpec, count: int) -> list[PureState]:
    """Draw states with moduli uniform on the real unit sphere and independent
    uniform phases.

    Per sample, the stream yields 2**n standard normals (folded and normalized
    to give the moduli) followed by 2**n uniform phases on [0, 2*pi).
    """
    if spec.kind != "phase-sphere":
        raise ValueError(f"ensemble kind is {spec.kind!r}, expected 'phase-sphere'")
    if count < 0:
        raise ValueError("count must be non-negative")
    dim = 1 << spec.n
    states = []
    for i in range(count):
        rng = _sample_rng(spec.seed, i)
        g = rng.standard_normal(dim)
        r = np.abs(g) / np.linalg.norm(g)
        phases = rng.uniform(0.0, 2.0 * np.pi, dim)
        states.append(PureState(spec.n, r * np.exp(1j * phases)))
    return states


def state_to_dict(state: PureState) -> dict:
    """JSON-ready form: {"n": ..., "amplitudes": [[re, im], ...]}."""
    return {
        "n": state.n,
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes],
    }


def state_from_dict(data: dict) -> PureState:
    """Inverse of state_to_dict; validates types, shape and normalization.

    n must be a JSON integer and each [re, im] component a JSON number;
    strings, booleans, nulls and a float n such as 2.0 are rejected rather
    than converted.
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
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(not_pairs)
    return PureState(n, arr[:, 0] + 1j * arr[:, 1])
