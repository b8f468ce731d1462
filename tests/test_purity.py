import tracemalloc
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    Bipartition,
    EnsembleSpec,
    PureState,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_w,
    purity,
)
from entspec.purity import purities
from entspec.states import BLOCK_BYTES, ENSEMBLE_KINDS, _qubit_axes, sample_blocks
from helpers import (
    apply_single_qubit, haar_row_reference, haar_states, make_product, mask_qubits,
    partial_trace_reshape, permute_amplitudes_bitloop, phase_sphere_row_reference,
    purity_quadruple_sum, random_unitary2, scatter_coefficient_matrix,
)


def all_masks(n):
    return [Bipartition(n, m) for m in range(1, (1 << n) - 1)]


def complement(part):
    return Bipartition(part.n, part.mask ^ ((1 << part.n) - 1))


def kernel_gather(state, part):
    """Z as the purity kernel gathers it: `_qubit_axes`, reshaped to N_A x N_B."""
    a, b = mask_qubits(part.mask), mask_qubits(complement(part).mask)
    return _qubit_axes(state.amplitudes, state.n, a, b).reshape(part.dim_a, part.dim_b)


class TestBipartition:
    def test_derived_quantities(self):
        part = Bipartition(5, 0b10110)
        assert (part.n_a, part.n_b) == (3, 2)
        assert (part.dim_a, part.dim_b) == (8, 4)
        assert part.dim_a * part.dim_b == 2**5

    def test_rejects_empty_subsystems(self):
        with pytest.raises(ValueError):
            Bipartition(3, 0)
        with pytest.raises(ValueError):
            Bipartition(3, 0b111)
        with pytest.raises(ValueError):
            Bipartition(3, 0b1000)


class TestCoefficientMatrix:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_bit_scatter_reference(self, n):
        state = haar_states(n, 1, 900 + n)[0]
        for part in all_masks(n):
            z = kernel_gather(state, part)
            reference = scatter_coefficient_matrix(state, mask_qubits(part.mask))
            assert z.shape == (part.dim_a, part.dim_b)
            assert np.array_equal(z, reference)

    def test_state_stays_read_only(self):
        # end-run cuts read the block itself as a view, so a kernel that wrote
        # through Z would change the caller's amplitudes
        block = np.stack([s.amplitudes for s in haar_states(4, 2, 909)])
        assert block.flags.writeable
        before = block.tobytes()
        for mask in range(1, 15):
            purities(block, 4, [mask])
            assert block.tobytes() == before


@st.composite
def state_cut_perm(draw):
    n = draw(st.integers(2, 8))
    state = haar_states(n, 1, draw(st.integers(0, 2**32 - 1)))[0]
    part = Bipartition(n, draw(st.integers(1, (1 << n) - 2)))
    return state, part, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(state_cut_perm(), st.data())
def test_purity_cut_properties(case, data):
    state, part, perm = case
    keep = mask_qubits(part.mask)
    z = kernel_gather(state, part)
    assert np.array_equal(z, scatter_coefficient_matrix(state, keep))
    res = purity(state, part)
    # relabelled qubits carry the cut with them
    moved = Bipartition(part.n, sum(1 << perm[q] for q in keep))
    permuted = PureState(state.n, permute_amplitudes_bitloop(state, perm))
    assert purity(permuted, moved).purity == pytest.approx(res.purity, abs=1e-12)
    assert purity(state, complement(part)).purity == pytest.approx(res.purity, abs=1e-12)
    assert 1.0 - 1e-12 <= res.participation <= min(part.dim_a, part.dim_b) * (1 + 1e-12)
    # a unitary on one qubit, on either side of the cut, is local
    qubit = data.draw(st.integers(0, state.n - 1))
    u = random_unitary2(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    rotated = apply_single_qubit(state, qubit, u)
    assert purity(rotated, part).purity == pytest.approx(res.purity, abs=1e-12)
    # the Gram form, the literal quadruple sum and a reshape partial trace agree
    rho = partial_trace_reshape(state, keep)
    assert purity_quadruple_sum(state, part.mask) == pytest.approx(res.purity, abs=1e-12)
    assert np.real(np.trace(rho @ rho)) == pytest.approx(res.purity, abs=1e-12)


REAL_NAMED = {"ghz": make_ghz, "w": make_w, "cluster": make_cluster1d}


@st.composite
def real_state_cut(draw):
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["gaussian", *REAL_NAMED]))
    if kind == "gaussian":  # signed real amplitudes
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.standard_normal(1 << n)
        state = PureState(n, g / np.linalg.norm(g))
    else:
        state = REAL_NAMED[kind](n)
    return state, Bipartition(n, draw(st.integers(1, (1 << n) - 2)))


@settings(max_examples=150, deadline=None)
@given(real_state_cut())
def test_real_gram_matches_reshape_partial_trace(case):
    state, part = case
    assert state.amplitudes.dtype == np.float64
    rho = partial_trace_reshape(state, mask_qubits(part.mask))
    assert abs(purity(state, part).purity - np.real(np.trace(rho @ rho))) <= 1e-14


class TestPurity:
    def test_ghz_every_mask(self):
        state = make_ghz(4)
        for part in all_masks(4):
            res = purity(state, part)
            assert res.purity == pytest.approx(0.5, abs=1e-12)
            assert res.participation == pytest.approx(2.0, abs=1e-12)
            assert res.effective_spins == pytest.approx(1.0, abs=1e-12)

    def test_w5_balanced(self):
        res = purity(make_w(5), Bipartition(5, 0b00011))
        assert res.purity == pytest.approx(13 / 25, abs=1e-12)
        assert res.participation == pytest.approx(25 / 13, abs=1e-12)

    def test_basis_state(self):
        res = purity(make_basis(4, 9), Bipartition(4, 0b0101))
        assert res.purity == pytest.approx(1.0, abs=1e-13)

    def test_matches_eigenvalue_sum(self):
        state = haar_states(5, 1, 55)[0]
        for part in all_masks(5):
            rho = partial_trace_reshape(state, mask_qubits(part.mask))
            evals = np.linalg.eigvalsh(rho)
            assert purity(state, part).purity == pytest.approx(
                float(np.sum(evals**2)), abs=1e-10
            )

    def test_bounds_on_random_states(self):
        for idx, state in enumerate(haar_states(5, 10, 60)):
            for part in all_masks(5):
                res = purity(state, part)
                assert res.participation >= 1.0 - 1e-12
                assert res.participation <= min(part.dim_a, part.dim_b) * (1 + 1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(8)
        state = haar_states(4, 1, 61)[0]
        reference = [purity(state, part).purity for part in all_masks(4)]
        for qubit in range(4):
            rotated = apply_single_qubit(state, qubit, random_unitary2(rng))
            for ref, part in zip(reference, all_masks(4)):
                assert purity(rotated, part).purity == pytest.approx(ref, abs=1e-10)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            purity(make_ghz(3), Bipartition(4, 0b0011))


class TestQuadrupleSum:
    def test_agrees_with_gram_on_random_states(self):
        # 20 states per qubit count, every mask: 100 states total
        for n in range(2, 7):
            for idx, state in enumerate(haar_states(n, 20, 700 + n)):
                for part in all_masks(n):
                    assert purity_quadruple_sum(state, part.mask) == pytest.approx(
                        purity(state, part).purity, abs=1e-10
                    )

    def test_ghz_values(self):
        state = make_ghz(3)
        for part in all_masks(3):
            assert purity_quadruple_sum(state, part.mask) == pytest.approx(0.5, abs=1e-12)

    def test_bell_product_split_cut(self):
        bell = make_ghz(2)
        state = make_product(bell, bell)
        assert purity_quadruple_sum(state, 0b0011) == pytest.approx(1.0, abs=1e-12)


class TestComplement:
    def test_purity_symmetry(self):
        for state in haar_states(5, 5, 62):
            for part in all_masks(5):
                assert purity(state, part).purity == pytest.approx(
                    purity(state, complement(part)).purity, abs=1e-12
                )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_purity_symmetry_is_exact(self, n):
        state = haar_states(n, 1, 960 + n)[0]
        for part in all_masks(n):
            assert purity(state, part).purity == purity(state, complement(part)).purity


def gram_purity_2d(state, part):
    """Reference: the cut turned as the kernel turns it, gathered by bit
    scatter, then one 2-D Gram."""
    if (part.n_a, part.mask) > (part.n_b, complement(part).mask):
        part = complement(part)
    z = scatter_coefficient_matrix(state, mask_qubits(part.mask))
    g = z @ z.conj().T
    return float(np.real(np.vdot(g, g)))


def real_gaussian_state(n, seed):
    g = np.random.default_rng(seed).standard_normal(1 << n)
    return PureState(n, g / np.linalg.norm(g))


class TestPuritiesKernel:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_quadruple_sum_real_and_complex(self, n):
        masks = range(1, (1 << n) - 1)
        for state in (haar_states(n, 1, 1100 + n)[0], real_gaussian_state(n, 1200 + n)):
            values = purities(state.amplitudes[None], n, masks)
            assert values.shape == (1, len(masks)) and values.dtype == np.float64
            for mask, value in zip(masks, values[0]):
                oracle = purity_quadruple_sum(state, mask)
                assert abs(value - oracle) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complex_rows_bit_identical_to_2d_gram(self, n):
        states = haar_states(n, 5, 1300 + n)
        block = np.stack([s.amplitudes for s in states])
        masks = list(range(1, (1 << n) - 1))
        values = purities(block, n, masks)
        assert values.shape == (len(states), len(masks))
        for state, row in zip(states, values):
            assert row.tolist() == [gram_purity_2d(state, Bipartition(n, m)) for m in masks]

    def test_real_block_takes_real_gram(self):
        state = make_cluster1d(6)
        block = state.amplitudes[None]
        assert block.dtype == np.float64 and block.shape == (1, 64)
        # one chain edge crosses a contiguous cut; five cross the alternating one
        values = purities(block, 6, [0b000111, 0b111000, 0b010101])
        assert values.tolist() == [[0.5, 0.5, 0.125]]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_mask_complement_and_repeat_share_one_gather(self, monkeypatch, n):
        gathers = []

        def counted(*args):
            gathers.append(args)
            return _qubit_axes(*args)

        # the module, not the package's re-exported function of the same name
        monkeypatch.setattr(import_module("entspec.purity"), "_qubit_axes", counted)
        block = np.stack([s.amplitudes for s in haar_states(n, 3, 1400 + n)])
        full = (1 << n) - 1
        for mask in range(1, full):
            gathers.clear()
            values = purities(block, n, [mask, mask ^ full, mask])
            assert len(gathers) == 1
            assert len({values[:, c].tobytes() for c in range(3)}) == 1

    @pytest.mark.parametrize(
        "mask, gathered", [(0xFF, False), (0xFF00, False), (0xF000, False), (0x0FF0, True)]
    )
    def test_end_runs_are_read_as_views(self, mask, gathered):
        # when A is a run of qubits at either end, Z^T or Z is the block
        # itself and only the Gram is allocated; a middle run is still copied
        n = 16
        amps = real_gaussian_state(n, 1500).amplitudes
        k = min(mask.bit_count(), n - mask.bit_count())
        tracemalloc.start()
        try:
            block = amps[None].copy()  # traced, so the peak counts the state
            purities(block, n, [mask])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = 8 << 2 * k
        if gathered:
            assert peak >= 2 * block.nbytes + gram
        else:
            assert peak < block.nbytes + gram + (16 << 10)

    @pytest.mark.parametrize("mask", [8, 9, -1, 0, 7])
    def test_rejects_masks_that_are_not_cuts(self, mask):
        block = make_ghz(3).amplitudes[None]
        with pytest.raises(ValueError, match=f"^mask {mask:#x} is not a cut of 3 qubits$"):
            purities(block, 3, [0b001, mask, 0b1010])

    @pytest.mark.parametrize(
        "block, what",
        [
            (make_ghz(8).amplitudes, r"shape \(256,\)"),
            (np.zeros((2, 128)), r"shape \(2, 128\)"),
            (np.ones((2, 256), np.int64), "dtype int64"),
            (np.ones((2, 256), np.complex64), "dtype complex64"),
        ],
        ids=["1-d", "wrong-length", "int64", "complex64"],
    )
    def test_rejects_malformed_blocks(self, block, what):
        with pytest.raises(ValueError, match=f"^block has {what}, expected "):
            purities(block, 8, [1, 3])

    def test_no_rows_or_no_masks(self):
        assert purities(np.empty((0, 16), np.complex128), 4, [0x3]).shape == (0, 1)
        assert purities(make_ghz(4).amplitudes[None], 4, []).shape == (1, 0)


STEP_N = 8  # qubits per sampled row in the block-boundary tests
STEP = max(1, BLOCK_BYTES // (16 << STEP_N))  # rows per sampled block


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
@pytest.mark.parametrize("count", [0, 1, STEP - 1, STEP, STEP + 1])
def test_block_boundaries_match_one_state_at_a_time(kind, count):
    spec = EnsembleSpec(kind, STEP_N, 1400 + count)
    blocks = list(sample_blocks(spec, count))
    assert [b.shape[0] for b in blocks] == [min(STEP, count - i) for i in range(0, count, STEP)]
    assert all(b.dtype == np.complex128 and b.nbytes <= BLOCK_BYTES for b in blocks)
    masks = [0x0F, 0x33, 0x01]
    kernel = [v for b in blocks for v in purities(b, STEP_N, masks).tolist()]
    one_at_a_time = [
        [purity(PureState(STEP_N, row), Bipartition(STEP_N, m)).purity for m in masks]
        for b in blocks for row in b
    ]
    assert kernel == one_at_a_time and len(kernel) == count


@pytest.mark.parametrize("n", [2, 9, 11])
def test_sampled_rows_bit_identical_to_per_state_draws(n):
    count = min(3 * max(1, BLOCK_BYTES // (16 << n)) + 2, 100)  # three blocks from n = 9
    for kind, reference in (
        ("haar", haar_row_reference),
        ("phase-sphere", phase_sphere_row_reference),
    ):
        spec = EnsembleSpec(kind, n, 2**63 + n)
        rows = np.concatenate(list(sample_blocks(spec, count)))
        assert rows.shape[0] == count
        for i in (0, 1, count // 2, count - 1):
            assert rows[i].tobytes() == reference(n, spec.seed, i).tobytes()
