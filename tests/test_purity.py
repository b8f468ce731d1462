import math
import re
import time
import tracemalloc
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    BipartitionFamily, EnsembleSpec, PureState, make_basis, make_cluster1d, make_ghz, make_w,
)
from entspec._blas import blas_threads
from entspec.purity import SLAB_ROWS, _cut_matrices, purities
from entspec.states import BLOCK_BYTES, ENSEMBLE_KINDS, sample_blocks
from helpers import (
    apply_single_qubit, exact_purity, haar_row_reference, haar_states, make_product,
    mask_qubits, partial_trace_reshape, permute_amplitudes_bitloop, phase_sphere_row_reference,
    purity_quadruple_sum, random_unitary2, scatter_coefficient_matrix,
)
from one_state import assert_masks_refused, participation_bound, purity


def all_masks(n):
    return range(1, (1 << n) - 1)


def complement(n, mask):
    return mask ^ ((1 << n) - 1)


def kernel_gather(state, mask):
    """Z as the purity kernel gathers it, a view or a copy, for one mask."""
    return next(_cut_matrices(state.amplitudes[None], state.n, [mask]))[0]


class TestCoefficientMatrix:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_bit_scatter_reference(self, n):
        state = haar_states(n, 1, 900 + n)[0]
        for mask in all_masks(n):
            z = kernel_gather(state, mask)
            reference = scatter_coefficient_matrix(state, mask_qubits(mask))
            k = mask.bit_count()
            assert z.shape == (1 << k, 1 << (n - k))
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
    mask = draw(st.integers(1, (1 << n) - 2))
    return state, mask, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(state_cut_perm(), st.data())
def test_purity_cut_properties(case, data):
    state, mask, perm = case
    n = state.n
    keep = mask_qubits(mask)
    z = kernel_gather(state, mask)
    assert np.array_equal(z, scatter_coefficient_matrix(state, keep))
    p = purity(state, mask)
    # relabelled qubits carry the cut with them
    moved = sum(1 << perm[q] for q in keep)
    permuted = PureState(n, permute_amplitudes_bitloop(state, perm))
    assert purity(permuted, moved) == pytest.approx(p, abs=1e-12)
    assert purity(state, complement(n, mask)) == pytest.approx(p, abs=1e-12)
    assert 1.0 - 1e-12 <= 1.0 / p <= participation_bound(n, mask) * (1 + 1e-12)
    # a unitary on one qubit, on either side of the cut, is local
    qubit = data.draw(st.integers(0, n - 1))
    u = random_unitary2(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    rotated = apply_single_qubit(state, qubit, u)
    assert purity(rotated, mask) == pytest.approx(p, abs=1e-12)
    # the Gram form, the literal quadruple sum and a reshape partial trace agree
    rho = partial_trace_reshape(state, keep)
    assert purity_quadruple_sum(state, mask) == pytest.approx(p, abs=1e-12)
    assert np.real(np.trace(rho @ rho)) == pytest.approx(p, abs=1e-12)


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
    return state, draw(st.integers(1, (1 << n) - 2))


@settings(max_examples=150, deadline=None)
@given(real_state_cut())
def test_real_gram_matches_reshape_partial_trace(case):
    state, mask = case
    assert state.amplitudes.dtype == np.float64
    rho = partial_trace_reshape(state, mask_qubits(mask))
    assert abs(purity(state, mask) - np.real(np.trace(rho @ rho))) <= 1e-14


class TestPurity:
    def test_ghz_every_mask(self):
        state = make_ghz(4)
        for mask in all_masks(4):
            p = purity(state, mask)
            assert p == pytest.approx(0.5, abs=1e-12)
            assert 1.0 / p == pytest.approx(2.0, abs=1e-12)
            assert -math.log2(p) == pytest.approx(1.0, abs=1e-12)

    def test_w5_balanced(self):
        p = purity(make_w(5), 0b00011)
        assert p == pytest.approx(13 / 25, abs=1e-12)
        assert 1.0 / p == pytest.approx(25 / 13, abs=1e-12)

    def test_basis_state(self):
        assert purity(make_basis(4, 9), 0b0101) == pytest.approx(1.0, abs=1e-13)

    def test_matches_eigenvalue_sum(self):
        state = haar_states(5, 1, 55)[0]
        for mask in all_masks(5):
            rho = partial_trace_reshape(state, mask_qubits(mask))
            evals = np.linalg.eigvalsh(rho)
            assert purity(state, mask) == pytest.approx(
                float(np.sum(evals**2)), abs=1e-10
            )

    def test_bounds_on_random_states(self):
        for idx, state in enumerate(haar_states(5, 10, 60)):
            for mask in all_masks(5):
                participation = 1.0 / purity(state, mask)
                assert participation >= 1.0 - 1e-12
                assert participation <= participation_bound(5, mask) * (1 + 1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(8)
        state = haar_states(4, 1, 61)[0]
        reference = [purity(state, mask) for mask in all_masks(4)]
        for qubit in range(4):
            rotated = apply_single_qubit(state, qubit, random_unitary2(rng))
            for ref, mask in zip(reference, all_masks(4)):
                assert purity(rotated, mask) == pytest.approx(ref, abs=1e-10)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match=r"shape \(1, 8\), expected \(count, 16\)"):
            purities(make_ghz(3).amplitudes[None], 4, [0b0011])


class TestQuadrupleSum:
    def test_agrees_with_gram_on_random_states(self):
        # 20 states per qubit count, every mask: 100 states total
        for n in range(2, 7):
            for idx, state in enumerate(haar_states(n, 20, 700 + n)):
                for mask in all_masks(n):
                    assert purity_quadruple_sum(state, mask) == pytest.approx(
                        purity(state, mask), abs=1e-10
                    )

    def test_ghz_values(self):
        state = make_ghz(3)
        for mask in all_masks(3):
            assert purity_quadruple_sum(state, mask) == pytest.approx(0.5, abs=1e-12)

    def test_bell_product_split_cut(self):
        bell = make_ghz(2)
        state = make_product(bell, bell)
        assert purity_quadruple_sum(state, 0b0011) == pytest.approx(1.0, abs=1e-12)


class TestComplement:
    def test_purity_symmetry(self):
        for state in haar_states(5, 5, 62):
            for mask in all_masks(5):
                assert purity(state, mask) == pytest.approx(
                    purity(state, complement(5, mask)), abs=1e-12
                )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_purity_symmetry_is_exact(self, n):
        state = haar_states(n, 1, 960 + n)[0]
        for mask in all_masks(n):
            assert purity(state, mask) == purity(state, complement(n, mask))


def gram_purity_2d(state, mask):
    """Reference: the cut turned as the kernel turns it, gathered by bit
    scatter, then one 2-D Gram."""
    n, k = state.n, mask.bit_count()
    if (k, mask) > (n - k, complement(n, mask)):
        mask = complement(n, mask)
    z = scatter_coefficient_matrix(state, mask_qubits(mask))
    g = z @ z.conj().T
    with blas_threads(1):  # as the kernel reduces a Gram: a threaded dot moves bits
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
            assert row.tolist() == [gram_purity_2d(state, m) for m in masks]

    def test_real_block_takes_real_gram(self):
        state = make_cluster1d(6)
        block = state.amplitudes[None]
        assert block.dtype == np.float64 and block.shape == (1, 64)
        # one chain edge crosses a contiguous cut; five cross the alternating one
        values = purities(block, 6, [0b000111, 0b111000, 0b010101])
        assert values.tolist() == [[0.5, 0.5, 0.125]]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_mask_complement_and_repeat_share_one_gather(self, monkeypatch, n):
        gathers = []  # every mask the kernel reads

        def counted(block, n, masks):
            gathers.extend(masks)
            return _cut_matrices(block, n, masks)

        # the module, not the package's re-exported function of the same name
        monkeypatch.setattr(import_module("entspec.purity"), "_cut_matrices", counted)
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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_row_slabs_match_quadruple_sum(self, monkeypatch, n):
        # slabs of 1, 2 and 4 rows take the multi-slab path at small n: the
        # off-diagonal slab Grams count twice, and a complex slab is
        # conjugated into a buffer of one slab
        full = (1 << n) - 1
        masks = list(range(1, full))
        blocks = [
            np.stack([s.amplitudes for s in haar_states(n, 3, 1500 + n)]),
            np.stack([real_gaussian_state(n, 1600 + 3 * n + r).amplitudes for r in range(3)]),
        ]
        oracles = [
            [[purity_quadruple_sum(PureState(n, row), m) for m in masks] for row in block]
            for block in blocks
        ]
        for rows in (1, 2, 4):
            monkeypatch.setattr(import_module("entspec.purity"), "SLAB_ROWS", rows)
            for block, oracle in zip(blocks, oracles):
                values = purities(block, n, masks + masks)  # each mask twice
                assert np.all(np.abs(values[:, : len(masks)] - oracle) <= 1e-12)
                for c, mask in enumerate(masks):
                    column = values[:, c].tobytes()
                    assert values[:, c + len(masks)].tobytes() == column
                    assert values[:, (mask ^ full) - 1].tobytes() == column

    @pytest.mark.parametrize("mask", [0x1FF, 0x15555, 0x2AAAA])
    def test_cut_of_slab_rows_bit_identical_to_2d_gram(self, mask):
        # N_A = SLAB_ROWS is still one slab: one Gram of the whole Z.  The
        # states are complex because for a real one the reference's
        # z @ z.conj().T is a gemm and the kernel's Z Z^T a syrk, which need
        # not agree bit for bit
        n = 18
        assert 1 << min(mask.bit_count(), n - mask.bit_count()) == SLAB_ROWS
        states = haar_states(n, 2, 1700)
        values = purities(np.stack([s.amplitudes for s in states]), n, [mask])
        assert values[:, 0].tolist() == [gram_purity_2d(s, mask) for s in states]

    @pytest.mark.parametrize(
        "kind, mask, bound",
        [
            # one Gram slab, where the whole Gram alone is 8 MiB
            ("real", 0x3FF, lambda state: state + 8 * SLAB_ROWS**2),
            # one conjugate slab (N_B = 1024 columns) and one Gram slab; Z is
            # a transposed view here, so np.conjugate also fills numpy's
            # ufunc buffer, a constant 8192 elements however large the state
            (
                "complex",
                0x3FF,
                lambda state: state + 16 * (SLAB_ROWS * (1024 + SLAB_ROWS) + np.getbufsize()),
            ),
            # a middle cut still gathers one state-sized copy
            ("real", 0x55555, lambda state: 2 * state + 8 * SLAB_ROWS**2),
        ],
        ids=["real-0x3ff", "complex-0x3ff", "real-0x55555"],
    )
    def test_large_cut_holds_one_slab(self, kind, mask, bound):
        n = 20
        if kind == "real":
            amps = real_gaussian_state(n, 1800).amplitudes
        else:
            amps = haar_states(n, 1, 1800)[0].amplitudes
        tracemalloc.start()
        try:
            block = amps[None].copy()  # traced, so the peak counts the state
            # one worker; tests/test_blas.py bounds a dealt cut per worker
            with blas_threads(1):
                purities(block, n, [mask])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound(block.nbytes) + (16 << 10)

    @pytest.mark.parametrize("mask", [8, 9, -1, 0, 7])
    def test_rejects_masks_that_are_not_cuts(self, mask):
        # the first mask that is not a cut is named, by the kernel and the rules
        message = f"^mask {mask:#x} is not a cut of 3 qubits$"
        assert_masks_refused("ghz", 3, [0b001, mask, 0b1010], message)

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

    @pytest.mark.parametrize(
        "mask", [3.5, np.float64(12.9), True, np.True_], ids=["float", "float64", "bool", "np-bool"]
    )
    def test_rejects_masks_that_are_not_integers(self, mask):
        # a float would be truncated to a neighbouring cut and a bool taken as 0x1
        message = f"^mask {re.escape(repr(mask))} is not an integer$"
        assert_masks_refused("ghz", 4, [0b0011, mask], message)

    @pytest.mark.parametrize("masks", [np.array([3, 5, 12]), np.array([3, 5, 12], np.uint8)])
    def test_numpy_integer_masks(self, masks):
        block = make_ghz(4).amplitudes[None]
        assert purities(block, 4, masks).tolist() == purities(block, 4, [3, 5, 12]).tolist()

    def test_no_rows_or_no_masks(self):
        assert purities(np.empty((0, 16), np.complex128), 4, [0x3]).shape == (0, 1)
        assert purities(make_ghz(4).amplitudes[None], 4, []).shape == (1, 0)

    def test_no_rows_return_once_the_masks_are_checked(self):
        # n = 20 all-sizes: 1048574 masks, checked in one vectorized pass,
        # with no cut planned or walked
        n = 20
        masks = BipartitionFamily(n, "all-sizes").masks()
        block = np.empty((0, 1 << n))
        start = time.perf_counter()
        assert purities(block, n, masks).shape == (0, masks.size)
        assert time.perf_counter() - start < 0.5
        tracemalloc.start()
        try:
            purities(block, n, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < masks.nbytes / 2

    @pytest.mark.parametrize("dtype, scale", [(np.float64, 1), (np.complex128, 4)])
    def test_work_sum_is_the_closed_form(self, monkeypatch, dtype, scale):
        # the plan's real multiply-adds over the n = 20 all-sizes cuts, a
        # Python int: sum over k <= n/2 of cuts(k) pairs(k) s(k)^2 N_B(k) scale
        n = 20
        work = []
        monkeypatch.setattr(
            import_module("entspec.purity"), "_deal",
            lambda units, madds, run, gather=0: work.append(madds),
        )
        purities(np.zeros((1, 1 << n), dtype), n, BipartitionFamily(n, "all-sizes").masks())
        want = 0
        for k in range(1, n // 2 + 1):  # A the smaller side; two equal sides once
            cuts = math.comb(n, k) // (2 if 2 * k == n else 1)
            s = min(SLAB_ROWS, 1 << k)
            slabs = (1 << k) // s
            want += cuts * (slabs * (slabs + 1) // 2) * s * s * (1 << (n - k)) * scale
        assert work == [want]


# The kernel's largest distance from the exact purity, in units in the last
# place, over every all-sizes cut of 48 Gaussian states at n = 8 (16 real and
# 32 complex), every slab height and dealt or not, was 10 under SkylakeX and
# at most 6 under Haswell, SandyBridge and Nehalem; the bound leaves two more.
EXACT_ULPS = 12


@pytest.fixture(scope="module")
def exact_cuts():
    """The all-sizes masks at n = 8, and a real and a complex Gaussian state
    there, each with its exact purity across every mask rounded once."""
    masks = BipartitionFamily(8, "all-sizes").masks()
    states = [real_gaussian_state(8, 5), haar_states(8, 1, 5)[0]]
    return masks, [
        (state, np.array([float(exact_purity(state, m)) for m in masks.tolist()]))
        for state in states
    ]


class TestExactOracle:
    @pytest.mark.parametrize("dealt", [False, True], ids=["undealt", "dealt"])
    @pytest.mark.parametrize("slab_rows", [SLAB_ROWS, 4, 2])
    def test_within_a_fixed_ulp_bound(self, monkeypatch, exact_cuts, slab_rows, dealt):
        # one sweep and one call a mask, on one slab or on slab pairs; dealt,
        # a sweep's cuts or a lone cut's slab pairs go to three workers
        kernel = import_module("entspec.purity")
        monkeypatch.setattr(kernel, "SLAB_ROWS", slab_rows)
        if dealt:
            monkeypatch.setattr(kernel, "DEAL_MADDS", 1)
        masks, cases = exact_cuts
        for state, exact in cases:
            block = state.amplitudes[None]
            with blas_threads(3 if dealt else 1):
                swept = purities(block, 8, masks)[0]
                lone = np.array([purities(block, 8, [m])[0, 0] for m in masks.tolist()])
            for values in (swept, lone):
                ulps = np.abs(values.view(np.int64) - exact.view(np.int64))
                assert ulps.max() <= EXACT_ULPS, (state.amplitudes.dtype, masks[ulps.argmax()])

    def test_sampled_block_rows(self):
        # `sample`'s path: one Haar block of several rows, whose Grams are
        # stacked one per row, swept over every cut in one call
        n = 7
        (block,) = sample_blocks(EnsembleSpec("haar", n, 7), 4)
        assert block.shape == (4, 1 << n)
        masks = BipartitionFamily(n, "all-sizes").masks()
        values = purities(block, n, masks)
        for row, swept in zip(block, values):
            state = PureState(n, row)
            exact = np.array([float(exact_purity(state, m)) for m in masks.tolist()])
            ulps = np.abs(swept.view(np.int64) - exact.view(np.int64))
            assert ulps.max() <= EXACT_ULPS, masks[ulps.argmax()]


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
        [purity(PureState(STEP_N, row), m) for m in masks]
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
