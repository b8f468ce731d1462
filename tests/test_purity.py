import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    Bipartition,
    ReducedDensity,
    apply_single_qubit,
    complement,
    make_basis,
    make_ghz,
    make_product,
    make_w,
    permute_qubits,
    purity,
    purity_quadruple_sum,
    reduced_density,
)
from entspec.purity import coefficient_matrix
from helpers import (
    haar_states, partial_trace_reshape, random_unitary2, scatter_coefficient_matrix,
)


def all_masks(n):
    return [Bipartition(n, m) for m in range(1, (1 << n) - 1)]


class TestBipartition:
    def test_derived_quantities(self):
        part = Bipartition(5, 0b10110)
        assert (part.n_a, part.n_b) == (3, 2)
        assert (part.dim_a, part.dim_b) == (8, 4)
        assert part.dim_a * part.dim_b == 2**5
        assert part.positions_a() == [1, 2, 4]
        assert part.positions_b() == [0, 3]

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
            z = coefficient_matrix(state, part)
            assert z.shape == (part.dim_a, part.dim_b)
            assert np.array_equal(z, scatter_coefficient_matrix(state, part.positions_a()))

    def test_state_stays_read_only(self):
        state = haar_states(4, 1, 909)[0]
        for part in all_masks(4):
            z = coefficient_matrix(state, part)
            assert not (z.flags.writeable and np.shares_memory(z, state.amplitudes))


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
    z = coefficient_matrix(state, part)
    assert np.array_equal(z, scatter_coefficient_matrix(state, part.positions_a()))
    res = purity(state, part)
    # relabelled qubits carry the cut with them
    moved = Bipartition(part.n, sum(1 << perm[q] for q in part.positions_a()))
    assert purity(permute_qubits(state, perm), moved).purity == pytest.approx(
        res.purity, abs=1e-12
    )
    assert purity(state, complement(part)).purity == pytest.approx(res.purity, abs=1e-12)
    assert 1.0 - 1e-12 <= res.participation <= min(part.dim_a, part.dim_b) * (1 + 1e-12)
    # a unitary on one qubit, on either side of the cut, is local
    qubit = data.draw(st.integers(0, state.n - 1))
    u = random_unitary2(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    rotated = apply_single_qubit(state, qubit, u)
    assert purity(rotated, part).purity == pytest.approx(res.purity, abs=1e-12)
    # the Gram form, the literal quadruple sum and a reshape partial trace agree
    rho = partial_trace_reshape(state, part.positions_a())
    assert purity_quadruple_sum(state, part) == pytest.approx(res.purity, abs=1e-12)
    assert np.real(np.trace(rho @ rho)) == pytest.approx(res.purity, abs=1e-12)


class TestReducedDensity:
    def test_ghz_single_qubit(self):
        rho = reduced_density(make_ghz(3), Bipartition(3, 0b001))
        np.testing.assert_allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_factorized_qubit(self):
        rho = reduced_density(make_basis(3, 0b101), Bipartition(3, 0b001))
        np.testing.assert_allclose(rho.entries, np.diag([0.0, 1.0]), atol=1e-15)

    def test_w_two_qubit_block(self):
        # (2/3)|Psi+><Psi+| + (1/3)|00><00| with Psi+ = (|01>+|10>)/sqrt(2)
        rho = reduced_density(make_w(3), Bipartition(3, 0b011))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1 / 3
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 1 / 3
        np.testing.assert_allclose(rho.entries, expected, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_reshape_partial_trace(self, n):
        state = haar_states(n, 1, 400 + n)[0]
        for part in all_masks(n):
            ours = reduced_density(state, part).entries
            oracle = partial_trace_reshape(state, part.positions_a())
            np.testing.assert_allclose(ours, oracle, atol=1e-13)

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ReducedDensity(2, np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            ReducedDensity(2, np.diag([0.9, 0.9]))
        with pytest.raises(ValueError, match="semidefinite"):
            ReducedDensity(2, np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        entries = np.diag([0.5, 0.5]).astype(complex)
        entries[0, 0] = bad
        for m in (entries, np.full((2, 2), bad)):
            with pytest.raises(ValueError, match="finite"):
                ReducedDensity(2, m)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            reduced_density(make_ghz(3), Bipartition(4, 0b0011))


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
            evals = np.linalg.eigvalsh(reduced_density(state, part).entries)
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
                    assert purity_quadruple_sum(state, part) == pytest.approx(
                        purity(state, part).purity, abs=1e-10
                    )

    def test_ghz_values(self):
        state = make_ghz(3)
        for part in all_masks(3):
            assert purity_quadruple_sum(state, part) == pytest.approx(0.5, abs=1e-12)

    def test_bell_product_split_cut(self):
        bell = make_ghz(2)
        state = make_product(bell, bell)
        assert purity_quadruple_sum(state, Bipartition(4, 0b0011)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_size_guard(self):
        state = make_ghz(13)
        with pytest.raises(ValueError, match="limited"):
            purity_quadruple_sum(state, Bipartition(13, 1))


class TestComplement:
    def test_bit_flip(self):
        assert complement(Bipartition(4, 0x3)).mask == 0xC

    def test_involution(self):
        part = Bipartition(6, 0b010110)
        assert complement(complement(part)) == part

    def test_purity_symmetry(self):
        for state in haar_states(5, 5, 62):
            for part in all_masks(5):
                assert purity(state, part).purity == pytest.approx(
                    purity(state, complement(part)).purity, abs=1e-12
                )
