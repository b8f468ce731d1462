import numpy as np
import pytest

from entspec import (
    BipartitionFamily,
    EnsembleSpec,
    PureState,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_w,
    state_from_dict,
    state_to_dict,
)
from entspec import states as states_module
from helpers import (
    apply_single_qubit, cluster1d_bit_parity, graph_state_line, haar_states,
    make_product, partial_trace_reshape, path_cut_rank, permute_amplitudes_bitloop,
    sampled_rows,
)
from one_state import distribution, purity


def all_masks(n):
    return range(1, (1 << n) - 1)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(2, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(1, np.array([bad, 0.0]))

    def test_rejects_bad_qubit_counts(self):
        with pytest.raises(ValueError):
            PureState(0, np.array([1.0]))
        with pytest.raises(ValueError, match="guard"):
            PureState(27, np.zeros(8))

    def test_is_real_ignores_negative_zero_imaginary_parts(self):
        for imag in (0.0, -0.0):
            amps = np.array([complex(1.0, imag), complex(0.0, imag)])
            assert PureState(1, amps).amplitudes.dtype == np.float64
        tiny = np.array([1.0, complex(0.0, 1e-300)])
        assert PureState(1, tiny).amplitudes.dtype == np.complex128

    @pytest.mark.parametrize(
        "make", [lambda n: make_basis(n, 5), make_ghz, make_w, make_cluster1d]
    )
    def test_named_builders_are_real(self, make):
        assert make(4).amplitudes.dtype == np.float64

    def test_contiguous_float64_input_is_kept_read_only(self):
        amps = np.array([0.6, 0.8])
        assert PureState(1, amps).amplitudes is amps
        assert not amps.flags.writeable

    def test_real_gate_keeps_a_real_state_real(self):
        state = make_ghz(3)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert apply_single_qubit(state, 0, hadamard).amplitudes.dtype == np.float64
        s_gate = np.diag([1.0, 1j])
        assert apply_single_qubit(state, 0, s_gate).amplitudes.dtype == np.complex128

    def test_amplitudes_immutable(self):
        state = make_ghz(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestBasis:
    def test_three_qubit_ends(self):
        z0 = make_basis(3, 0).amplitudes
        z7 = make_basis(3, 7).amplitudes
        assert z0[0] == 1.0 and np.all(z0[1:] == 0.0)
        assert z7[7] == 1.0 and np.all(z7[:7] == 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_basis(1, 2)

    def test_every_mask_unentangled(self):
        state = make_basis(4, 0b1011)
        for mask in all_masks(4):
            assert purity(state, mask) == pytest.approx(1.0, abs=1e-12)


class TestGhz:
    def test_amplitudes(self):
        z = make_ghz(3).amplitudes
        assert z[0] == pytest.approx(1 / np.sqrt(2))
        assert z[7] == pytest.approx(1 / np.sqrt(2))
        assert np.all(z[1:7] == 0.0)

    def test_two_qubits_is_bell(self):
        z = make_ghz(2).amplitudes
        np.testing.assert_allclose(z, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_purity_half_every_bipartition(self, n):
        state = make_ghz(n)
        for mask in all_masks(n):
            assert purity(state, mask) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            make_ghz(1)


class TestW:
    def test_amplitudes_three_qubits(self):
        z = make_w(3).amplitudes
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / np.sqrt(3)
        np.testing.assert_allclose(z, expected)

    def test_single_qubit_cut(self):
        state = make_w(3)
        assert 1.0 / purity(state, 0b001) == pytest.approx(9 / 5, abs=1e-12)

    def test_balanced_cut_six_qubits(self):
        state = make_w(6)
        assert 1.0 / purity(state, 0b000111) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            make_w(1)


class TestCluster:
    def test_two_qubit_expansion(self):
        # direct expansion of the defining chain product for n = 2
        np.testing.assert_allclose(
            make_cluster1d(2).amplitudes, np.array([1, 1, -1, 1]) / 2.0
        )

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_bit_parity_reference_bytes(self, n):
        """In-place sign flips on the float64 array give the reference's bytes."""
        ours = make_cluster1d(n).amplitudes
        assert ours.tobytes() == cluster1d_bit_parity(n).tobytes()

    def test_two_qubit_single_purity(self):
        state = make_cluster1d(2)
        assert purity(state, 1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_cz_graph_state_purities(self, n):
        """The CZ-circuit graph state is local-Z equivalent: purities must agree."""
        ours = make_cluster1d(n)
        circuit = graph_state_line(n)
        for mask in all_masks(n):
            assert purity(ours, mask) == pytest.approx(purity(circuit, mask), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_cut_rank_oracle_matches_reshape_purity(self, n):
        """2**cut-rank is the participation number of the chain at every cut."""
        state = graph_state_line(n)
        for mask in range(1, (1 << n) - 1):
            rho = partial_trace_reshape(state, [q for q in range(n) if mask >> q & 1])
            purity_value = float(np.real(np.trace(rho @ rho)))
            assert 1.0 / purity_value == pytest.approx(
                2.0 ** path_cut_rank(n, mask), abs=1e-10
            )

    def test_balanced_mean_five_qubits(self):
        dist = distribution(make_cluster1d(5), BipartitionFamily(5, "balanced"))
        assert dist.mean_participation == pytest.approx(3.6, abs=1e-10)

    def test_balanced_mean_twelve_qubits(self):
        dist = distribution(make_cluster1d(12), BipartitionFamily(12, "balanced"))
        assert dist.mean_participation == pytest.approx(1783 / 77, abs=1e-9)


class TestProduct:
    def test_basis_product_index(self):
        state = make_product(make_basis(1, 0), make_basis(1, 1))
        assert state.amplitudes[2] == 1.0
        assert state.n == 2

    def test_norm_preserved(self):
        a = haar_states(2, 1, 11)[0]
        b = haar_states(3, 1, 12)[0]
        prod = make_product(a, b)
        assert np.vdot(prod.amplitudes, prod.amplitudes).real == pytest.approx(1.0)

    def test_bell_pair_mean(self):
        bell = make_ghz(2)
        dist = distribution(
            make_product(bell, bell), BipartitionFamily(4, "balanced")
        )
        assert dist.mean_participation == pytest.approx(3.0, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            make_product(make_basis(13, 0), make_basis(14, 0))


class TestPermutationAndLocalOps:
    def test_permute_is_index_remap(self):
        state = make_basis(3, 0b011)  # qubits 0,1 set
        swapped = permute_amplitudes_bitloop(state, [2, 1, 0])
        assert swapped[0b110] == 1.0

    def test_permute_preserves_purity_multiset(self):
        state = haar_states(5, 1, 5)[0]
        rng = np.random.default_rng(17)
        perm = list(rng.permutation(5))
        permuted = PureState(5, permute_amplitudes_bitloop(state, perm))
        before = sorted(purity(state, m) for m in all_masks(5))
        after = sorted(purity(permuted, m) for m in all_masks(5))
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_apply_single_qubit_identity(self):
        state = haar_states(3, 1, 6)[0]
        same = apply_single_qubit(state, 1, np.eye(2))
        np.testing.assert_allclose(same.amplitudes, state.amplitudes)


class TestSamplers:
    def test_haar_norms(self):
        for state in haar_states(4, 10, 0):
            assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(
                1.0, abs=1e-12
            )

    def test_haar_deterministic(self):
        spec = EnsembleSpec("haar", 5, 123)
        assert np.array_equal(sampled_rows(spec, 4), sampled_rows(spec, 4))

    def test_haar_streams_independent_of_count(self):
        spec = EnsembleSpec("haar", 4, 77)
        assert np.array_equal(sampled_rows(spec, 5)[2], sampled_rows(spec, 3)[2])

    def test_haar_seeds_differ(self):
        a = sampled_rows(EnsembleSpec("haar", 4, 1), 1)[0]
        b = sampled_rows(EnsembleSpec("haar", 4, 2), 1)[0]
        assert not np.allclose(a, b)

    def test_haar_balanced_purity_mean(self):
        # 1000-sample mean against the large-N value, 5% headroom covers the
        # finite-N offset (~1.5%) plus Monte-Carlo noise
        states = haar_states(10, 1000, 2024)
        mean = np.mean([purity(s, 0b11111) for s in states])
        assert abs(mean - 63 / 1024) / (63 / 1024) < 0.05

    def test_phase_sphere_norms(self):
        spec = EnsembleSpec("phase-sphere", 4, 9)
        for row in sampled_rows(spec, 10):
            assert np.vdot(row, row).real == pytest.approx(1.0, abs=1e-12)

    def test_phase_sphere_deterministic(self):
        spec = EnsembleSpec("phase-sphere", 3, 42)
        assert np.array_equal(sampled_rows(spec, 3), sampled_rows(spec, 3))

    def test_phase_sphere_second_moment(self):
        # E[r_k^2] = 1/N by symmetry under the sphere constraint
        spec = EnsembleSpec("phase-sphere", 3, 7)
        r2 = np.abs(sampled_rows(spec, 4000)[:, 1]) ** 2
        se = r2.std(ddof=1) / np.sqrt(r2.size)
        assert abs(r2.mean() - 1 / 8) < 3 * se

    @pytest.mark.parametrize("bad", [np.nan, 2.0])
    def test_block_check_names_the_bad_sample(self, monkeypatch, bad):
        draw = states_module._haar_rows

        def broken(seed, indices, dim):
            block = draw(seed, indices, dim)
            block[1, 0] = bad
            return block

        monkeypatch.setitem(states_module._ENSEMBLE_ROWS, "haar", broken)
        with pytest.raises(ValueError, match="sample 1 is not a finite unit vector"):
            sampled_rows(EnsembleSpec("haar", 3, 0), 3)

    def test_bad_spec(self):
        with pytest.raises(ValueError, match="kind"):
            EnsembleSpec("ginibre", 3, 0)
        with pytest.raises(ValueError, match="seed"):
            EnsembleSpec("haar", 3, -1)


class TestStateDict:
    def test_round_trip_exact(self):
        state = haar_states(3, 1, 31)[0]
        back = state_from_dict(state_to_dict(state))
        assert back.n == state.n
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_negative_zero_real_part_round_trips(self):
        record = {"n": 1, "amplitudes": [[1.0, 0.0], [-0.0, 0.0]]}
        back = state_to_dict(state_from_dict(record))
        assert repr(back["amplitudes"]) == "[[1.0, 0.0], [-0.0, 0.0]]"

    def test_zero_imaginary_parts_give_a_real_state(self):
        state = state_from_dict({"n": 1, "amplitudes": [[0.6, 0.0], [0.8, -0.0]]})
        assert state.amplitudes.dtype == np.float64

    def test_negative_zero_imaginary_parts_print_as_zero(self):
        # real storage keeps the real parts' signs but not the imaginary ones
        state = PureState(1, np.array([complex(1.0, -0.0), complex(-0.0, -0.0)]))
        assert repr(state_to_dict(state)["amplitudes"]) == "[[1.0, 0.0], [-0.0, 0.0]]"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            state_from_dict({"n": 2})
        with pytest.raises(ValueError):
            state_from_dict({"n": 2, "amplitudes": [[1.0, 0.0]]})

    def test_ragged_pairs_name_the_field(self):
        with pytest.raises(ValueError, match=r"list of \[re, im\] pairs"):
            state_from_dict({"n": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0]]})

    def test_integer_beyond_the_double_range_names_the_components(self):
        pairs = [[10**400, 0], [0, 0]]
        with pytest.raises(ValueError, match="^amplitude components must fit in a double$"):
            state_from_dict({"n": 1, "amplitudes": pairs})

    def test_overflowing_norm_says_the_squared_norm_is_not_finite(self):
        pairs = [[1e308, 1e308], [0, 0], [0, 0], [0, 0]]
        with pytest.raises(ValueError, match="squared norm .* is not finite"):
            state_from_dict({"n": 2, "amplitudes": pairs})
