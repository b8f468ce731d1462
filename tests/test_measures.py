import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    PureState,
    apply_single_qubit,
    concurrence,
    eig4,
    make_basis,
    make_ghz,
    make_product,
    make_w,
    q_measure,
    tangle1,
    tangle2_and_R,
    tangle_report,
)
from entspec.measures import EigenConvergenceError, TangleReport, format_measures_json
from helpers import (
    concurrence_svd, haar_states, match_multisets, quartic_roots, random_unitary2,
)


class TestEig4:
    def test_identity(self):
        np.testing.assert_allclose(np.sort_complex(eig4(np.eye(4))), np.ones(4))

    def test_diagonal(self):
        d = np.array([2.0, -1.0, 0.5j, 3.0 - 1.0j])
        np.testing.assert_allclose(
            np.sort_complex(eig4(np.diag(d))), np.sort_complex(d)
        )

    def test_against_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert match_multisets(eig4(a), quartic_roots(a)) < 1e-8

    def test_real_matrices_and_defective_cases(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            assert match_multisets(eig4(a), quartic_roots(a)) < 1e-8
        jordan = np.diag([1.0, 1.0, 2.0, 3.0]) + np.diag([1.0, 0.0, 0.0], k=1)
        assert match_multisets(eig4(jordan), [1.0, 1.0, 2.0, 3.0]) < 1e-7

    def test_zero_matrix(self):
        np.testing.assert_array_equal(eig4(np.zeros((4, 4))), np.zeros(4))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="4x4"):
            eig4(np.eye(3))
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eig4(bad)

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(_a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(EigenConvergenceError, match="did not converge"):
            eig4(np.eye(4))


class TestQMeasure:
    def test_product_basis_state(self):
        assert q_measure(make_basis(5, 0b10101)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_ghz_is_one(self, n):
        assert q_measure(make_ghz(n)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_product_indistinguishable_from_ghz(self):
        bell = make_ghz(2)
        assert q_measure(make_product(bell, bell)) == pytest.approx(
            q_measure(make_ghz(4)), abs=1e-12
        )

    def test_w_states_decay_monotonically(self):
        values = [q_measure(make_w(n)) for n in range(4, 13)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # closed form 4(n-1)/n^2 from the single-qubit reductions
        for n, value in zip(range(4, 13), values):
            assert value == pytest.approx(4 * (n - 1) / n**2, abs=1e-12)

    def test_equals_mean_tangle1(self):
        for state in haar_states(5, 5, 900):
            mean_tau = np.mean([tangle1(state, i) for i in range(5)])
            assert q_measure(state) == pytest.approx(mean_tau, abs=1e-10)


class TestConcurrence:
    def test_bell_pair(self):
        res = concurrence(make_ghz(2), 0, 1)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-10)

    def test_ghz3_any_pair(self):
        state = make_ghz(3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert concurrence(state, i, j).value == pytest.approx(0.0, abs=1e-12)

    def test_w3_any_pair(self):
        state = make_w(3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert concurrence(state, i, j).value == pytest.approx(2 / 3, abs=1e-12)

    def test_symmetric_in_qubits(self):
        for state in haar_states(4, 5, 901):
            for i in range(4):
                for j in range(i + 1, 4):
                    assert concurrence(state, i, j).value == pytest.approx(
                        concurrence(state, j, i).value, abs=1e-10
                    )

    def test_range_and_sorted_roots(self):
        for state in haar_states(5, 10, 902):
            res = concurrence(state, 0, 3)
            assert 0.0 <= res.value <= 1.0
            assert list(res.lambdas) == sorted(res.lambdas, reverse=True)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            concurrence(make_ghz(3), 1, 1)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("i, j", [(0, 7), (9, 1), (-3, 1), (0, -1), (-3, 9)])
    def test_pair_out_of_range_rejected(self, n, i, j):
        message = re.escape(f"qubits {i} and {j} out of range for {n} qubits")
        with pytest.raises(ValueError, match=message):
            concurrence(make_ghz(n), i, j)


class TestConcurrenceOracle:
    """The package's QR-reduced singular values against the oracle's singular
    values of the full Z^T (Y x Y) Z, gathered by its own bit scatter."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_svd_oracle_on_every_pair(self, n):
        for state in haar_states(n, 30, 904 + n):
            for i, j in combinations(range(n), 2):
                value = concurrence(state, i, j).value
                assert abs(value - concurrence_svd(state, i, j)) <= 1e-13

    def test_two_qubit_closed_form(self):
        for state in haar_states(2, 30, 904):
            z = state.amplitudes
            closed = 2.0 * abs(z[0] * z[3] - z[1] * z[2])
            assert abs(concurrence(state, 0, 1).value - closed) <= 1e-13
            assert abs(concurrence_svd(state, 0, 1) - closed) <= 1e-13


class TestConcurrenceSmallRoots:
    """Spin-flip roots far below 1 must not be rounded away."""

    @pytest.mark.parametrize("eps", [3e-3, 1e-4, 1e-6])
    def test_bell_mixture_keeps_small_root(self, eps):
        # a|Phi+>|0> + eps|Psi+>|1> with qubits 0, 1 the pair: rho_01 is
        # Bell-diagonal with weights a^2 and eps^2, so the roots are a^2 and
        # eps^2 and C = a^2 - eps^2; a root of eps^2 = 1e-12 is an eigenvalue
        # of 1e-24, which any eigenvalue threshold would round away
        a2 = 1.0 - eps**2
        amps = np.zeros(8)
        amps[[0b000, 0b011]] = np.sqrt(a2 / 2)
        amps[[0b101, 0b110]] = eps / np.sqrt(2)
        value = concurrence(PureState(3, amps), 0, 1).value
        assert abs(value - (a2 - eps**2)) <= 1e-13

    @pytest.mark.parametrize("n", range(3, 10))
    def test_locally_rotated_w_keeps_two_over_n(self, n):
        # local unitaries leave every pair's concurrence at the W value 2/n
        rng = np.random.default_rng(905 + n)
        state = make_w(n)
        for qubit in range(n):
            state = apply_single_qubit(state, qubit, random_unitary2(rng))
        for i, j in combinations(range(n), 2):
            assert abs(concurrence(state, i, j).value - 2 / n) <= 1e-13


class TestTangles:
    def test_tangle1_values(self):
        assert tangle1(make_ghz(5), 2) == pytest.approx(1.0, abs=1e-12)
        assert tangle1(make_basis(3, 4), 1) == pytest.approx(0.0, abs=1e-12)
        assert tangle1(make_w(3), 0) == pytest.approx(8 / 9, abs=1e-10)

    def test_ghz3_tangle2_and_ratio(self):
        tau2, ratio = tangle2_and_R(make_ghz(3), 0)
        assert tau2 == pytest.approx(0.0, abs=1e-12)
        assert ratio == pytest.approx(0.0, abs=1e-12)

    def test_w3_saturates_monogamy(self):
        tau2, ratio = tangle2_and_R(make_w(3), 1)
        assert tau2 == pytest.approx(8 / 9, abs=1e-10)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_ratio_undefined_for_product_state(self):
        tau2, ratio = tangle2_and_R(make_basis(3, 5), 0)
        assert tau2 == pytest.approx(0.0, abs=1e-12)
        assert ratio is None

    def test_monogamy_on_random_states(self):
        for state in haar_states(6, 25, 903):
            for i in range(6):
                t1 = tangle1(state, i)
                t2, _ = tangle2_and_R(state, i)
                assert t1 >= t2 - 1e-10

    def test_report_consistent_with_scalars(self):
        state = make_w(4)
        report = tangle_report(state)
        for i in range(4):
            assert report.tau1[i] == pytest.approx(tangle1(state, i), abs=1e-12)
            t2, ratio = tangle2_and_R(state, i)
            assert report.tau2[i] == pytest.approx(t2, abs=1e-12)
            assert report.ratio[i] == pytest.approx(ratio, abs=1e-12)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert [(i, j) for i, j, _ in report.concurrences] == pairs
        for i, j, value in report.concurrences:
            assert value == concurrence(state, i, j).value

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("i", [7, -3])
    def test_tangle2_qubit_out_of_range_rejected(self, n, i):
        with pytest.raises(ValueError, match=f"out of range for {n} qubits"):
            tangle2_and_R(make_ghz(n), i)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_w_closed_forms(self, n):
        report = tangle_report(make_w(n))
        tangle = 4 * (n - 1) / n**2
        assert report.tau1 == pytest.approx([tangle] * n, abs=1e-12)
        assert report.tau2 == pytest.approx([tangle] * n, abs=1e-12)
        assert report.ratio == pytest.approx([1.0] * n, abs=1e-12)
        for _, _, value in report.concurrences:
            assert value == pytest.approx(2 / n, abs=1e-12)

    def test_report_rejects_monogamy_violation(self):
        with pytest.raises(ValueError, match="monogamy"):
            TangleReport(tau1=(0.1,), tau2=(0.5,), ratio=(5.0,))

    def test_report_rejects_nan_two_tangle(self):
        with pytest.raises(ValueError, match="two-tangle"):
            TangleReport(tau1=(0.5,), tau2=(float("nan"),), ratio=(None,))


class TestMeasuresJson:
    def test_w3_record(self):
        data = json.loads(format_measures_json(make_w(3)))
        assert data["n"] == 3
        assert data["Q"] == pytest.approx(8 / 9, abs=1e-12)
        assert data["tau1"] == pytest.approx([8 / 9] * 3, abs=1e-10)
        assert data["tau2"] == pytest.approx([8 / 9] * 3, abs=1e-10)
        assert data["R"] == pytest.approx([1.0] * 3, abs=1e-9)
        assert [(i, j) for i, j, _ in data["concurrence"]] == [(0, 1), (0, 2), (1, 2)]

    def test_product_state_nulls(self):
        data = json.loads(format_measures_json(make_basis(2, 1)))
        assert data["R"] == [None, None]
        assert data["Q"] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_measures_share_one_definition(n, seed):
    """Q is the mean one-tangle, and the report's tau2 and R come from the same
    rule as tangle2_and_R, so all of them agree exactly."""
    state = haar_states(n, 1, seed)[0]
    data = json.loads(format_measures_json(state))
    assert data["Q"] == sum(data["tau1"]) / n
    assert data["Q"] == q_measure(state)
    for i in range(n):
        assert (data["tau2"][i], data["R"][i]) == tangle2_and_R(state, i)
