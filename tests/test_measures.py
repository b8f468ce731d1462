import json
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    PureState,
    make_basis,
    make_ghz,
    make_w,
    state_to_dict,
    tangle_report,
)
from entspec.cli import main
from entspec.measures import QR_ROWS, TangleReport, concurrences
from helpers import (
    apply_single_qubit, concurrence_qr, concurrence_svd, haar_states, make_product,
    random_unitary2,
)
from one_state import concurrence, purity, spin_flip_roots


def one_tangle(state, i):
    """Reference: 2 (1 - purity) of qubit i, from its own single-cut call."""
    return 2 * (1 - purity(state, 1 << i))


def two_tangle(state, i):
    """Reference: the squared concurrences of qubit i with each partner, summed
    in ascending partner order."""
    return sum(concurrence(state, i, j) ** 2 for j in range(state.n) if j != i)


class TestQMeasure:
    def test_product_basis_state(self):
        assert tangle_report(make_basis(5, 0b10101)).q == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_ghz_is_one(self, n):
        assert tangle_report(make_ghz(n)).q == pytest.approx(1.0, abs=1e-12)

    def test_bell_product_indistinguishable_from_ghz(self):
        bell = make_ghz(2)
        assert tangle_report(make_product(bell, bell)).q == pytest.approx(
            tangle_report(make_ghz(4)).q, abs=1e-12
        )

    def test_w_states_decay_monotonically(self):
        values = [tangle_report(make_w(n)).q for n in range(4, 13)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # closed form 4(n-1)/n^2 from the single-qubit reductions
        for n, value in zip(range(4, 13), values):
            assert value == pytest.approx(4 * (n - 1) / n**2, abs=1e-12)

    def test_equals_mean_tangle1(self):
        for state in haar_states(5, 5, 900):
            mean_tau = np.mean([one_tangle(state, i) for i in range(5)])
            assert tangle_report(state).q == pytest.approx(mean_tau, abs=1e-10)


class TestConcurrence:
    def test_bell_pair(self):
        assert concurrence(make_ghz(2), 0, 1) == pytest.approx(1.0, abs=1e-12)
        lam = spin_flip_roots(make_ghz(2), 0, 1)
        np.testing.assert_allclose(lam, [1.0, 0.0, 0.0, 0.0], atol=1e-10)

    def test_ghz3_any_pair(self):
        state = make_ghz(3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert concurrence(state, i, j) == pytest.approx(0.0, abs=1e-12)

    def test_w3_any_pair(self):
        state = make_w(3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert concurrence(state, i, j) == pytest.approx(2 / 3, abs=1e-12)

    def test_symmetric_in_qubits(self):
        for state in haar_states(4, 5, 901):
            for i in range(4):
                for j in range(i + 1, 4):
                    assert concurrence(state, i, j) == pytest.approx(
                        concurrence(state, j, i), abs=1e-10
                    )

    def test_range_and_sorted_roots(self):
        for state in haar_states(5, 10, 902):
            assert 0.0 <= concurrence(state, 0, 3) <= 1.0
            lam = spin_flip_roots(state, 0, 3).tolist()
            assert lam == sorted(lam, reverse=True)

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
                value = concurrence(state, i, j)
                assert abs(value - concurrence_svd(state, i, j)) <= 1e-13

    def test_two_qubit_closed_form(self):
        for state in haar_states(2, 30, 904):
            z = state.amplitudes
            closed = 2.0 * abs(z[0] * z[3] - z[1] * z[2])
            assert abs(concurrence(state, 0, 1) - closed) <= 1e-13
            assert abs(concurrence_svd(state, 0, 1) - closed) <= 1e-13


class TestConcurrenceQrTree:
    """The stacked-QR tree against one QR of the whole pair matrix.  At n = 13
    each pair's Z^T has 2048 rows: two blocks of QR_ROWS, then their stacked
    8 x 4 R factors, so the tree has two levels."""

    @pytest.mark.parametrize("kind", ["haar", "real"])
    def test_two_levels_match_single_qr_oracle(self, kind):
        n = 13
        assert 1 << (n - 2) == 2 * QR_ROWS
        if kind == "haar":
            state = haar_states(n, 1, 907)[0]
        else:
            g = np.random.default_rng(908).standard_normal(1 << n)
            state = PureState(n, g / np.linalg.norm(g))
        pairs = tuple(combinations(range(n), 2))
        lambdas = concurrences(state, pairs)
        report = tangle_report(state)
        for (i, j), lam, (_, _, value) in zip(pairs, lambdas, report.concurrences):
            oracle = concurrence_qr(state, i, j)
            assert np.abs(lam - oracle).max() <= 1e-13
            assert concurrence(state, i, j) == value
            assert abs(value - max(0.0, oracle[0] - oracle[1] - oracle[2] - oracle[3])) <= 1e-13

    def test_w18_every_pair_two_over_n(self):
        report = tangle_report(make_w(18))
        assert len(report.concurrences) == 153
        for _, _, value in report.concurrences:
            assert abs(value - 2 / 18) <= 1e-13

    def test_report_holds_one_pair_buffer_and_one_qr_copy(self):
        state = make_w(14)
        tracemalloc.start()
        try:
            tangle_report(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * state.amplitudes.nbytes + (16 << 10)


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
        value = concurrence(PureState(3, amps), 0, 1)
        assert abs(value - (a2 - eps**2)) <= 1e-13

    @pytest.mark.parametrize("n", range(3, 10))
    def test_locally_rotated_w_keeps_two_over_n(self, n):
        # local unitaries leave every pair's concurrence at the W value 2/n
        rng = np.random.default_rng(905 + n)
        state = make_w(n)
        for qubit in range(n):
            state = apply_single_qubit(state, qubit, random_unitary2(rng))
        for i, j in combinations(range(n), 2):
            assert abs(concurrence(state, i, j) - 2 / n) <= 1e-13


class TestTangles:
    def test_tangle1_values(self):
        assert tangle_report(make_ghz(5)).tau1[2] == pytest.approx(1.0, abs=1e-12)
        assert tangle_report(make_basis(3, 4)).tau1[1] == pytest.approx(0.0, abs=1e-12)
        assert tangle_report(make_w(3)).tau1[0] == pytest.approx(8 / 9, abs=1e-10)

    def test_ghz3_tangle2_and_ratio(self):
        report = tangle_report(make_ghz(3))
        assert report.tau2[0] == pytest.approx(0.0, abs=1e-12)
        assert report.ratio[0] == pytest.approx(0.0, abs=1e-12)

    def test_w3_saturates_monogamy(self):
        report = tangle_report(make_w(3))
        assert report.tau2[1] == pytest.approx(8 / 9, abs=1e-10)
        assert report.ratio[1] == pytest.approx(1.0, abs=1e-9)

    def test_ratio_undefined_for_product_state(self):
        report = tangle_report(make_basis(3, 5))
        assert report.tau2[0] == pytest.approx(0.0, abs=1e-12)
        assert report.ratio[0] is None

    def test_monogamy_on_random_states(self):
        for state in haar_states(6, 25, 903):
            report = tangle_report(state)
            for t1, t2 in zip(report.tau1, report.tau2):
                assert t1 >= t2 - 1e-10

    def test_report_consistent_with_scalars(self):
        for state in (make_w(4), make_ghz(2), *haar_states(4, 3, 906)):
            n = state.n
            report = tangle_report(state)
            for i in range(n):
                assert report.tau1[i] == one_tangle(state, i)
                assert report.tau2[i] == two_tangle(state, i)
                assert report.ratio[i] == report.tau2[i] / report.tau1[i]
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert [(i, j) for i, j, _ in report.concurrences] == pairs
            for i, j, value in report.concurrences:
                assert value == concurrence(state, i, j)

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


def measures_json(capsys, *source):
    """The `measures` record of the CLI, parsed."""
    assert main(["measures", *source]) == 0
    return json.loads(capsys.readouterr().out)


class TestMeasuresJson:
    def test_w3_record(self, capsys):
        data = measures_json(capsys, "--kind", "w", "--n", "3")
        assert data["n"] == 3
        assert data["Q"] == pytest.approx(8 / 9, abs=1e-12)
        assert data["tau1"] == pytest.approx([8 / 9] * 3, abs=1e-10)
        assert data["tau2"] == pytest.approx([8 / 9] * 3, abs=1e-10)
        assert data["R"] == pytest.approx([1.0] * 3, abs=1e-9)
        assert [(i, j) for i, j, _ in data["concurrence"]] == [(0, 1), (0, 2), (1, 2)]

    def test_product_state_nulls(self, capsys):
        data = measures_json(capsys, "--kind", "basis", "--n", "2", "--index", "1")
        assert data["R"] == [None, None]
        assert data["Q"] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_measures_share_one_definition(tmp_path_factory, n, seed):
    """Q is the mean one-tangle, and tau1, tau2 and R are the single-cut
    purities and pair concurrences combined by one rule, so they agree exactly."""
    state = haar_states(n, 1, seed)[0]
    work = tmp_path_factory.mktemp("measures")
    state_file, out = work / "state.json", work / "measures.json"
    state_file.write_text(json.dumps(state_to_dict(state)))
    assert main(["measures", "--state-file", str(state_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["Q"] == sum(data["tau1"]) / n == tangle_report(state).q
    for i in range(n):
        assert data["tau1"][i] == one_tangle(state, i)
        assert data["tau2"][i] == two_tangle(state, i)
        assert data["R"][i] == data["tau2"][i] / data["tau1"][i]
