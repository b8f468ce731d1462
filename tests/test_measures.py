import json
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    PureState,
    cli,
    make_basis,
    make_ghz,
    make_w,
    measures,
    named_tangle_report,
    state_to_dict,
    states,
    tangle_report,
)
from entspec._blas import blas_threads
from entspec.cli import main
from entspec.measures import QR_ROWS, TangleReport, _report, concurrences
from entspec.states import KINDS, MAX_QUBITS
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

    @pytest.mark.parametrize(
        "pair", [(True, 2), (1.0, 2), (1, np.float64(2.0)), (np.True_, 2)],
        ids=["bool", "float", "float64", "np-bool"],
    )
    def test_qubits_that_are_not_integers_rejected(self, pair):
        # the rule of `purities`' masks: a bool is not taken as qubit 1, nor a
        # float truncated to a qubit
        bad = next(q for q in pair if not isinstance(q, int) or isinstance(q, bool))
        with pytest.raises(ValueError, match=f"^qubit {re.escape(repr(bad))} is not an integer$"):
            concurrences(make_w(4), [(0, 1), pair])


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

    def test_end_pairs_are_read_as_views(self):
        # pairs (0, 1) and (n-2, n-1) are end runs: their Z^T or Z is the
        # state itself, so only the QR's own copy of its input is allocated,
        # one per worker where the pairs are dealt (at n = 16 they are)
        n = 16
        g = np.random.default_rng(909).standard_normal(1 << n)
        state = PureState(n, g / np.linalg.norm(g))
        for workers in (1, 2):
            tracemalloc.start()
            try:
                with blas_threads(workers):
                    concurrences(state, [(0, 1), (n - 2, n - 1)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < workers * (state.amplitudes.nbytes + (16 << 10))

    @pytest.mark.parametrize(
        "pairs",
        [np.array([[0, 1]]), np.array([[0, 2], [3, 1]]), np.empty((0, 2), int)],
        ids=["one", "two", "none"],
    )
    def test_array_pairs_equal_tuple_pairs(self, pairs):
        state = haar_states(4, 1, 910)[0]
        expected = concurrences(state, [tuple(p) for p in pairs.tolist()])
        assert concurrences(state, pairs).tolist() == expected.tolist()


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


class TestNamedTangleReport:
    """The rule path of `measures --kind` against `tangle_report` of the
    built state, and against exact rationals."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_the_report_of_the_built_state(self, kind, n):
        # a basis state's index changes no measure
        rule, built = named_tangle_report(kind, n), tangle_report(KINDS[kind].make(n, 1))
        for field in ("tau1", "tau2"):
            assert np.abs(np.subtract(getattr(rule, field), getattr(built, field))).max() <= 4e-15
        assert [r is None for r in rule.ratio] == [r is None for r in built.ratio]
        assert [pair for *pair, _ in rule.concurrences] == [pair for *pair, _ in built.concurrences]
        for (*_, c), (*_, c_built) in zip(rule.concurrences, built.concurrences):
            assert abs(c - c_built) <= 4e-15

    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_w_against_fractions(self, n):
        report = named_tangle_report("w", n)
        assert {c for *_, c in report.concurrences} == {float(Fraction(2, n))}
        tangle = Fraction(4 * (n - 1), n * n)
        for tau1 in report.tau1:
            assert abs(Fraction(tau1) - tangle) <= Fraction(1, 2**53)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_report_sums_each_qubit_in_table_row_order(self, n):
        # random concurrences, unlike a named kind's one value or a random
        # state's mostly zero pairs, so a change of summation order shows
        rng = np.random.default_rng(n)
        pairs = tuple(combinations(range(n), 2))
        values = rng.uniform(0.0, 0.9 / np.sqrt(n - 1), len(pairs)).tolist()
        single = rng.uniform(0.5, 0.55, n)  # tau1 >= 0.9 >= tau2: monogamous
        table = np.zeros((n, n))  # the reference: qubit i's sum is row i
        for (i, j), c in zip(pairs, values):
            table[i, j] = table[j, i] = c
        rows = table.tolist()
        report = _report(pairs, values, single)
        assert repr(report.tau2) == repr(tuple(sum(c**2 for c in row) for row in rows))
        assert repr(report.concurrences) == repr(tuple((i, j, rows[i][j]) for i, j in pairs))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_ghz_and_cluster_pairs_are_bell_only_at_two_qubits(self, n):
        for kind in ("ghz", "cluster"):
            report = named_tangle_report(kind, n)
            assert report.tau1 == (1.0,) * n
            assert {c for *_, c in report.concurrences} == {1.0 if n == 2 else 0.0}

    @pytest.mark.parametrize(
        "kind, n, message",
        [
            ("basis", 1, "tangle report needs at least 2 qubits, got 1"),
            ("ghz", 1, "GHZ state needs 2 or more qubits, got 1"),
            ("w", MAX_QUBITS + 1, f"exceeds the memory guard of {MAX_QUBITS}"),
            ("haar", 4, "unknown named state 'haar'"),
        ],
    )
    def test_refusals(self, kind, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            named_tangle_report(kind, n)
        if kind in KINDS:  # as the built state's report refuses it
            with pytest.raises(ValueError, match=re.escape(message)):
                tangle_report(KINDS[kind].make(n, 1))

    @pytest.mark.parametrize("kind", [{}, ["w"]])
    def test_an_unhashable_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=re.escape(f"unknown named state {kind!r}")):
            named_tangle_report(kind, 3)

    def test_cli_builds_no_state_and_calls_no_lapack(self, capsys, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the rule path reached a state or a kernel")

        for module, names in (
            (cli, ("tangle_report",)),
            (states, ("make_basis", "make_ghz", "make_w", "make_cluster1d")),
            (measures, ("concurrences", "purities", "_cut_matrices", "_deal")),
            (np.linalg, ("qr", "svd", "eigh", "eigvals", "eigvalsh", "norm")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, refuse)
        for kind, entry in KINDS.items():
            monkeypatch.setitem(KINDS, kind, entry._replace(make=refuse))
        for kind in KINDS:
            for n in (2, 5, 18):
                data = measures_json(capsys, "--kind", kind, "--n", str(n))
                assert data["n"] == n and len(data["concurrence"]) == n * (n - 1) // 2

    def test_w_at_max_qubits_in_bounded_time_and_memory(self, capsys):
        argv = ["measures", "--kind", "w", "--n", str(MAX_QUBITS)]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(argv) == 0
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 1 << 20
        data = json.loads(capsys.readouterr().out)
        assert data["concurrence"][-1] == [MAX_QUBITS - 2, MAX_QUBITS - 1, 2 / MAX_QUBITS]


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
