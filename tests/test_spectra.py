import gc
import json
import math
import time
import tracemalloc
from fractions import Fraction
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    BipartitionFamily,
    histogram,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_w,
    participation_statistics,
    purities,
)
from entspec.cli import main
from entspec.purity import _cut_matrices
from entspec.spectra import (
    DISCRETE_VALUE_LIMIT, HISTOGRAM_BINS, SELECTORS, STATISTICS, VALUE_MERGE_TOL,
    named_purities,
)
from entspec.states import KINDS, MAX_QUBITS, PureState
from helpers import (
    cluster_rank_steps, haar_states, make_product, path_cut_rank, permute_amplitudes_bitloop,
)
from one_state import assert_masks_refused, participations, purity, statistics


def bell_product():
    bell = make_ghz(2)
    return make_product(bell, bell)


class TestFamilies:
    def test_balanced_three_qubits(self):
        masks = BipartitionFamily(3, "balanced").masks().tolist()
        assert masks == [0x1, 0x2, 0x4]

    def test_fixed_size_four_qubits(self):
        masks = BipartitionFamily(4, "fixed-size", 2).masks().tolist()
        assert len(masks) == 6
        assert masks == sorted(masks)

    def test_balanced_twelve_qubits(self):
        assert len(BipartitionFamily(12, "balanced").masks()) == 924

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 13, 16])
    def test_family_sizes_are_binomials(self, n):
        k = n // 2
        assert len(BipartitionFamily(n, "balanced").masks()) == math.comb(n, k)
        assert len(BipartitionFamily(n, "max-unbalanced").masks()) == n
        assert len(BipartitionFamily(n, "all-sizes").masks()) == 2**n - 2
        if n > 2:
            assert len(BipartitionFamily(n, "fixed-size", 2).masks()) == math.comb(n, 2)

    def test_balanced_contains_complements_for_even_n(self):
        masks = set(BipartitionFamily(4, "balanced").masks().tolist())
        for m in masks:
            assert (m ^ 0xF) in masks

    def test_invalid_selectors(self):
        with pytest.raises(ValueError, match="selector"):
            BipartitionFamily(4, "widest")
        with pytest.raises(ValueError, match="size"):
            BipartitionFamily(4, "fixed-size", 4)
        with pytest.raises(ValueError, match="size"):
            BipartitionFamily(4, "balanced", 2)

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_qubit_count_above_the_memory_guard_is_refused(self, selector):
        # refused before masks() could allocate 2^n masks or C(n, n/2) of them
        size = 1 if selector == "fixed-size" else None
        BipartitionFamily(MAX_QUBITS, selector, size)
        for n in (MAX_QUBITS + 1, 40, 64):
            with pytest.raises(ValueError, match=f"qubit count {n} exceeds the memory guard"):
                BipartitionFamily(n, selector, size)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_fewer_than_two_qubits_are_refused(self, selector, n):
        size = 1 if selector == "fixed-size" else None
        with pytest.raises(ValueError, match=f"^family needs 2 or more qubits, got {n}$"):
            BipartitionFamily(n, selector, size)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_every_selector_and_size_gives_the_reference_masks(self, n):
        for selector in SELECTORS:
            for size in range(1, n) if selector == "fixed-size" else [None]:
                family = BipartitionFamily(n, selector, size)
                masks = family.masks()
                assert masks.dtype == np.int64
                assert masks.tolist() == family_masks_reference(family)

    def test_masks_are_built_in_place(self):
        # each run of masks is written into the output: a build that joins
        # per-run parts peaks at twice the output
        family = BipartitionFamily(22, "balanced")
        gc.collect()
        tracemalloc.start()
        try:
            masks = family.masks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks.size == math.comb(22, 11)
        assert peak <= masks.nbytes + (1 << 20)

    def test_largest_balanced_family_is_fast(self):
        start = time.perf_counter()
        masks = BipartitionFamily(MAX_QUBITS, "balanced").masks()
        assert time.perf_counter() - start < 1.0
        assert masks.size == math.comb(MAX_QUBITS, MAX_QUBITS // 2)


class TestDistribution:
    def test_ghz3_balanced_is_delta_at_two(self):
        family = BipartitionFamily(3, "balanced")
        np.testing.assert_allclose(participations(make_ghz(3), family), 2.0, atol=1e-10)
        assert statistics(make_ghz(3), family)["var_population"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_partially_entangled_three_qubits(self):
        # (|000> + |110>)/sqrt(2): one unentangled cut, two maximal ones
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[6] = 1 / np.sqrt(2)
        values = participations(PureState(3, amps), BipartitionFamily(3, "balanced"))
        np.testing.assert_allclose(sorted(values), [1.0, 2.0, 2.0], atol=1e-10)

    def test_cluster5_balanced_mean(self):
        family = BipartitionFamily(5, "balanced")
        assert participations(make_cluster1d(5), family).size == 10
        stats = statistics(make_cluster1d(5), family)
        assert stats["mean_participation"] == pytest.approx(3.6, abs=1e-10)

    def test_factorized_state_all_families(self):
        state = make_basis(4, 0b0110)
        for family in (
            BipartitionFamily(4, "balanced"),
            BipartitionFamily(4, "all-sizes"),
            BipartitionFamily(4, "max-unbalanced"),
            BipartitionFamily(4, "fixed-size", 3),
        ):
            np.testing.assert_allclose(participations(state, family), 1.0, atol=1e-10)

    def test_complement_pairs_match_and_dedup_stats_agree(self):
        state = haar_states(4, 1, 99)[0]
        family = BipartitionFamily(4, "balanced")
        by_mask = dict(zip(family.masks().tolist(), participations(state, family)))
        for mask, value in by_mask.items():
            assert value == pytest.approx(by_mask[mask ^ 0xF], abs=1e-12)
        deduped = [v for m, v in by_mask.items() if m < (m ^ 0xF)]
        stats = statistics(state, family)
        assert np.mean(deduped) == pytest.approx(stats["mean_participation"], abs=1e-12)
        assert np.var(deduped) == pytest.approx(stats["var_population"], abs=1e-12)

    def test_relabeling_preserves_balanced_multiset(self):
        state = haar_states(5, 1, 101)[0]
        rng = np.random.default_rng(3)
        perm = list(rng.permutation(5))
        permuted = PureState(5, permute_amplitudes_bitloop(state, perm))
        family = BipartitionFamily(5, "balanced")
        before = np.sort(participations(state, family))
        after = np.sort(participations(permuted, family))
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match=r"shape \(1, 8\), expected \(count, 16\)"):
            purities(make_ghz(3).amplitudes[None], 4, BipartitionFamily(4, "balanced").masks())

    @pytest.mark.parametrize("shape", [(6,), (3, 1), (3, 0), (2, 3, 4)])
    def test_statistics_need_a_two_dimensional_array_of_two_or_more_cuts(self, shape):
        with pytest.raises(ValueError, match="expected \\(count, cuts >= 2\\)"):
            participation_statistics(np.ones(shape))


@st.composite
def states_and_family(draw):
    n = draw(st.integers(2, 8))
    selector = draw(st.sampled_from(SELECTORS))
    size = draw(st.integers(1, n - 1)) if selector == "fixed-size" else None
    states = haar_states(n, draw(st.integers(1, 5)), draw(st.integers(0, 2**32 - 1)))
    return states, BipartitionFamily(n, selector, size)


def family_masks_reference(family):
    """Ascending masks of the family, filtered from every valid mask by popcount."""
    n = family.n
    sizes = {
        "balanced": {n // 2},
        "all-sizes": set(range(1, n)),
        "fixed-size": {family.size},
        "max-unbalanced": {1},
    }[family.selector]
    return [m for m in range(1, (1 << n) - 1) if m.bit_count() in sizes]


@settings(max_examples=120, deadline=None)
@given(states_and_family())
def test_distribution_arrays_match_per_cut_purities(case):
    # a sweep of a block of 1 to 5 states: its purities are each cut's own
    # one-state call, and every row's statistics are numpy's on that row
    states, family = case
    masks = family.masks()
    assert masks.dtype == np.int64
    assert masks.tolist() == family_masks_reference(family)
    block = np.stack([s.amplitudes for s in states])
    values = purities(block, family.n, masks)
    assert values.dtype == np.float64 and values.shape == (len(states), masks.size)
    for state, row in zip(states, values):
        assert np.array_equal(row, [purity(state, m) for m in masks])
    stats = participation_statistics(1.0 / values)
    assert stats.dtype == np.float64 and stats.shape == (len(states), len(STATISTICS))
    for v, row in zip(1.0 / values, stats.tolist()):
        assert row == [np.mean(v), np.var(v), np.var(v, ddof=1), np.min(v), np.max(v)]


@pytest.mark.parametrize(
    ("n", "selector", "size", "cuts"),
    [
        (8, "balanced", None, math.comb(8, 4) // 2),
        (10, "balanced", None, math.comb(10, 5) // 2),
        (7, "balanced", None, math.comb(7, 3)),
        (9, "balanced", None, math.comb(9, 4)),
        (7, "all-sizes", None, 2**6 - 1),
        (8, "all-sizes", None, 2**7 - 1),
        (8, "fixed-size", 4, math.comb(8, 4) // 2),
        (8, "fixed-size", 3, math.comb(8, 3)),
    ],
)
def test_each_unordered_cut_is_evaluated_once(monkeypatch, n, selector, size, cuts):
    masks = []  # subsystem A of every gather in the kernel

    def counted(block, n, cuts):
        masks.extend(cuts)
        return _cut_matrices(block, n, cuts)

    # the module, not the package's re-exported function of the same name
    monkeypatch.setattr(import_module("entspec.purity"), "_cut_matrices", counted)
    family = BipartitionFamily(n, selector, size)
    values = participations(haar_states(n, 1, 970 + n)[0], family)
    assert len(masks) == len(set(masks)) == cuts
    assert values.size == family.masks().size


def test_distribution_retains_two_arrays_per_cut():
    # a sweep keeps its masks and purities, and `purities` keeps nothing else
    state, family = make_ghz(10), BipartitionFamily(10, "all-sizes")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        masks = family.masks()
        values = purities(state.amplitudes[None], family.n, masks)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert masks.size == values.size == 1022
    assert retained / masks.size < 64


class TestNamedPurities:
    """The rules of `named_purities` against exact oracles and the kernel."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_cluster_rule_every_mask_matches_cut_rank_oracle(self, n):
        masks = np.arange(1, (1 << n) - 1)
        want = [2.0 ** -path_cut_rank(n, m) for m in masks.tolist()]
        assert named_purities("cluster", n, masks).tolist() == want

    @pytest.mark.parametrize("n", [20, 24, 26])
    def test_cluster_rule_random_masks_match_cut_rank_oracle(self, n):
        masks = np.random.default_rng(n).integers(1, (1 << n) - 1, 300)
        want = [2.0 ** -path_cut_rank(n, m) for m in masks.tolist()]
        assert named_purities("cluster", n, masks).tolist() == want

    @pytest.mark.parametrize("n", range(2, 19))
    def test_cluster_rule_every_mask_matches_the_step_loop(self, n):
        masks = np.arange(1, (1 << n) - 1)
        want = np.ldexp(1.0, -cluster_rank_steps(n, masks))
        assert named_purities("cluster", n, masks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(20, 27))
    def test_cluster_rule_random_masks_match_the_step_loop(self, n):
        masks = np.random.default_rng(n).integers(1, (1 << n) - 1, 100_000)
        want = np.ldexp(1.0, -cluster_rank_steps(n, masks))
        assert named_purities("cluster", n, masks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 15))
    def test_w_ghz_basis_rules_are_exact_rationals_rounded_once(self, n):
        masks = np.arange(1, (1 << n) - 1)
        w = [
            float(Fraction(k * k + (n - k) ** 2, n * n))
            for k in (m.bit_count() for m in masks.tolist())
        ]
        assert named_purities("w", n, masks).tolist() == w
        assert named_purities("ghz", n, masks).tolist() == [float(Fraction(1, 2))] * masks.size
        assert named_purities("basis", n, masks).tolist() == [1.0] * masks.size

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_rules_match_the_kernel_on_the_built_state(self, kind, n):
        # the kernel's sums leave a few ulp; even-n cluster amplitudes are
        # powers of two, so there it is exact
        masks = BipartitionFamily(n, "all-sizes").masks()
        state = KINDS[kind].make(n, (1 << n) // 3)
        kernel = purities(state.amplitudes[None], n, masks)[0]
        rule = named_purities(kind, n, masks)
        if kind == "cluster" and n % 2 == 0:
            assert rule.tolist() == kernel.tolist()
        ulps = np.abs(rule.view(np.int64) - kernel.view(np.int64))
        assert ulps.max() <= 8

    @pytest.mark.parametrize(
        "kind, n, masks, message",
        [
            ("ghz", 3, [1, 0], "^mask 0x0 is not a cut of 3 qubits$"),
            ("w", 3, np.array([1, 7]), "^mask 0x7 is not a cut of 3 qubits$"),
            ("cluster", 3, np.array([3, 8], np.uint8), "^mask 0x8 is not a cut of 3 qubits$"),
            ("cluster", 3, [1, 2**70], f"^mask {2**70:#x} is not a cut of 3 qubits$"),
            ("basis", 3, [1, -1], "^mask -0x1 is not a cut of 3 qubits$"),
            ("ghz", 4, [3, 2.0], "^mask 2.0 is not an integer$"),
            ("ghz", 4, np.array([True]), r"^mask np.True_ is not an integer$"),
            ("w", 4, np.array([[3]]), r"^masks have shape \(1, 1\), expected \(cuts,\)$"),
            ("ghz", 1, [1], "^GHZ state needs 2 or more qubits, got 1$"),
            ("basis", 0, [1], "^basis state needs 1 or more qubits, got 0$"),
            ("cluster", MAX_QUBITS + 1, [1], "exceeds the memory guard"),
            ("haar", 4, [1], "^unknown named state 'haar'$"),
            ("ghz", 4, [3, True], "^mask True is not an integer$"),
            ("ghz", 4, [3, np.True_], r"^mask np.True_ is not an integer$"),
            (
                "w", 4, np.array([3, 2**64 - 1], np.uint64),
                "^mask 0xffffffffffffffff is not a cut of 4 qubits$",
            ),
            (["ghz"], 3, [1], r"^unknown named state \['ghz'\]$"),
        ],
    )
    def test_refusals(self, kind, n, masks, message):
        if message.startswith("^mask"):  # the one check of a cut: the kernel's too
            assert_masks_refused(kind, n, masks, message)
        else:
            with pytest.raises(ValueError, match=message):
                named_purities(kind, n, masks)

    def test_no_masks(self):
        assert named_purities("cluster", 4, []).shape == (0,)

    def test_cluster_rule_memory_is_bounded_by_the_mask_array(self):
        masks = BipartitionFamily(20, "all-sizes").masks()
        gc.collect()
        tracemalloc.start()
        try:
            values = named_purities("cluster", 20, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.size == masks.size
        assert peak <= 4 * masks.nbytes

    def test_named_cut_builds_no_state(self, capsys):
        # the n = 22 cluster state alone is 32 MiB
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["purity", "--kind", "cluster", "--n", "22", "--mask", "0x7ff"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["purity"] == 2.0 ** -path_cut_rank(22, 0x7FF)
        assert peak < 1 << 20


class TestSummaries:
    def test_bell_product_summary(self):
        family = BipartitionFamily(4, "balanced")
        assert participations(bell_product(), family).size == 6
        stats = statistics(bell_product(), family)
        assert stats["mean_participation"] == pytest.approx(3.0, abs=1e-12)
        assert math.sqrt(stats["var_sample"]) == pytest.approx(math.sqrt(12 / 5), abs=1e-12)
        assert math.sqrt(stats["var_population"]) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )
        assert stats["var_sample"] == pytest.approx(
            stats["var_population"] * 6 / 5, abs=1e-12
        )

    def test_ghz8_and_w6_zero_width(self):
        for state, n in ((make_ghz(8), 8), (make_w(6), 6)):
            stats = statistics(state, BipartitionFamily(n, "balanced"))
            assert stats["mean_participation"] == pytest.approx(2.0, abs=1e-10)
            assert stats["var_population"] == pytest.approx(0.0, abs=1e-12)

    def test_min_max_consistent(self):
        state, family = haar_states(5, 1, 103)[0], BipartitionFamily(5, "balanced")
        values, stats = participations(state, family), statistics(state, family)
        assert stats["min"] == values.min() and stats["max"] == values.max()


class TestHistogram:
    def test_single_bar_full_mass(self):
        values = participations(make_ghz(6), BipartitionFamily(6, "balanced"))
        hist = histogram(values)
        assert np.abs(values - hist.centers[0]).max() <= VALUE_MERGE_TOL  # an exact bar
        assert len(hist.centers) == 1
        assert hist.centers[0] == pytest.approx(2.0, abs=1e-10)
        assert hist.counts[0] == 20
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_two_bars(self):
        values = participations(bell_product(), BipartitionFamily(4, "balanced"))
        hist = histogram(values)
        # exact bars: every value lies on a center
        assert np.abs(values[:, None] - hist.centers).min(axis=1).max() <= VALUE_MERGE_TOL
        np.testing.assert_allclose(hist.centers, [1.0, 4.0], atol=1e-10)
        np.testing.assert_array_equal(hist.counts, [2, 4])
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_continuous_mode_mass_and_shape(self):
        values = participations(haar_states(10, 1, 104)[0], BipartitionFamily(10, "balanced"))
        hist = histogram(values, bins=40)
        # bins: equal-width over [min, max], centered between their edges
        assert hist.bin_edges[[0, -1]].tolist() == [values.min(), values.max()]
        assert np.array_equal(hist.centers, (hist.bin_edges[:-1] + hist.bin_edges[1:]) / 2)
        assert len(hist.counts) == 40
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("distinct", [DISCRETE_VALUE_LIMIT, DISCRETE_VALUE_LIMIT + 1])
    def test_discrete_limit_is_inclusive(self, distinct):
        values = np.repeat(np.arange(1.0, distinct + 1), 2)
        hist = histogram(values)
        exact = distinct <= DISCRETE_VALUE_LIMIT
        assert len(hist.counts) == (distinct if exact else HISTOGRAM_BINS)
        if exact:
            assert hist.centers.tolist() == np.arange(1.0, distinct + 1).tolist()
        assert hist.counts.sum() == values.size

    def test_broad_spectrum_is_not_split_per_value(self):
        # 10^6 distinct participations go to bins; the bars of a discrete
        # spectrum are made only once the distinct values are counted, so the
        # peak stays near three value-sized arrays (participations, their sort
        # and its differences), not one array per value
        count = 10**6
        purity_values = np.linspace(0.1, 0.9, count)
        gc.collect()
        tracemalloc.start()
        try:
            hist = histogram(1.0 / purity_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hist.counts) == HISTOGRAM_BINS and hist.counts.sum() == count
        assert peak < 4 * purity_values.nbytes

    def test_empty_bins_rejected(self):
        values = participations(make_ghz(3), BipartitionFamily(3, "balanced"))
        with pytest.raises(ValueError, match="bin count"):
            histogram(values, bins=0)

    @pytest.mark.parametrize("shape", [(0,), (2, 3)])
    def test_histogram_needs_one_row_of_cuts(self, shape):
        # a count x cuts block of rows would otherwise be pooled into one histogram
        with pytest.raises(ValueError, match="expected \\(cuts >= 1,\\)"):
            histogram(np.ones(shape))


class TestFormats:
    """The three `spectrum` formats of the balanced sweep of |000>."""

    @staticmethod
    def spectrum(capsys, fmt):
        code = main(["spectrum", "--kind", "basis", "--n", "3", "--index", "0",
                     "--family", "balanced", "--format", fmt])
        assert code == 0
        return capsys.readouterr().out

    def test_spectrum_csv_layout(self, capsys):
        text = self.spectrum(capsys, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "mask_hex,n_A,purity,participation"
        assert lines[1] == "0x1,1,1,1"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0x1", "0x2", "0x4"]

    def test_summary_json_layout(self, capsys):
        text = self.spectrum(capsys, "json")
        assert text == (
            '{"n": 3, "family": "balanced", "count": 3, "mean_participation": 1.0, '
            '"var_population": 0.0, "var_sample": 0.0, "min": 1.0, "max": 1.0}\n'
        )

    def test_histogram_tsv_layout(self, capsys):
        text = self.spectrum(capsys, "tsv")
        lines = text.strip().split("\n")
        assert lines[0] == "bin_center\tdensity\tcount"
        assert lines[1] == "1\t1\t3"
