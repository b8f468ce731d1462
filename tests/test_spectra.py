import gc
import math
import tracemalloc
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    BipartitionFamily,
    EntanglementDistribution,
    compute_distributions,
    histogram,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_w,
)
from entspec.cli import main
from entspec.states import _qubit_axes
from entspec.spectra import DISCRETE_VALUE_LIMIT, SELECTORS
from entspec.states import PureState
from helpers import haar_states, make_product, permute_amplitudes_bitloop
from one_state import distribution, purity


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


class TestDistribution:
    def test_ghz3_balanced_is_delta_at_two(self):
        dist = distribution(make_ghz(3), BipartitionFamily(3, "balanced"))
        np.testing.assert_allclose(dist.participations(), [2.0, 2.0, 2.0], atol=1e-10)
        assert dist.var_population == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled_three_qubits(self):
        # (|000> + |110>)/sqrt(2): one unentangled cut, two maximal ones
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[6] = 1 / np.sqrt(2)
        dist = distribution(PureState(3, amps), BipartitionFamily(3, "balanced"))
        np.testing.assert_allclose(
            sorted(dist.participations()), [1.0, 2.0, 2.0], atol=1e-10
        )

    def test_cluster5_balanced_mean(self):
        dist = distribution(make_cluster1d(5), BipartitionFamily(5, "balanced"))
        assert dist.count == 10
        assert dist.mean_participation == pytest.approx(3.6, abs=1e-10)

    def test_factorized_state_all_families(self):
        state = make_basis(4, 0b0110)
        for family in (
            BipartitionFamily(4, "balanced"),
            BipartitionFamily(4, "all-sizes"),
            BipartitionFamily(4, "max-unbalanced"),
            BipartitionFamily(4, "fixed-size", 3),
        ):
            dist = distribution(state, family)
            np.testing.assert_allclose(dist.participations(), 1.0, atol=1e-10)

    def test_complement_pairs_match_and_dedup_stats_agree(self):
        state = haar_states(4, 1, 99)[0]
        dist = distribution(state, BipartitionFamily(4, "balanced"))
        by_mask = dict(zip(dist.masks.tolist(), dist.participations()))
        for mask, value in by_mask.items():
            assert value == pytest.approx(by_mask[mask ^ 0xF], abs=1e-12)
        deduped = [v for m, v in by_mask.items() if m < (m ^ 0xF)]
        assert np.mean(deduped) == pytest.approx(dist.mean_participation, abs=1e-12)
        assert np.var(deduped) == pytest.approx(dist.var_population, abs=1e-12)

    def test_relabeling_preserves_balanced_multiset(self):
        state = haar_states(5, 1, 101)[0]
        rng = np.random.default_rng(3)
        perm = list(rng.permutation(5))
        permuted = PureState(5, permute_amplitudes_bitloop(state, perm))
        family = BipartitionFamily(5, "balanced")
        before = np.sort(distribution(state, family).participations())
        after = np.sort(distribution(permuted, family).participations())
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match=r"shape \(1, 8\), expected \(count, 16\)"):
            compute_distributions(make_ghz(3).amplitudes[None], BipartitionFamily(4, "balanced"))


@st.composite
def state_and_family(draw):
    n = draw(st.integers(2, 8))
    selector = draw(st.sampled_from(SELECTORS))
    size = draw(st.integers(1, n - 1)) if selector == "fixed-size" else None
    state = haar_states(n, 1, draw(st.integers(0, 2**32 - 1)))[0]
    return state, BipartitionFamily(n, selector, size)


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
@given(state_and_family())
def test_distribution_arrays_match_per_cut_purities(case):
    state, family = case
    dist = distribution(state, family)
    assert dist.masks.dtype == np.int64 and dist.purity_values.dtype == np.float64
    assert dist.masks.tolist() == family_masks_reference(family)
    per_cut = [purity(state, m) for m in dist.masks]
    assert np.array_equal(dist.purity_values, per_cut)
    values = dist.participations()
    assert np.array_equal(values, 1.0 / np.array(per_cut))
    assert dist.count == values.size == len(per_cut)
    assert dist.mean_participation == np.mean(values)
    assert dist.var_population == np.var(values)
    assert dist.var_sample == np.var(values, ddof=1)
    assert (dist.min, dist.max) == (np.min(values), np.max(values))


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

    def counted(amps, n, a, b):
        masks.append(sum(1 << q for q in a))
        return _qubit_axes(amps, n, a, b)

    # the module, not the package's re-exported function of the same name
    monkeypatch.setattr(import_module("entspec.purity"), "_qubit_axes", counted)
    family = BipartitionFamily(n, selector, size)
    dist = distribution(haar_states(n, 1, 970 + n)[0], family)
    assert len(masks) == len(set(masks)) == cuts
    assert dist.count == family.masks().size


def test_distribution_retains_two_arrays_per_cut():
    state, family = make_ghz(10), BipartitionFamily(10, "all-sizes")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dist = distribution(state, family)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dist.count == 1022
    assert retained / dist.count < 64


class TestSummaries:
    def test_bell_product_summary(self):
        dist = distribution(bell_product(), BipartitionFamily(4, "balanced"))
        assert dist.count == 6
        assert dist.mean_participation == pytest.approx(3.0, abs=1e-12)
        assert math.sqrt(dist.var_sample) == pytest.approx(math.sqrt(12 / 5), abs=1e-12)
        assert math.sqrt(dist.var_population) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert dist.var_sample == pytest.approx(dist.var_population * 6 / 5, abs=1e-12)

    def test_ghz8_and_w6_zero_width(self):
        for state, n in ((make_ghz(8), 8), (make_w(6), 6)):
            dist = distribution(state, BipartitionFamily(n, "balanced"))
            assert dist.mean_participation == pytest.approx(2.0, abs=1e-10)
            assert dist.var_population == pytest.approx(0.0, abs=1e-12)

    def test_min_max_consistent(self):
        dist = distribution(haar_states(5, 1, 103)[0], BipartitionFamily(5, "balanced"))
        values = dist.participations()
        assert dist.min == values.min() and dist.max == values.max()


class TestHistogram:
    def test_single_bar_full_mass(self):
        dist = distribution(make_ghz(6), BipartitionFamily(6, "balanced"))
        hist = histogram(dist)
        assert hist.discrete
        assert len(hist.centers) == 1
        assert hist.centers[0] == pytest.approx(2.0, abs=1e-10)
        assert hist.counts[0] == 20
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_two_bars(self):
        hist = histogram(
            distribution(bell_product(), BipartitionFamily(4, "balanced"))
        )
        assert hist.discrete
        np.testing.assert_allclose(hist.centers, [1.0, 4.0], atol=1e-10)
        np.testing.assert_array_equal(hist.counts, [2, 4])
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_continuous_mode_mass_and_shape(self):
        dist = distribution(
            haar_states(10, 1, 104)[0], BipartitionFamily(10, "balanced")
        )
        hist = histogram(dist, bins=40)
        assert not hist.discrete
        assert len(hist.counts) == 40
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("distinct", [DISCRETE_VALUE_LIMIT, DISCRETE_VALUE_LIMIT + 1])
    def test_discrete_limit_is_inclusive(self, distinct):
        values = np.repeat(1.0 / np.arange(1, distinct + 1), 2)
        dist = EntanglementDistribution(np.arange(values.size), values)
        hist = histogram(dist)
        assert hist.discrete == (distinct <= DISCRETE_VALUE_LIMIT)
        assert hist.counts.sum() == values.size

    def test_broad_spectrum_is_not_split_per_value(self):
        # 10^6 distinct participations go to bins; the bars of a discrete
        # spectrum are made only once the distinct values are counted, so the
        # peak stays near three value-sized arrays (participations, their sort
        # and its differences), not one array per value
        count = 10**6
        dist = EntanglementDistribution(
            np.arange(count, dtype=np.int64), np.linspace(0.1, 0.9, count)
        )
        gc.collect()
        tracemalloc.start()
        try:
            hist = histogram(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not hist.discrete and hist.counts.sum() == count
        assert peak < 4 * dist.purity_values.nbytes

    def test_empty_bins_rejected(self):
        dist = distribution(make_ghz(3), BipartitionFamily(3, "balanced"))
        with pytest.raises(ValueError, match="bin count"):
            histogram(dist, bins=0)


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
