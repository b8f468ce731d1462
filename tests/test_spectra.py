import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entspec import (
    Bipartition,
    BipartitionFamily,
    compute_distribution,
    enumerate_masks,
    histogram,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_product,
    make_w,
    permute_qubits,
    purity,
    summarize,
)
from entspec.spectra import (
    SELECTORS,
    format_histogram_tsv,
    format_spectrum_csv,
    format_summary_json,
)
from entspec.states import PureState
from helpers import haar_states


def bell_product():
    bell = make_ghz(2)
    return make_product(bell, bell)


class TestFamilies:
    def test_balanced_three_qubits(self):
        masks = [p.mask for p in enumerate_masks(BipartitionFamily.balanced(3))]
        assert masks == [0x1, 0x2, 0x4]

    def test_fixed_size_four_qubits(self):
        parts = enumerate_masks(BipartitionFamily.fixed_size(4, 2))
        assert len(parts) == 6
        assert [p.mask for p in parts] == sorted(p.mask for p in parts)

    def test_balanced_twelve_qubits(self):
        assert len(enumerate_masks(BipartitionFamily.balanced(12))) == 924

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 13, 16])
    def test_family_sizes_are_binomials(self, n):
        k = n // 2
        assert len(enumerate_masks(BipartitionFamily.balanced(n))) == math.comb(n, k)
        assert len(enumerate_masks(BipartitionFamily.max_unbalanced(n))) == n
        assert len(enumerate_masks(BipartitionFamily.all_sizes(n))) == 2**n - 2
        if n > 2:
            assert len(enumerate_masks(BipartitionFamily.fixed_size(n, 2))) == (
                math.comb(n, 2)
            )

    def test_balanced_contains_complements_for_even_n(self):
        parts = enumerate_masks(BipartitionFamily.balanced(4))
        masks = {p.mask for p in parts}
        for m in masks:
            assert (m ^ 0xF) in masks

    def test_invalid_selectors(self):
        with pytest.raises(ValueError, match="selector"):
            BipartitionFamily(4, "widest")
        with pytest.raises(ValueError, match="size"):
            BipartitionFamily.fixed_size(4, 4)
        with pytest.raises(ValueError, match="size"):
            BipartitionFamily(4, "balanced", 2)


class TestDistribution:
    def test_ghz3_balanced_is_delta_at_two(self):
        dist = compute_distribution(make_ghz(3), BipartitionFamily.balanced(3))
        np.testing.assert_allclose(dist.participations(), [2.0, 2.0, 2.0], atol=1e-10)
        assert dist.var_population == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled_three_qubits(self):
        # (|000> + |110>)/sqrt(2): one unentangled cut, two maximal ones
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[6] = 1 / np.sqrt(2)
        dist = compute_distribution(PureState(3, amps), BipartitionFamily.balanced(3))
        np.testing.assert_allclose(
            sorted(dist.participations()), [1.0, 2.0, 2.0], atol=1e-10
        )

    def test_cluster5_balanced_mean(self):
        dist = compute_distribution(make_cluster1d(5), BipartitionFamily.balanced(5))
        assert dist.count == 10
        assert dist.mean_participation == pytest.approx(3.6, abs=1e-10)

    def test_factorized_state_all_families(self):
        state = make_basis(4, 0b0110)
        for family in (
            BipartitionFamily.balanced(4),
            BipartitionFamily.all_sizes(4),
            BipartitionFamily.max_unbalanced(4),
            BipartitionFamily.fixed_size(4, 3),
        ):
            dist = compute_distribution(state, family)
            np.testing.assert_allclose(dist.participations(), 1.0, atol=1e-10)

    def test_complement_pairs_match_and_dedup_stats_agree(self):
        state = haar_states(4, 1, 99)[0]
        dist = compute_distribution(state, BipartitionFamily.balanced(4))
        by_mask = dict(zip(dist.masks.tolist(), dist.participations()))
        for mask, value in by_mask.items():
            assert value == pytest.approx(by_mask[mask ^ 0xF], abs=1e-12)
        deduped = [v for m, v in by_mask.items() if m < (m ^ 0xF)]
        assert np.mean(deduped) == pytest.approx(dist.mean_participation, abs=1e-12)
        assert np.var(deduped) == pytest.approx(dist.var_population, abs=1e-12)

    def test_relabeling_preserves_balanced_multiset(self):
        state = haar_states(5, 1, 101)[0]
        rng = np.random.default_rng(3)
        permuted = permute_qubits(state, list(rng.permutation(5)))
        family = BipartitionFamily.balanced(5)
        before = np.sort(compute_distribution(state, family).participations())
        after = np.sort(compute_distribution(permuted, family).participations())
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            compute_distribution(make_ghz(3), BipartitionFamily.balanced(4))


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
    dist = compute_distribution(state, family)
    assert dist.masks.dtype == np.int64 and dist.purities().dtype == np.float64
    assert dist.masks.tolist() == family_masks_reference(family)
    per_cut = [purity(state, Bipartition(family.n, m)).purity for m in dist.masks]
    assert np.array_equal(dist.purities(), per_cut)
    values = dist.participations()
    assert np.array_equal(values, 1.0 / np.array(per_cut))
    assert dist.count == values.size == len(per_cut)
    assert dist.mean_participation == np.mean(values)
    assert dist.var_population == np.var(values)
    assert dist.var_sample == np.var(values, ddof=1)
    assert (dist.min, dist.max) == (np.min(values), np.max(values))


def test_distribution_retains_two_arrays_per_cut():
    state, family = make_ghz(10), BipartitionFamily.all_sizes(10)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dist = compute_distribution(state, family)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dist.count == 1022
    assert retained / dist.count < 64


class TestSummaries:
    def test_bell_product_summary(self):
        dist = compute_distribution(bell_product(), BipartitionFamily.balanced(4))
        rec = summarize(dist)
        assert rec["count"] == 6
        assert rec["mean"] == pytest.approx(3.0, abs=1e-12)
        assert rec["std_sample"] == pytest.approx(math.sqrt(12 / 5), abs=1e-12)
        assert rec["std_population"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert rec["var_sample"] == pytest.approx(
            rec["var_population"] * 6 / 5, abs=1e-12
        )

    def test_ghz8_and_w6_zero_width(self):
        for state, n in ((make_ghz(8), 8), (make_w(6), 6)):
            rec = summarize(compute_distribution(state, BipartitionFamily.balanced(n)))
            assert rec["mean"] == pytest.approx(2.0, abs=1e-10)
            assert rec["var_population"] == pytest.approx(0.0, abs=1e-12)

    def test_min_max_consistent(self):
        dist = compute_distribution(haar_states(5, 1, 103)[0], BipartitionFamily.balanced(5))
        values = dist.participations()
        assert dist.min == values.min() and dist.max == values.max()


class TestHistogram:
    def test_single_bar_full_mass(self):
        dist = compute_distribution(make_ghz(6), BipartitionFamily.balanced(6))
        hist = histogram(dist)
        assert hist.discrete
        assert len(hist.centers) == 1
        assert hist.centers[0] == pytest.approx(2.0, abs=1e-10)
        assert hist.counts[0] == 20
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_two_bars(self):
        hist = histogram(
            compute_distribution(bell_product(), BipartitionFamily.balanced(4))
        )
        assert hist.discrete
        np.testing.assert_allclose(hist.centers, [1.0, 4.0], atol=1e-10)
        np.testing.assert_array_equal(hist.counts, [2, 4])
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_continuous_mode_mass_and_shape(self):
        dist = compute_distribution(
            haar_states(10, 1, 104)[0], BipartitionFamily.balanced(10)
        )
        hist = histogram(dist, bins=40)
        assert not hist.discrete
        assert len(hist.counts) == 40
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_empty_bins_rejected(self):
        dist = compute_distribution(make_ghz(3), BipartitionFamily.balanced(3))
        with pytest.raises(ValueError, match="bin count"):
            histogram(dist, bins=0)


class TestFormats:
    def test_spectrum_csv_layout(self):
        dist = compute_distribution(make_basis(3, 0), BipartitionFamily.balanced(3))
        text = format_spectrum_csv(dist)
        lines = text.strip().split("\n")
        assert lines[0] == "mask_hex,n_A,purity,participation"
        assert lines[1] == "0x1,1,1,1"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0x1", "0x2", "0x4"]

    def test_summary_json_layout(self):
        family = BipartitionFamily.balanced(3)
        dist = compute_distribution(make_basis(3, 0), family)
        text = format_summary_json(dist, family)
        assert text == (
            '{"n": 3, "family": "balanced", "count": 3, "mean_participation": 1.0, '
            '"var_population": 0.0, "var_sample": 0.0, "min": 1.0, "max": 1.0}\n'
        )

    def test_histogram_tsv_layout(self):
        dist = compute_distribution(make_basis(3, 0), BipartitionFamily.balanced(3))
        text = format_histogram_tsv(histogram(dist))
        lines = text.strip().split("\n")
        assert lines[0] == "bin_center\tdensity\tcount"
        assert lines[1] == "1\t1\t3"
