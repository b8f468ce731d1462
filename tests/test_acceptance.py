"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as
they happen.  Every tolerance is pinned here, not calibrated.

Criterion 1 checks the cluster column of the reference table twice: the
computed means against the exact rationals of the integer GF(2) cut-rank
oracle `helpers.path_balanced_mean` (N_AB = 2**rank of the A x B adjacency
block; Hein, Eisert & Briegel, PRA 69, 062311 (2004)), and each table entry
against the same rational, so a slip in the table reads as a table error and
not as a program error.  The 11-qubit entry once read 17.176; the oracle gives
3968/231 = 17.17749... over all 462 balanced cuts, and the entry is the
correctly rounded 17.177, like the other seven cluster entries.
"""

import math
import time

import numpy as np
from scipy import integrate

from entspec import (
    BipartitionFamily,
    EnsembleSpec,
    PureState,
    asymptotic_model,
    exact_moments,
    histogram,
    make_basis,
    make_cluster1d,
    make_ghz,
    make_w,
    participation_pdf,
    purities,
    purity_pdf,
    sample_blocks,
    tangle_report,
)
from helpers import (
    YY,
    apply_single_qubit,
    haar_states,
    make_product,
    match_multisets,
    partial_trace_reshape,
    path_balanced_mean,
    purity_quadruple_sum,
    quartic_roots,
    random_unitary2,
    w_participation,
    xm_split,
)
from one_state import concurrence, distribution, participation_bound, purity, spin_flip_roots

TABLE_W = {5: 1.923, 6: 2.0, 7: 1.96, 8: 2.0, 9: 1.976, 10: 2.0, 11: 1.984, 12: 2.0}
TABLE_CLUSTER = {
    5: 3.6, 6: 5.4, 7: 6.171, 8: 8.743, 9: 10.349, 10: 14.206, 11: 17.177, 12: 23.156,
}
TABLE_RANDOM = {
    5: 2.909, 6: 4.267, 7: 5.565, 8: 8.258, 9: 10.894, 10: 16.254, 11: 21.558,
    12: 32.252,
}


class Criterion:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label
        self.failures: list[str] = []

    def check(self, condition: bool, detail: str) -> None:
        if not condition:
            self.failures.append(detail)

    def close(self, abs_tol: float, actual: float, expected: float, detail: str) -> None:
        self.check(abs(actual - expected) <= abs_tol, f"{detail}: {actual!r} vs {expected!r}")

    def finish(self) -> None:
        status = "PASS" if not self.failures else "FAIL"
        print(f"[acceptance] criterion {self.number} ({self.label}): {status}")
        for failure in self.failures:
            print(f"    - {failure}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_1_reference_table():
    crit = Criterion(1, "balanced-cut means for named and random states")
    start = time.monotonic()
    for n in range(5, 13):
        family = BipartitionFamily(n, "balanced")
        n_a = n // 2

        ghz_mean = distribution(make_ghz(n), family).mean_participation
        crit.close(1e-9, ghz_mean, 2.0, f"ghz n={n}")

        w_mean = distribution(make_w(n), family).mean_participation
        crit.close(1e-9, w_mean, w_participation(n, n_a), f"w closed form n={n}")
        crit.close(5e-4, w_mean, TABLE_W[n], f"w reference n={n}")

        cluster_mean = distribution(make_cluster1d(n), family).mean_participation
        exact = float(path_balanced_mean(n))
        crit.close(1e-9, cluster_mean, exact, f"cluster cut-rank oracle n={n}")
        crit.close(5e-4, TABLE_CLUSTER[n], exact, f"cluster table entry n={n}")
        crit.close(5e-4, cluster_mean, TABLE_CLUSTER[n], f"cluster reference n={n}")

        random_mean = 1.0 / asymptotic_model(1 << n_a, 1 << (n - n_a)).mu
        crit.close(5e-4, random_mean, TABLE_RANDOM[n], f"random reference n={n}")
    elapsed = time.monotonic() - start
    crit.check(elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s")
    crit.finish()


def test_criterion_2_three_qubit_distributions():
    crit = Criterion(2, "three-qubit exact distributions")
    family = BipartitionFamily(3, "balanced")

    values = distribution(make_basis(3, 5), family).participations()
    crit.check(np.allclose(values, 1.0, atol=1e-10), f"factorized: {values}")

    values = distribution(make_ghz(3), family).participations()
    crit.check(np.allclose(values, 2.0, atol=1e-10), f"ghz: {values}")

    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[6] = 1 / np.sqrt(2)
    values = np.sort(distribution(PureState(3, amps), family).participations())
    crit.check(
        np.allclose(values, [1.0, 2.0, 2.0], atol=1e-10), f"pair+spectator: {values}"
    )
    crit.finish()


def test_criterion_3_pair_product_example():
    crit = Criterion(3, "two-Bell-pair product vs GHZ")
    bell = make_ghz(2)
    state = make_product(bell, bell)
    dist = distribution(state, BipartitionFamily(4, "balanced"))
    # mathematically exactly 3; float construction leaves ~1e-15 roundoff
    crit.close(1e-12, dist.mean_participation, 3.0, "mean participation")
    crit.close(0.01, math.sqrt(dist.var_sample), 1.549, "Bessel-corrected width")
    q_pairs = tangle_report(state).q
    q_ghz = tangle_report(make_ghz(4)).q
    crit.close(1e-10, q_pairs, 1.0, "Q of the pair product")
    crit.close(1e-10, q_ghz, 1.0, "Q of GHZ(4)")
    crit.close(1e-10, q_pairs, q_ghz, "Q equality")
    crit.finish()


def test_criterion_4_random_state_statistics():
    crit = Criterion(4, "random-state statistics")

    states = haar_states(10, 1000, 20240)
    values = np.array([purity(s, 0b11111) for s in states])
    target = 63 / 1024
    crit.check(
        abs(values.mean() - target) / target <= 0.05,
        f"mean purity {values.mean():.6f} vs {target:.6f}",
    )
    var_target = 2 / 2**20
    ratio = values.var(ddof=1) / var_target
    crit.check(0.5 <= ratio <= 2.0, f"variance ratio {ratio:.3f} outside [0.5, 2]")

    single = haar_states(12, 1, 20241)[0]
    dist = distribution(single, BipartitionFamily(12, "balanced"))
    crit.check(dist.count == 924, f"mask count {dist.count}")
    mean_part = dist.mean_participation
    crit.check(
        abs(mean_part - 32.252) / 32.252 <= 0.05,
        f"mean participation {mean_part:.4f} vs 32.252",
    )
    pur = dist.purity_values
    concentration = pur.std() / pur.mean()
    crit.check(concentration <= 0.05, f"purity sigma/mu {concentration:.4f} > 0.05")
    crit.finish()


def test_criterion_5_moment_formulas():
    crit = Criterion(5, "exact moment formulas vs Monte Carlo")
    cases = {8: (2, 4, 3, 0b001), 16: (4, 4, 4, 0b0011), 32: (4, 8, 5, 0b00011)}
    for N, (dim_a, dim_b, n, mask) in cases.items():
        model = exact_moments(dim_a, dim_b, "exact-sphere")
        spec = EnsembleSpec("phase-sphere", n, 500 + N)
        values = np.concatenate(
            [purities(block, n, [mask])[:, 0] for block in sample_blocks(spec, 100_000)]
        )
        se_mean = values.std(ddof=1) / math.sqrt(values.size)
        crit.check(
            abs(values.mean() - model.mu) <= 3 * se_mean,
            f"N={N} mean off by {abs(values.mean() - model.mu) / se_mean:.2f} SE",
        )
        m4 = float(np.mean((values - values.mean()) ** 4))
        se_var = math.sqrt(max(m4 - values.var() ** 2, 0.0) / values.size)
        crit.check(
            abs(values.var(ddof=1) - model.sigma2) <= 3 * se_var,
            f"N={N} variance off by {abs(values.var(ddof=1) - model.sigma2) / se_var:.2f} SE",
        )

    pairs = [(2**a, 2**b) for a in range(1, 6) for b in range(a, a + 4)][:20]
    for dim_a, dim_b in pairs:
        mu_delta = exact_moments(dim_a, dim_b, "delta").mu
        mu_asym = asymptotic_model(dim_a, dim_b).mu
        crit.check(
            abs(mu_delta - mu_asym) <= 1e-13 * mu_asym,
            f"delta vs asymptotic mean at ({dim_a}, {dim_b})",
        )
    crit.finish()


def test_criterion_6_measures_suite():
    crit = Criterion(6, "comparison measures")
    crit.close(1e-9, concurrence(make_ghz(2), 0, 1), 1.0, "C(Bell)")
    crit.close(1e-9, concurrence(make_ghz(3), 0, 1), 0.0, "C(GHZ3 pair)")
    crit.close(1e-9, concurrence(make_w(3), 0, 1), 2 / 3, "C(W3 pair)")
    crit.close(1e-10, tangle_report(make_w(3)).tau1[0], 8 / 9, "tau1(W3)")

    for idx, state in enumerate(haar_states(6, 100, 20242)):
        report = tangle_report(state)
        for i, (t1, t2) in enumerate(zip(report.tau1, report.tau2)):
            if t1 < t2 - 1e-10:
                crit.check(False, f"monogamy violated on sample {idx} qubit {i}")

    tau1_values = []
    tau2_values = []
    for state in haar_states(10, 200, 20243):
        report = tangle_report(state)
        tau1_values.extend(report.tau1)
        tau2_values.append(report.tau2[0])
    crit.close(0.005, float(np.mean(tau1_values)), 1 - 1 / 512, "mean tau1")
    mean_tau2 = float(np.mean(tau2_values))
    crit.check(mean_tau2 <= 0.02, f"mean tau2 {mean_tau2:.4f} > 0.02")
    crit.finish()


def test_criterion_7_property_suites():
    crit = Criterion(7, "property suites")
    rng = np.random.default_rng(20244)

    # participation bounds and complement symmetry on random states, all masks
    for state in haar_states(5, 10, 20245):
        for mask in range(1, 31):
            p = purity(state, mask)
            bound = participation_bound(5, mask)
            crit.check(
                1.0 - 1e-12 <= 1.0 / p <= bound * (1 + 1e-12),
                f"bounds violated at mask {mask:#x}: {1.0 / p!r}",
            )
            twin = purity(state, mask ^ 31)
            crit.check(
                abs(p - twin) <= 1e-12,
                f"complement asymmetry at mask {mask:#x}",
            )

    # local-unitary invariance
    state = haar_states(4, 1, 20246)[0]
    reference = [purity(state, m) for m in range(1, 15)]
    for qubit in range(4):
        rotated = apply_single_qubit(state, qubit, random_unitary2(rng))
        for ref, mask in zip(reference, range(1, 15)):
            crit.check(
                abs(purity(rotated, mask) - ref) <= 1e-10,
                f"local unitary on qubit {qubit} moved mask {mask:#x}",
            )

    # Gram evaluation vs literal quadruple sum, and the additive split
    for n in range(2, 7):
        for state in haar_states(n, 20, 20247 + n):
            for mask in range(1, (1 << n) - 1):
                gram = purity(state, mask)
                crit.check(
                    abs(gram - purity_quadruple_sum(state, mask)) <= 1e-10,
                    f"quadruple sum mismatch n={n} mask={mask:#x}",
                )
            x, m = xm_split(state, 1)
            crit.check(
                abs(x + m - purity(state, 1)) <= 1e-10,
                f"additive split mismatch at n={n}",
            )

    # density normalizations
    model = asymptotic_model(32, 32)
    sigma = math.sqrt(model.sigma2)
    mass_x, _ = integrate.quad(
        lambda x: purity_pdf(model, x), model.mu - 8 * sigma, model.mu + 8 * sigma
    )
    crit.close(1e-6, mass_x, 1.0, "purity pdf mass")
    mass_y, _ = integrate.quad(
        lambda y: participation_pdf(model, y),
        1 / (model.mu + 8 * sigma),
        1 / (model.mu - 8 * sigma),
        points=[1 / model.mu],
    )
    crit.close(1e-6, mass_y, 1.0, "participation pdf mass")

    # histogram mass in both modes
    for dist in (
        distribution(make_cluster1d(6), BipartitionFamily(6, "balanced")),
        distribution(haar_states(10, 1, 20248)[0], BipartitionFamily(10, "balanced")),
    ):
        hist = histogram(dist)
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        crit.close(1e-9, mass, 1.0, "histogram mass")

    # squared spin-flip roots vs the characteristic-polynomial oracle of
    # rho (Y x Y) rho* (Y x Y); n >= 4, because the rank-2 pair states of n = 3
    # leave a double root at zero that the oracle resolves only to ~5e-8
    for n in range(4, 7):
        for state in haar_states(n, 200, 20249 + n):
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            rho = partial_trace_reshape(state, [i, j])
            roots = quartic_roots(rho @ YY @ rho.conj() @ YY)
            lam2 = spin_flip_roots(state, i, j) ** 2
            crit.check(
                match_multisets(lam2, roots) < 1e-8,
                f"quartic oracle disagrees at n={n}, pair ({i}, {j})",
            )
    crit.finish()
