import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from entspec import (
    EnsembleSpec,
    GaussianModel,
    asymptotic_model,
    exact_moments,
    make_basis,
    make_ghz,
    participation_pdf,
    purities,
    purity_pdf,
    sample_blocks,
    sphere_moment,
)
from entspec.cli import main
from entspec.theory import _MOMENT_RULES, MOMENT_PATTERNS
from helpers import (
    haar_states, marginal_amplitude_pdf, sampled_rows, w_participation, xm_split,
)
from one_state import purity

# (N_A, N_B) pairs used for the algebraic checks
DIM_PAIRS = [
    (2, 2), (2, 4), (4, 4), (2, 8), (4, 8), (8, 8), (2, 16), (4, 16),
    (8, 16), (16, 16), (2, 32), (4, 32), (8, 32), (16, 32), (32, 32),
    (2, 64), (4, 64), (8, 64), (32, 64), (64, 64),
]


class TestSphereMoment:
    def test_second_moment_is_symmetry_value(self):
        for N in (2, 5, 64, 4096):
            assert sphere_moment(N, (1,)) == pytest.approx(1 / N, rel=1e-15)

    def test_total_second_moment_is_one(self):
        for N in (3, 17, 1024):
            assert N * sphere_moment(N, (1,)) == pytest.approx(1.0, rel=1e-15)

    def test_monte_carlo_oracle(self):
        # uniform sphere points from normalized Gaussian vectors
        N = 6
        rng = np.random.default_rng(2718)
        g = rng.standard_normal((1_000_000, N))
        x = g / np.linalg.norm(g, axis=1, keepdims=True)
        for exponents, sample in (
            ((2,), x[:, 0] ** 4),
            ((1, 1), x[:, 0] ** 2 * x[:, 1] ** 2),
        ):
            closed = sphere_moment(N, exponents)
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - closed) < 3 * se

    def test_known_closed_forms(self):
        N = 10
        assert sphere_moment(N, (2,)) == pytest.approx(3 / (N * (N + 2)), rel=1e-15)
        assert sphere_moment(N, (1, 1)) == pytest.approx(1 / (N * (N + 2)), rel=1e-15)

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            sphere_moment(4, ())
        with pytest.raises(ValueError):
            sphere_moment(4, (0,))
        with pytest.raises(ValueError):
            sphere_moment(4, (1.5,))
        with pytest.raises(ValueError, match="positive integers"):
            sphere_moment(4, (True,))
        with pytest.raises(ValueError):
            sphere_moment(2, (1, 1, 1))


class TestProviders:
    @pytest.mark.parametrize("kind", list(_MOMENT_RULES))
    def test_positive_and_jensen(self, kind):
        N, rule = 16, _MOMENT_RULES[kind]
        moments = {name: rule(N, ms) for name, ms in MOMENT_PATTERNS.items()}
        for value in moments.values():
            assert value > 0
        assert moments["m4"] >= (1 / N) ** 2 - 1e-15


class TestExactMoments:
    def test_smallest_case_mean(self):
        # hand evaluation with sphere moments at N = 4: 4*2*(1/24) + 4*(3/24)
        model = exact_moments(2, 2, "exact-sphere")
        assert model.mu == pytest.approx(5 / 6, rel=1e-14)

    def test_delta_reproduces_asymptotic_mean(self):
        for N_A, N_B in DIM_PAIRS:
            model = exact_moments(N_A, N_B, "delta")
            assert model.mu == pytest.approx(
                asymptotic_model(N_A, N_B).mu, rel=1e-13
            )

    def test_delta_variance_is_pure_phase_noise(self):
        # with moduli pinned, the modulus-only part is constant, so the
        # whole variance is the cross-term second moment
        for N_A, N_B in DIM_PAIRS:
            N = N_A * N_B
            model = exact_moments(N_A, N_B, "delta")
            assert model.sigma2 == pytest.approx(
                2 * (N_A - 1) * (N_B - 1) / N**3, rel=1e-10
            )

    def test_phase_sphere_monte_carlo(self):
        # 20k-sample check at N = 8; the acceptance suite runs the larger sweep
        spec = EnsembleSpec("phase-sphere", 3, 314)
        values = np.concatenate(
            [purities(block, 3, [0b001])[:, 0] for block in sample_blocks(spec, 20_000)]
        )
        model = exact_moments(2, 4, "exact-sphere")
        se_mean = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - model.mu) < 3 * se_mean
        m4 = float(np.mean((values - values.mean()) ** 4))
        se_var = math.sqrt(max(m4 - values.var() ** 2, 0.0) / values.size)
        assert abs(values.var(ddof=1) - model.sigma2) < 3 * se_var

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown provider kind 'asymptotic'$"):
            exact_moments(2, 4, "asymptotic")

    def test_subsystem_bounds(self):
        with pytest.raises(ValueError):
            exact_moments(1, 8, "exact-sphere")

    @pytest.mark.parametrize("kind", [["delta"], {}])
    def test_an_unhashable_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=re.escape(f"unknown provider kind {kind!r}")):
            exact_moments(4, 8, kind)


class TestDimensions:
    """Both models take N_A and N_B by the package's integer rule."""

    @pytest.mark.parametrize("N_A, N_B", [(2**16, 2**16), (3000, 3000), (4, 8)])
    def test_numpy_integers_give_the_python_int_model(self, N_A, N_B):
        # at the two larger sizes int64 would overflow N^2 or the degree-8 polynomial
        for model in (lambda a, b: exact_moments(a, b, "delta"), asymptotic_model):
            assert model(np.int64(N_A), np.int64(N_B)) == model(N_A, N_B)

    @pytest.mark.parametrize(
        "N_A, N_B, value",
        [(4.0, 8, "4.0"), (4, np.float64(8.0), "np.float64(8.0)"), (True, 8, "True"),
         (4, "8", "'8'")],
    )
    def test_non_integers_are_refused(self, N_A, N_B, value):
        message = f"^subsystem dimension {re.escape(value)} is not an integer$"
        for model in (lambda a, b: exact_moments(a, b, "delta"), asymptotic_model):
            with pytest.raises(ValueError, match=message):
                model(N_A, N_B)


class TestExactRationals:
    """Balanced cuts against independent closed forms, rounded once."""

    @pytest.mark.parametrize("n", [8, 20, 30, 40, 60])
    def test_delta_variance(self, n):
        N_A, N_B = 1 << (n // 2), 1 << (n - n // 2)
        N = N_A * N_B
        model = exact_moments(N_A, N_B, "delta")
        assert model.sigma2 == float(Fraction(2 * (N_A - 1) * (N_B - 1), N**3))

    @pytest.mark.parametrize("n", [8, 20, 30, 40, 60])
    def test_sphere_mean(self, n):
        N_A, N_B = 1 << (n // 2), 1 << (n - n // 2)
        N = N_A * N_B
        model = exact_moments(N_A, N_B, "exact-sphere")
        assert model.mu == float(Fraction(N_A + N_B + 1, N + 2))

    def test_asymptotic_variance_does_not_overflow(self):
        assert asymptotic_model(1 << 255, 1 << 255).sigma2 == 2.0**-1019
        # beyond the double range the model is refused, not an OverflowError
        with pytest.raises(ValueError, match="positive"):
            asymptotic_model(1 << 300, 1 << 300)


class TestAsymptoticModel:
    def test_ten_qubit_balanced(self):
        model = asymptotic_model(32, 32)
        assert model.mu == pytest.approx(63 / 1024, rel=1e-15)
        assert model.sigma2 == pytest.approx(2 / 2**20, rel=1e-15)

    def test_table_reciprocal_means(self):
        assert 1 / asymptotic_model(64, 64).mu == pytest.approx(4096 / 127, rel=1e-15)
        assert 1 / asymptotic_model(4, 8).mu == pytest.approx(32 / 11, rel=1e-15)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            GaussianModel(0.5, 0.0)


class TestDensities:
    def test_purity_pdf_peak_and_symmetry(self):
        model = GaussianModel(0.25, 1e-4)
        assert purity_pdf(model, model.mu) == pytest.approx(
            1 / math.sqrt(2 * math.pi * model.sigma2), rel=1e-14
        )
        delta = 0.003
        assert purity_pdf(model, model.mu + delta) == pytest.approx(
            purity_pdf(model, model.mu - delta), abs=1e-12
        )

    def test_purity_pdf_mass(self):
        model = asymptotic_model(32, 32)
        sigma = math.sqrt(model.sigma2)
        mass, _ = integrate.quad(
            lambda x: purity_pdf(model, x), model.mu - 8 * sigma, model.mu + 8 * sigma
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_participation_pdf_mass(self):
        model = asymptotic_model(64, 64)
        sigma = math.sqrt(model.sigma2)
        lo, hi = 1 / (model.mu + 8 * sigma), 1 / (model.mu - 8 * sigma)
        mass, _ = integrate.quad(
            lambda y: participation_pdf(model, y), lo, hi, points=[1 / model.mu]
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_masses_agree_under_reciprocal_map(self):
        model = asymptotic_model(8, 16)
        sigma = math.sqrt(model.sigma2)
        mass_x, _ = integrate.quad(
            lambda x: purity_pdf(model, x), model.mu - 8 * sigma, model.mu + 8 * sigma
        )
        mass_y, _ = integrate.quad(
            lambda y: participation_pdf(model, y),
            1 / (model.mu + 8 * sigma),
            1 / (model.mu - 8 * sigma),
            points=[1 / model.mu],
        )
        assert mass_x == pytest.approx(mass_y, abs=1e-6)

    def test_participation_peak_location(self):
        model = asymptotic_model(64, 64)
        result = optimize.minimize_scalar(
            lambda y: -participation_pdf(model, y),
            bounds=(20.0, 45.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert abs(result.x - 4096 / 127) / (4096 / 127) < 0.005

    def test_participation_rejects_nonpositive(self):
        model = asymptotic_model(4, 4)
        with pytest.raises(ValueError):
            participation_pdf(model, 0.0)

    @pytest.mark.parametrize("pdf", [purity_pdf, participation_pdf])
    @pytest.mark.parametrize("arg", [math.nan, np.array([0.5, math.nan, 2.0])])
    def test_nan_argument_raises(self, pdf, arg):
        with pytest.raises(ValueError):
            pdf(asymptotic_model(4, 4), arg)

    def test_curve_family_emittable(self, capsys):
        # one curve per qubit count, as plot data; for the smallest n the
        # model is wider than its mean and needs an explicit range
        for n in range(5, 13):
            n_a = n // 2
            model = asymptotic_model(1 << n_a, 1 << (n - n_a))
            sigma = math.sqrt(model.sigma2)
            if model.mu - 8 * sigma > 0:
                lo, hi = 1 / (model.mu + 8 * sigma), 1 / (model.mu - 8 * sigma)
            else:
                lo, hi = 1.0, 2.0 / model.mu
            code = main([
                "theory", "--model", "asymptotic", "--n", str(n),
                "--pdf", "participation", f"--xmin={lo!r}", f"--xmax={hi!r}",
                "--points", "64",
            ])
            assert code == 0
            text = capsys.readouterr().out
            assert text.startswith("x\tdensity\n")
            assert len(text.strip().split("\n")) == 65


class TestWParticipation:
    def test_table_values(self):
        assert w_participation(5, 2) == pytest.approx(25 / 13, rel=1e-15)
        assert w_participation(9, 4) == pytest.approx(81 / 41, rel=1e-15)
        assert w_participation(6, 3) == pytest.approx(2.0, rel=1e-15)

    def test_depends_only_on_sizes(self):
        assert w_participation(7, 2) == w_participation(7, 5)

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            w_participation(5, 0)
        with pytest.raises(ValueError):
            w_participation(5, 5)


class TestXmSplit:
    def test_basis_state(self):
        x, m = xm_split(make_basis(3, 5), 0b001)
        assert x == pytest.approx(0.0, abs=1e-14)
        assert m == pytest.approx(1.0, abs=1e-14)

    def test_ghz_single_qubit_cut(self):
        x, m = xm_split(make_ghz(3), 0b001)
        assert x == pytest.approx(0.0, abs=1e-14)
        assert m == pytest.approx(0.5, abs=1e-14)

    def test_sum_is_purity_on_random_states(self):
        for n in range(2, 7):
            for state in haar_states(n, 20, 800 + n):
                for mask in (1, (1 << (n // 2)) - 1 or 1):
                    x, m = xm_split(state, mask)
                    assert x + m == pytest.approx(purity(state, mask), abs=1e-10)


class TestMarginalAmplitudePdf:
    @pytest.mark.parametrize("N", [4, 8, 64, 1024])
    def test_normalized(self, N):
        mass, _ = integrate.quad(
            lambda r: marginal_amplitude_pdf(N, r), 0.0, 1.0,
            points=[1 / math.sqrt(N)], limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_large_n_gaussian_limit(self):
        N = 4096
        r = np.linspace(0.0, 2.0 / math.sqrt(N), 200)
        exact = marginal_amplitude_pdf(N, r)
        gauss = 2.0 * math.sqrt(N / (2 * math.pi)) * np.exp(-N * r**2 / 2.0)
        assert np.max(np.abs(exact / gauss - 1.0)) < 0.01

    def test_boundary_and_domain(self):
        assert marginal_amplitude_pdf(8, 1.0) == 0.0
        with pytest.raises(ValueError):
            marginal_amplitude_pdf(8, 1.5)
        with pytest.raises(ValueError):
            marginal_amplitude_pdf(8, -0.1)
        with pytest.raises(ValueError):
            marginal_amplitude_pdf(3, 0.5)

    @pytest.mark.parametrize("r", [math.nan, np.array([0.25, math.nan, 0.75])])
    def test_nan_modulus_raises(self, r):
        with pytest.raises(ValueError):
            marginal_amplitude_pdf(8, r)

    def test_sampler_marginal_ks(self):
        # single-modulus law of the phase-sphere ensemble at N = 64,
        # reference CDF from cumulative quadrature of the density
        N = 64
        spec = EnsembleSpec("phase-sphere", 6, 1618)
        moduli = np.abs(sampled_rows(spec, 10_000)[:, 0])
        grid = np.linspace(0.0, 1.0, 4001)
        cdf = integrate.cumulative_trapezoid(
            marginal_amplitude_pdf(N, grid), grid, initial=0.0
        )
        cdf /= cdf[-1]
        result = stats.kstest(moduli, lambda r: np.interp(r, grid, cdf))
        assert result.pvalue > 0.01


class TestConcentrationRatio:
    """sigma/mu of the large-N model, sqrt(2)/(N_A + N_B - 1)."""

    @staticmethod
    def ratio(N_A, N_B):
        model = asymptotic_model(N_A, N_B)
        return math.sqrt(model.sigma2) / model.mu

    def test_values(self):
        assert self.ratio(64, 64) == pytest.approx(math.sqrt(2) / 127, rel=1e-15)
        assert self.ratio(4, 4) == pytest.approx(math.sqrt(2) / 7, rel=1e-15)

    def test_matches_closed_form(self):
        assert self.ratio(16, 32) == pytest.approx(math.sqrt(2) / (16 + 32 - 1), rel=1e-13)

    def test_inverse_sqrt_scaling(self):
        for n in range(6, 21):
            n_a = n // 2
            N_A, N_B = 1 << n_a, 1 << (n - n_a)
            scaled = self.ratio(N_A, N_B) * math.sqrt(N_A * N_B)
            assert 0.5 <= scaled <= 1.5
