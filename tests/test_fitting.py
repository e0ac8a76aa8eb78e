"""Moment-matching fits, bandwidths, mixtures, and the ER pipeline."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpsbm import (
    BetaProductLaw,
    Graph,
    InfeasibleFitError,
    RpsbmModel,
    SampleMoments,
    SbmParams,
    UniformProductLaw,
    classify_regimes,
    compute_moments,
    critical_sample_size,
    fit_beta_product,
    fit_nonparametric,
    fit_parametric,
    run_er_mixture_pipeline,
    sample_corpus,
    sample_mixture,
    sample_rpsbm,
    silverman_bandwidth,
    spectrum,
)
from rpsbm.fitting import GraphMixture, critical_n_for_threshold, oracle_sigma
from rpsbm.models import LAWS
from rpsbm.moments import MEDIUM, SMALL, inherent_variance
from rpsbm import rng as rngmod

from oracles import complete_graph


def synthetic_moments(lam, sigma_diag, n, rho, N=10, spectra_pad=0.0):
    lam = np.asarray(lam, dtype=float)
    spectra = np.vstack([lam - spectra_pad, lam + spectra_pad] * (N // 2))
    return SampleMoments(
        spectra=spectra, densities=np.full(len(spectra), rho), n=n,
        mean_spectrum=lam, cov=np.diag(np.asarray(sigma_diag, dtype=float)),
    )


class TestParametricFit:
    def test_step7_mean_arithmetic(self):
        m = synthetic_moments([50.0], [3.0], n=100, rho=1.0)
        fit = fit_parametric(m, family="dirac")
        assert fit.mean_J[0] == pytest.approx(0.5)

    def test_step9_epsilon(self):
        # E[P] = [1, 1], s = [1/2, 1/2]  =>  eps = (1 - 1/2) / (1 * 1/2) = 1
        n, omega = 100, 0.1
        lam = np.array([n * omega * 0.5, n * omega * 0.5])
        m = synthetic_moments(lam, [0.5, 0.5], n=n, rho=omega, N=10)
        with pytest.warns(UserWarning):
            fit = fit_parametric(m, family="dirac")
        np.testing.assert_allclose(fit.mean_J, [1.0, 1.0], atol=1e-12)
        assert fit.eps_raw == pytest.approx(1.0)
        assert fit.model.epsilon == pytest.approx(0.2)  # clamped, recorded raw

    def test_single_community_epsilon_zero(self):
        m = synthetic_moments([40.0], [2.0], n=100, rho=1.0)
        with pytest.warns(UserWarning, match="epsilon"):
            fit = fit_parametric(m, family="uniform")
        assert fit.model.epsilon == 0.0

    def test_small_regime_raises_for_variance_families(self):
        corpus = [complete_graph(30)] * 5
        m = compute_moments(corpus, 2)
        with pytest.raises(InfeasibleFitError, match="small-variance"):
            fit_parametric(m, family="uniform")

    def test_zero_variance_dirac_returns_step7_means(self):
        corpus = [complete_graph(30)] * 5
        m = compute_moments(corpus, 1)
        fit = fit_parametric(m, family="dirac")
        expect = m.mean_spectrum / (30 * m.mean_density * 1.0)
        np.testing.assert_allclose(fit.model.law.center, expect, atol=1e-12)

    def test_geometry_violation_raises(self):
        # mean eigenvalue above the block size n*s_i
        m = synthetic_moments([120.0], [10.0], n=100, rho=0.5)
        with pytest.raises(InfeasibleFitError, match="block size"):
            fit_parametric(m, family="uniform")


@pytest.fixture(scope="module")
def two_block_moments():
    truth = RpsbmModel(omega=0.4, law=UniformProductLaw([0.8, 0.5], [0.1, 0.1]),
                       epsilon=0.05, s=np.array([0.5, 0.5]))
    return compute_moments(sample_corpus(truth, 200, 12, seed=60), 2)


@pytest.mark.parametrize("kind", LAWS)
def test_every_family_has_the_fitted_moments(two_block_moments, kind):
    # omega = rho_bar puts each E[P_i] above 1 here; the law keeps it there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # epsilon, dirac notes
        fit = fit_parametric(two_block_moments, family=kind)
    assert np.all(fit.mean_J > 1)
    np.testing.assert_allclose(fit.model.law.mean(), fit.mean_J, rtol=1e-12)
    if kind != "dirac":
        np.testing.assert_allclose(fit.model.law.var(),
                                   np.maximum(np.diag(fit.cov_J), 0.0),
                                   rtol=1e-12)


class TestBetaInversion:
    def test_symmetric_beta(self):
        law = fit_beta_product([0.5], [0.05], [0.0], [1.0])
        np.testing.assert_allclose(law.alpha, [2.0], atol=1e-12)
        np.testing.assert_allclose(law.beta, [2.0], atol=1e-12)

    def test_round_trip_against_sampler(self):
        law = fit_beta_product([0.4, 0.7], [0.02, 0.01], [0.1, 0.3], [0.9, 1.2])
        gen = np.random.default_rng(32)
        draws = np.array([law.draw(gen) for _ in range(100000)])
        se_mean = np.sqrt(law.var() / len(draws))
        np.testing.assert_allclose(draws.mean(axis=0), [0.4, 0.7],
                                   atol=4 * se_mean.max())
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), [0.02, 0.01],
                                   rtol=0.05)

    def test_mean_at_range_edge_fails(self):
        with pytest.raises(ValueError):
            fit_beta_product([0.1000001], [0.05], [0.1], [1.0])

    def test_variance_too_large_fails(self):
        with pytest.raises(ValueError, match="variance too large"):
            fit_beta_product([0.5], [0.3], [0.0], [1.0])


class TestSilverman:
    def test_frozen_value(self):
        h = silverman_bandwidth(32, 1.0)[0]
        expect = ((4.0 / 3.0) ** 0.2 * 32 ** (-0.2)) ** 2
        assert h == pytest.approx(expect, rel=1e-15)
        assert h == pytest.approx(0.2805, abs=5e-5)

    def test_zero_scale_flagged(self):
        with pytest.warns(UserWarning, match="degenerate"):
            h = silverman_bandwidth(10, 0.0)
        assert h[0] == 0.0

    def test_monotone_in_n(self):
        hs = [silverman_bandwidth(N, 2.0)[0] for N in (4, 16, 64, 256)]
        assert all(a > b for a, b in zip(hs, hs[1:]))


class TestNonparametric:
    def corpus(self, seed=33, N=12, n=300):
        truth = RpsbmModel(omega=0.4, law=UniformProductLaw([0.8, 0.5], [0.15, 0.1]),
                           epsilon=0.05, s=np.array([0.5, 0.5]))
        return sample_corpus(truth, n, N, seed)

    def test_single_graph_component_mean(self):
        corpus = self.corpus(N=1)
        mix = fit_nonparametric(compute_moments(corpus, 2),
                                bandwidth=np.full(2, 1.0))
        from rpsbm import density, spectrum
        g = corpus[0]
        lam = spectrum(g, 2).values
        expect = lam / (g.n * density(g) * 0.5)
        np.testing.assert_allclose(mix.components[0].law.center, expect, atol=1e-12)

    def test_tiny_bandwidth_forces_all_dirac(self):
        corpus = self.corpus()
        mix = fit_nonparametric(compute_moments(corpus, 2),
                                bandwidth=np.full(2, 1e-6))
        for comp, fb in zip(mix.components, mix.dirac_fallback):
            assert fb == (0, 1)
            np.testing.assert_array_equal(comp.law.width, [0.0, 0.0])

    def test_fallback_exactly_where_condition_fails(self):
        corpus = self.corpus()
        h = 0.4  # between the two inherent-variance levels
        mix = fit_nonparametric(compute_moments(corpus, 2),
                                bandwidth=np.full(2, h))
        from rpsbm import spectrum
        for g, fb in zip(corpus, mix.dirac_fallback):
            lam = spectrum(g, 2).values
            expect = tuple(i for i in range(2)
                           if h - 2 * lam[i] / (g.n * 0.5) <= 0)
            assert fb == expect

    def test_silverman_rule_from_corpus_scale(self):
        corpus = self.corpus()
        mix = fit_nonparametric(compute_moments(corpus, 2))
        assert len(mix.components) == len(corpus)


@st.composite
def boundary_moments(draw):
    """(n, s, lambda, rho, second): lambda inside the block sizes n*s_i, and
    each diagonal entry of ``second`` within 4 ulp of the inherent variance."""
    c = draw(st.integers(1, 3))
    n = draw(st.integers(10, 100_000))
    s = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=c, max_size=c)))
    s = s / s.sum()
    lam = np.array(draw(st.lists(st.floats(1e-3, 0.999), min_size=c,
                                 max_size=c))) * n * s
    k = np.array(draw(st.lists(st.integers(-4, 4), min_size=c, max_size=c)))
    rho = draw(st.floats(0.01, 1.0))
    return n, s, lam, rho, inherent_variance(lam, n, s) * (1 + k * np.finfo(float).eps)


class TestMomentInversion:
    """Both fits take the sign of each J-variance from the excess over the
    inherent variance, the quantity ``classify_regimes`` tests."""

    def test_kernel_width_finite_beside_the_boundary(self):
        # h one ulp above each draw's own inherent variance 2 lambda/(n s):
        # the excess is one ulp positive, so no coordinate falls back to a
        # Dirac marginal and every width must come out finite and positive
        truth = RpsbmModel(omega=0.3, law=UniformProductLaw([0.8, 0.5], [0.1, 0.1]),
                           epsilon=0.05, s=np.array([0.5, 0.5]))
        s = np.array([0.6106732457369192, 0.38932675426308083])
        for k in range(20):
            g = sample_rpsbm(truth, 200, seed=0, graph_index=k)
            lam = spectrum(g, 2).values
            h = np.nextafter(2.0 * lam / (200 * s), np.inf)
            mix = fit_nonparametric(compute_moments([g], 2), h, s_per_graph=[s])
            width = mix.components[0].law.width
            assert np.all(np.isfinite(width)) and np.all(width > 0), k
            assert mix.dirac_fallback == ((),), k

    def test_medium_regime_fits_at_the_boundary(self):
        m = synthetic_moments([592.31, 289.761],
                              [1.2423911903513372, 0.6077839538542216],
                              n=1907, rho=0.9)
        assert classify_regimes(m, [0.5, 0.5]).regimes == (MEDIUM, MEDIUM)
        with pytest.warns(UserWarning, match="epsilon clamped"):
            fit = fit_parametric(m, family="uniform")
        width = fit.model.law.width
        assert np.all(np.isfinite(width)) and np.all(width >= 0)

    @settings(max_examples=500)
    @given(boundary_moments())
    def test_parametric_fails_exactly_in_the_small_regime(self, case):
        n, s, lam, rho, second = case
        m = synthetic_moments(lam, second, n=n, rho=rho)
        small = SMALL in classify_regimes(m, s).regimes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            if small:
                with pytest.raises(InfeasibleFitError, match="small-variance"):
                    fit_parametric(m, family="uniform", s_override=s)
                return
            fit = fit_parametric(m, family="uniform", s_override=s)
        width = fit.model.law.width
        assert np.all(np.isfinite(width)) and np.all(width >= 0)

    @settings(max_examples=500)
    @given(boundary_moments())
    def test_kernel_widths_zero_exactly_at_the_fallback(self, case):
        n, s, lam, rho, second = case
        # one corpus graph with the drawn spectrum and density
        c = len(s)
        mom = SampleMoments(spectra=lam[None, :], densities=np.array([rho]),
                            n=n, mean_spectrum=lam, cov=np.zeros((c, c)))
        mix = fit_nonparametric(mom, second, s_per_graph=[s])
        width = mix.components[0].law.width
        assert np.all(np.isfinite(width))
        assert tuple(np.nonzero(width == 0)[0].tolist()) == mix.dirac_fallback[0]


def _two_index_moments():
    return synthetic_moments([10.0, 5.0], [1.0, 1.0], n=100, rho=0.2)


# Each way a fit rejects its input: (call, exception, message).
FIT_ERRORS = {
    "empty_graph": (
        lambda: fit_nonparametric(
            compute_moments([complete_graph(6), Graph(6, [])], 1)),
        InfeasibleFitError, "graph 1 is empty"),
    "s_override_length": (
        lambda: fit_parametric(_two_index_moments(), s_override=[0.2, 0.3, 0.5]),
        ValueError, "geometry length must equal truncation order"),
    "s_per_graph_row_length": (
        lambda: fit_nonparametric(_two_index_moments(),
                                  s_per_graph=[[0.5, 0.5], [1.0]] * 5),
        ValueError, "geometry length must equal truncation order"),
    "regimes_s_length": (
        lambda: classify_regimes(_two_index_moments(), [1.0]),
        ValueError, "geometry length must equal truncation order"),
    "unknown_family": (
        lambda: fit_parametric(_two_index_moments(), family="nope"),
        ValueError, "unknown family 'nope'"),
    # the family is checked before the regimes of the table
    "unknown_family_small_regime": (
        lambda: fit_parametric(compute_moments([complete_graph(30)] * 5, 2),
                               family="nope"),
        ValueError, "unknown family 'nope'"),
    "bandwidth_dimension": (
        lambda: fit_nonparametric(_two_index_moments(), np.full(3, 1.0)),
        ValueError, "bandwidth dimension must equal truncation order"),
    "bandwidth_negative": (
        lambda: fit_nonparametric(_two_index_moments(), [1.0, -1.0]),
        ValueError, "bandwidth must be finite and non-negative"),
    "bandwidth_nan": (
        lambda: fit_nonparametric(_two_index_moments(), [1.0, float("nan")]),
        ValueError, "bandwidth must be finite and non-negative"),
    "beta_mean_outside_range": (
        lambda: fit_beta_product([0.95], [0.01], [0.1], [0.9]),
        InfeasibleFitError, "need a_i < mean_i < b_i"),
    "beta_zero_variance": (lambda: fit_beta_product([0.5], [0.0], [0.1], [0.9]),
                           InfeasibleFitError, "beta fit needs positive variance"),
    # the unbiased variance of two rows, (b - a)^2 / 2, is twice the most
    # that any law on their range [a, b] has
    "beta_two_graphs": (
        lambda: fit_parametric(
            synthetic_moments([10.0, 5.0], [2.0, 2.0], n=100, rho=0.2, N=2,
                              spectra_pad=1.0), family="beta"),
        InfeasibleFitError, r"variance too large for the range \(no beta"),
    "silverman_no_graphs": (lambda: silverman_bandwidth(0, [1.0]),
                            ValueError, "N must be positive"),
    "silverman_negative_scale": (lambda: silverman_bandwidth(5, [1.0, -0.5]),
                                 ValueError, "sigma must be non-negative"),
    "critical_n_zero_threshold": (lambda: critical_n_for_threshold(1.0, 0.0),
                                  ValueError,
                                  "sigma and threshold must be positive"),
}


@pytest.mark.parametrize("case", FIT_ERRORS)
def test_fit_rejects_its_input(case):
    call, exc, message = FIT_ERRORS[case]
    with pytest.raises(exc, match=message):
        call()


class TestMixtureSampling:
    def test_single_component_matches_rpsbm_stream(self):
        comp = RpsbmModel(omega=0.4, law=UniformProductLaw([0.7], [0.1]),
                          epsilon=0.0, s=np.array([1.0]))
        mix = GraphMixture(components=(comp,))
        graphs = sample_mixture(mix, 60, 3, seed=34)
        for k, g in enumerate(graphs):
            direct = sample_rpsbm(comp, 60, seed=34, graph_index=k)
            np.testing.assert_array_equal(g.edges, direct.edges)

    def test_component_frequencies_uniform(self):
        comps = tuple(
            RpsbmModel(omega=0.5, law=UniformProductLaw([0.5], [0.0]),
                       epsilon=0.0, s=np.array([1.0]))
            for _ in range(4))
        mix = GraphMixture(components=comps)
        draws = 10000
        counts = np.zeros(4)
        for g in range(draws):
            counts[int(rngmod.mix_stream(35, g).integers(4))] += 1
        se = np.sqrt(draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - draws / 4) < 3 * se)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            GraphMixture(components=())


class TestErPipeline:
    def test_single_graph_curve_is_one_gaussian(self):
        table = run_er_mixture_pipeline([0.75], n=400, omega=0.2, N=1, seed=36)
        peak = table.z[np.argmax(table.f_hat)]
        center = 400 * 0.2 * 0.75 + 1
        assert abs(peak - center) < 2.0

    def test_p_hat_self_normalizes_to_one(self):
        # (lambda_1 - 1)/(n rho) estimates the within-density of the
        # self-calibrated model (omega_k = rho_k), whose true value is 1
        table = run_er_mixture_pipeline([0.75, 0.85], n=1000,
                                        omega=2 / np.sqrt(1000), N=20, seed=37)
        np.testing.assert_allclose(table.p_hat, 1.0, rtol=0.03)

    def test_curves_normalized(self):
        table = run_er_mixture_pipeline([0.75, 0.85], n=500, omega=0.1,
                                        N=8, seed=38)
        for f in (table.f_true, table.f_hat, table.f_silverman):
            mass = np.trapezoid(f, table.z)
            assert abs(mass - 1.0) < 1e-3


class TestCriticalN:
    def test_zero_density_component_never_crosses(self):
        with pytest.raises(ValueError, match="never violated"):
            critical_sample_size([0.0], n=60, omega=0.5, N_max=6,
                                 seed=39, repetitions=1)

    def test_threshold_monotonicity(self):
        sigma = 3.0
        n_lo = critical_n_for_threshold(sigma, 2.0)
        n_hi = critical_n_for_threshold(sigma, 1.0)
        assert n_lo < n_hi  # doubling the p-threshold lowers N_crit

    def test_oracle_sigma_two_components(self):
        # mean inherent variance + variance of the two means
        n, omega = 1000, 2 / np.sqrt(1000)
        sig2 = oracle_sigma([0.75, 0.85], n, omega) ** 2
        means = n * omega * np.array([0.75, 0.85])
        expect = 1.6 + means.var()
        assert sig2 == pytest.approx(expect, rel=1e-12)
