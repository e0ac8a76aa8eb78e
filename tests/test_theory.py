"""Predicted eigenvalue moments against independent oracles."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from rpsbm import (
    DiracLaw,
    RpsbmModel,
    SbmParams,
    UniformProductLaw,
    eigenvalue_covariance,
    expected_spectrum,
    limiting_covariance,
    predict_eig_law_moments,
    sample_sbm,
    spectrum,
)
from rpsbm.theory import _decompose
from oracles import (
    block_matrix,
    covariance_block_integral,
    first_order_check,
    kernel_operator_eigenvalues,
)


def random_params(gen, c=None, eps_regime=False):
    c = int(gen.integers(1, 6)) if c is None else c
    s = gen.uniform(0.5, 2.0, size=c)
    s = s / s.sum()
    p = np.sort(gen.uniform(0.2, 0.95, size=c))[::-1]
    if eps_regime:
        q = float(gen.uniform(0.0, 0.1)) * p.min()
    else:
        q = float(gen.uniform(0.0, p.min()))
    return SbmParams(omega=0.5, s=s, p=p, q=q)


def eigenfunctions(params):
    """Table r[k, i] = v_k(i)/sqrt(s_i), the k-th operator eigenfunction on
    block i."""
    V = _decompose(params)[1]
    return (V / np.sqrt(params.s)[:, None]).T


# M = diag(s) P with p = (0.1, 0.1), q = 0.5 has eigenvalues 0.3 and -0.2
NEGATIVE_NU = SbmParams(omega=1.0, s=[0.5, 0.5], p=[0.1, 0.1], q=0.5)

# Each input check of the module: (call, the ValueError message).
THEORY_ERRORS = {
    # B2 takes sqrt(nu_j nu_l) and divides by nu_i^2
    "correction_at_negative_nu": (
        lambda: expected_spectrum(NEGATIVE_NU, 100),
        "leading block matrix is not positive definite"),
    "spectrum_n_negative": (
        lambda: expected_spectrum(
            SbmParams(0.3, [0.5, 0.5], [0.8, 0.5], 0.02), -100),
        "n must be at least 1, not -100"),
    "predicted_moments_n_zero": (
        lambda: predict_eig_law_moments(
            RpsbmModel(0.5, DiracLaw([0.5]), 0.0, [1.0]), 0),
        "n must be at least 1, not 0"),
    "no_draws": (
        lambda: predict_eig_law_moments(
            RpsbmModel(0.5, DiracLaw([0.5]), 0.0, [1.0]), 100, draws=0),
        "need at least one draw"),
}


@pytest.mark.parametrize("case", THEORY_ERRORS)
def test_theory_rejects_its_input(case):
    call, message = THEORY_ERRORS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


class TestDecompose:
    def test_diagonal_case(self):
        params = SbmParams(omega=1.0, s=[0.5, 0.5], p=[0.8, 0.6], q=0.0)
        np.testing.assert_allclose(block_matrix(params), np.diag([0.4, 0.3]),
                                   atol=1e-15)
        nu, V = _decompose(params)
        np.testing.assert_allclose(nu, [0.4, 0.3], atol=1e-14)
        np.testing.assert_allclose(V, np.eye(2), atol=1e-15)

    def test_single_community(self):
        nu, V = _decompose(SbmParams(omega=1.0, s=[1.0], p=[0.7], q=0.0))
        np.testing.assert_allclose(nu, [0.7], atol=1e-15)
        np.testing.assert_allclose(V, [[1.0]], atol=1e-15)

    def test_coupled_two_block_closed_form(self):
        # eigenvalues of [[0.4, 0.05], [0.05, 0.3]] in closed form
        nu, _ = _decompose(
            SbmParams(omega=1.0, s=[0.5, 0.5], p=[0.8, 0.6], q=0.1))
        mid, rad = 0.35, np.sqrt(0.05**2 + 0.05**2)
        np.testing.assert_allclose(nu, [mid + rad, mid - rad], atol=1e-12)
        np.testing.assert_allclose(np.round(nu, 4), [0.4207, 0.2793])

    def test_invariants_on_random_params(self):
        gen = np.random.default_rng(10)
        for _ in range(50):
            params = random_params(gen)
            nu, V = _decompose(params)
            np.testing.assert_allclose(V.T @ V, np.eye(params.c), atol=1e-10)
            np.testing.assert_allclose(block_matrix(params) @ V,
                                       V @ np.diag(nu), atol=1e-10)
            assert np.all(np.diff(nu) <= 1e-14)
            # each column's largest-|entry| coordinate is positive
            top = np.argmax(np.abs(V), axis=0)
            assert np.all(V[top, np.arange(params.c)] > 0)


class TestEigenfunctions:
    def test_diagonal_two_block(self):
        r = eigenfunctions(
            SbmParams(omega=1.0, s=[0.5, 0.5], p=[0.8, 0.6], q=0.0))
        np.testing.assert_allclose(r[0], [np.sqrt(2.0), 0.0], atol=1e-12)

    def test_single_block_is_unit(self):
        r = eigenfunctions(SbmParams(omega=1.0, s=[1.0], p=[0.7], q=0.0))
        np.testing.assert_allclose(r, [[1.0]], atol=1e-14)

    def test_orthonormality_under_s_weights(self):
        gen = np.random.default_rng(11)
        for _ in range(20):
            params = random_params(gen)
            r = eigenfunctions(params)
            gram = (r * params.s) @ r.T
            np.testing.assert_allclose(gram, np.eye(params.c), atol=1e-10)

    def test_operator_eigenvalues_match_matrix(self):
        # midpoint-discretized kernel operator converges to nu
        params = SbmParams(omega=1.0, s=[1 / 3, 1 / 3, 1 / 3],
                           p=[0.9, 0.7, 0.5], q=0.05)
        nu, _ = _decompose(params)
        err512 = np.max(np.abs(kernel_operator_eigenvalues(params, 512) - nu))
        err1024 = np.max(np.abs(kernel_operator_eigenvalues(params, 1024) - nu))
        assert err512 < 1e-3
        assert err1024 <= err512


class TestLimitingCovariance:
    def test_single_community(self):
        params = SbmParams(omega=1.0, s=[1.0], p=[0.75], q=0.0)
        np.testing.assert_allclose(limiting_covariance(params), [[1.5]],
                                   atol=1e-14)
        # finite density keeps the Bernoulli factor: 2 p (1 - omega p)
        np.testing.assert_allclose(eigenvalue_covariance(params), [[0.375]],
                                   atol=1e-14)

    def test_decoupled_blocks(self):
        params = SbmParams(omega=1.0, s=[0.5, 0.5], p=[0.8, 0.6], q=0.0)
        np.testing.assert_allclose(limiting_covariance(params),
                                   np.diag([1.6, 1.2]), atol=1e-14)
        np.testing.assert_allclose(eigenvalue_covariance(params),
                                   np.diag([0.32, 0.48]), atol=1e-14)

    def test_matches_block_integral_oracle(self):
        gen = np.random.default_rng(12)
        for _ in range(200):
            params = random_params(gen)
            a = limiting_covariance(params)
            b = covariance_block_integral(params)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
            # the finite-density covariance tends to the limit as omega -> 0
            sparse = SbmParams(omega=1e-9, s=params.s, p=params.p, q=params.q)
            np.testing.assert_allclose(eigenvalue_covariance(sparse), a,
                                       rtol=1e-8, atol=1e-14)

    def test_symmetric_psd(self):
        gen = np.random.default_rng(13)
        for _ in range(30):
            params = random_params(gen)
            for cov in (limiting_covariance(params),
                        eigenvalue_covariance(params)):
                np.testing.assert_allclose(cov, cov.T, atol=1e-12)
                assert np.linalg.eigvalsh(cov).min() > -1e-10


class TestExpectedEigenvalue:
    def test_er_closed_form(self):
        # single community: prediction is exactly n*omega*p + 1
        for n, omega, p in ((500, 0.1, 0.5), (1000, 2 / np.sqrt(1000), 0.75)):
            params = SbmParams(omega=omega, s=[1.0], p=[p], q=0.0)
            got = expected_spectrum(params, n)
            assert got == pytest.approx([n * omega * p + 1.0], abs=1e-9)

    def test_frozen_er_value(self):
        params = SbmParams(omega=2 / np.sqrt(1000), s=[1.0], p=[0.75], q=0.0)
        got = expected_spectrum(params, 1000)
        assert round(float(got[0]), 4) == 48.4342

    def test_decoupled_leading_term(self):
        params = SbmParams(omega=0.3, s=[0.5, 0.5], p=[0.8, 0.6], q=0.0)
        n = 1000
        lead = n * 0.3 * 0.5 * params.p
        assert expected_spectrum(params, n) == pytest.approx(lead + 1.0,
                                                             abs=1e-9)

    def test_refuses_indefinite(self):
        params = SbmParams(omega=0.5, s=[0.5, 0.5], p=[0.1, 0.1], q=0.9)
        with pytest.raises(ValueError, match="not positive definite"):
            expected_spectrum(params, 100)

    # B2 included: without it the values would read n omega nu
    @pytest.mark.parametrize("params, n, expect", [
        (SbmParams(0.3, [0.5, 0.5], [0.8, 0.6], 0.03), 1000,
         [121.68706768098016, 90.40428563423447]),
        (SbmParams(0.3, [0.4, 0.3, 0.3], [0.9, 0.7, 0.5], 0.025), 800,
         [87.65011413345859, 51.55396882977723, 36.846004834850056]),
    ], ids=["two_block", "three_block"])
    def test_pinned_values(self, params, n, expect):
        np.testing.assert_allclose(expected_spectrum(params, n), expect,
                                   rtol=1e-12)


@st.composite
def permuted_blocks(draw):
    """Random SBM parameters, and the same blocks in a permuted order."""
    c = draw(st.integers(1, 5))
    s = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=c, max_size=c)))
    s = s / s.sum()
    p = np.array(draw(st.lists(st.floats(0.2, 0.95), min_size=c, max_size=c)))
    q = draw(st.floats(0.0, 1.0)) * p.min()
    perm = draw(st.permutations(range(c)))
    return SbmParams(0.5, s, p, q), SbmParams(0.5, s[perm], p[perm], q)


@given(permuted_blocks())
def test_block_permutation_invariance(pair):
    params, permuted = pair
    # at a repeated nu the covariance depends on the chosen eigenbasis
    nu = np.linalg.eigvalsh(block_matrix(params))[::-1]
    assume(nu[-1] > 0 and np.all(-np.diff(nu) > 1e-3 * nu[0]))
    np.testing.assert_allclose(expected_spectrum(permuted, 1000),
                               expected_spectrum(params, 1000), rtol=1e-10)
    cov = eigenvalue_covariance(params)
    # entries at rounding level (q near 0) compare against the largest one
    np.testing.assert_allclose(eigenvalue_covariance(permuted), cov,
                               rtol=1e-10, atol=1e-10 * np.abs(cov).max())


class TestFirstOrder:
    def test_exact_at_zero_coupling(self):
        params = SbmParams(omega=0.3, s=[0.5, 0.5], p=[0.8, 0.6], q=0.0)
        rep = first_order_check(params, 1000)
        # the mean carries exactly the O(1) shift of one: n omega s p + 1
        np.testing.assert_allclose(rep["mean_error"],
                                   1.0 / (1000 * 0.3 * params.s), atol=1e-12)
        np.testing.assert_allclose(rep["cov_error"], 0.0, atol=1e-12)

    def test_covariance_error_quadratic_in_eps(self):
        # acceptance criterion: log-log slope 2 +/- 0.3 over eps halvings
        p = np.array([0.8, 0.6])
        s = np.array([0.5, 0.5])
        eps_grid = np.array([0.1, 0.05, 0.025])
        errs = []
        for eps in eps_grid:
            params = SbmParams(omega=0.3, s=s, p=p, q=float(eps * p.min()))
            rep = first_order_check(params, 1000)
            errs.append(rep["cov_error"].max())
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3


class TestPredictedLaw:
    def test_dirac_law_is_exact(self):
        p_star = np.array([0.8, 0.6])
        model = RpsbmModel(omega=0.3, law=DiracLaw(p_star), epsilon=0.0,
                           s=np.array([0.5, 0.5]))
        out = predict_eig_law_moments(model, 1000, draws=1)
        params = SbmParams(omega=0.3, s=[0.5, 0.5], p=p_star, q=0.0)
        np.testing.assert_allclose(out.mean, expected_spectrum(params, 1000),
                                   atol=1e-12)
        np.testing.assert_allclose(out.cov, 0.3 * eigenvalue_covariance(params),
                                   atol=1e-12)

    def test_zero_width_uniform_equals_dirac(self):
        s = np.array([0.5, 0.5])
        center = np.array([0.8, 0.6])
        dirac = RpsbmModel(omega=0.3, law=DiracLaw(center), epsilon=0.02, s=s)
        uni = RpsbmModel(omega=0.3, law=UniformProductLaw(center, [0.0, 0.0]),
                         epsilon=0.02, s=s)
        a = predict_eig_law_moments(dirac, 500, draws=1)
        b = predict_eig_law_moments(uni, 500, draws=64)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)

    def test_uniform_variance_identity(self):
        # decoupled blocks, p_i ~ U(c_i -+ w_i/2):
        # Var(lambda_i) = (n omega s_i)^2 w_i^2/12 + omega E[2 p_i (1 - omega p_i)]
        # with E[p_i^2] = c_i^2 + w_i^2/12
        n, omega = 1000, 0.3
        s = np.array([0.5, 0.5])
        center = np.array([0.8, 0.6])
        width = np.array([0.1, 0.05])
        model = RpsbmModel(omega=omega, law=UniformProductLaw(center, width),
                           epsilon=0.0, s=s)
        out = predict_eig_law_moments(model, n, draws=6000, seed=1)
        expect = ((n * omega * s) ** 2 * width**2 / 12
                  + 2 * omega * (center - omega * (center**2 + width**2 / 12)))
        np.testing.assert_allclose(np.diag(out.cov), expect, rtol=0.06)

    def test_cov_psd_and_mean_sorted(self):
        model = RpsbmModel(
            omega=0.3, law=UniformProductLaw([0.9, 0.7, 0.5], [0.1, 0.1, 0.1]),
            epsilon=0.05, s=np.array([0.4, 0.3, 0.3]))
        out = predict_eig_law_moments(model, 800, draws=300, seed=2)
        assert np.linalg.eigvalsh(out.cov).min() > -1e-10
        assert np.all(np.diff(out.mean) <= 0)


@pytest.mark.slow
class TestMonteCarloAgreement:
    def test_mean_and_variance_of_sampled_eigenvalues(self):
        n, reps = 1000, 200
        omega = 10 / np.sqrt(n)
        params = SbmParams(omega=omega, s=[0.5, 0.5], p=[0.8, 0.6], q=0.02)
        lams = np.empty((reps, 2))
        for k in range(reps):
            g = sample_sbm(params, n, seed=42, graph_index=k)
            lams[k] = spectrum(g, 2).values
        cov_z = eigenvalue_covariance(params)
        pred = expected_spectrum(params, n)
        for i in range(2):
            se = np.sqrt(omega * cov_z[i, i] / reps)
            tol = 3 * se + 0.01 * abs(pred[i])
            assert abs(lams[:, i].mean() - pred[i]) < tol
            emp_var = lams[:, i].var(ddof=1) / omega
            assert abs(emp_var - cov_z[i, i]) < 0.25 * cov_z[i, i]
