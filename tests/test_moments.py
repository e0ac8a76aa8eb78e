"""Corpus moments, the total-variance identity, and regime classification."""

import numpy as np
import pytest

from rpsbm import (
    Graph,
    SampleMoments,
    classify_regimes,
    compute_moments,
    frechet_total_variance,
    full_spectrum,
    sample_sbm,
    SbmParams,
)
from rpsbm.moments import LARGE, MEDIUM, SMALL, moments_report


def random_corpus(gen, n, count, p=0.3):
    out = []
    for _ in range(count):
        params = SbmParams(omega=1.0, s=[1.0], p=[p], q=0.0)
        out.append(sample_sbm(params, n, seed=int(gen.integers(1 << 30))))
    return out


class TestComputeMoments:
    def test_identical_corpus(self):
        g = Graph.complete(5)
        m = compute_moments([g] * 4, 3)
        np.testing.assert_allclose(m.cov, 0.0, atol=1e-12)
        np.testing.assert_allclose(m.mean_spectrum,
                                   full_spectrum(g).values[:3], atol=1e-12)

    def test_hand_arithmetic(self):
        # single edge on 4 nodes: lambda_1 = 1; K4: lambda_1 = 3
        a = Graph(4, [(0, 1)])
        b = Graph.complete(4)
        m = compute_moments([a, b], 1)
        assert m.mean_spectrum[0] == pytest.approx(2.0)
        assert m.cov[0, 0] == pytest.approx(2.0)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            compute_moments([Graph.complete(4), Graph.complete(5)], 1)

    def test_single_graph_degenerate(self):
        with pytest.warns(UserWarning, match="degenerate"):
            m = compute_moments([Graph.complete(4)], 2)
        np.testing.assert_array_equal(m.cov, np.zeros((2, 2)))

    def test_order_invariance(self):
        gen = np.random.default_rng(20)
        corpus = random_corpus(gen, 30, 6)
        m1 = compute_moments(corpus, 3)
        m2 = compute_moments(corpus[::-1], 3)
        np.testing.assert_allclose(m1.mean_spectrum, m2.mean_spectrum, atol=1e-12)
        np.testing.assert_allclose(m1.cov, m2.cov, atol=1e-12)

    def test_covariance_psd(self):
        gen = np.random.default_rng(21)
        corpus = random_corpus(gen, 40, 10)
        m = compute_moments(corpus, 4)
        for _ in range(20):
            w = gen.normal(size=4)
            assert w @ m.cov @ w >= -1e-10


class TestTotalVariance:
    def test_identical_corpus_is_zero(self):
        assert frechet_total_variance([Graph.complete(5)] * 3, 2) == 0.0

    def test_hand_arithmetic(self):
        a = Graph(4, [(0, 1)])
        b = Graph.complete(4)
        assert frechet_total_variance([a, b], 1) == pytest.approx(2.0)

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError):
            frechet_total_variance([Graph.complete(4)], 1)

    def test_equals_covariance_trace(self):
        gen = np.random.default_rng(22)
        for _ in range(25):
            corpus = random_corpus(gen, 25, int(gen.integers(2, 9)),
                                   p=float(gen.uniform(0.1, 0.6)))
            c = int(gen.integers(1, 6))
            v = frechet_total_variance(corpus, c)
            tr = float(np.trace(compute_moments(corpus, c).cov))
            assert v == pytest.approx(tr, rel=1e-10)


class TestRegimes:
    def paper_moments(self):
        # measured two-block corpus statistics: large-variance on both indices
        return SampleMoments(
            mean_spectrum=np.array([133.9401, 91.1005]),
            cov=np.array([[25.3956, 0.0], [0.0, 5.5628]]),
            mean_density=0.115, N=50, n=1000, c=2,
        )

    def test_large_regime_diagnostic(self):
        rep = classify_regimes(self.paper_moments(), np.array([0.5, 0.5]))
        assert rep.diagnostic[0] == pytest.approx(24.8599, abs=1e-4)
        assert rep.regimes == (LARGE, LARGE)

    def test_small_when_variance_vanishes(self):
        m = SampleMoments(mean_spectrum=np.array([10.0]),
                          cov=np.array([[0.0]]),
                          mean_density=0.1, N=5, n=100, c=1)
        rep = classify_regimes(m, np.array([1.0]))
        assert rep.regimes == (SMALL,)

    def test_boundary_is_medium(self):
        # diagnostic exactly zero => ratio 1 => medium
        lam = 10.0
        n, s = 100, 1.0
        m = SampleMoments(mean_spectrum=np.array([lam]),
                          cov=np.array([[2 * lam / (n * s)]]),
                          mean_density=0.1, N=5, n=n, c=1)
        rep = classify_regimes(m, np.array([s]))
        assert rep.diagnostic[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.regimes == (MEDIUM,)

    def test_report_payload(self):
        rep = moments_report(self.paper_moments())
        assert rep["format"] == 1
        assert rep["regimes"] == ["large", "large"]
