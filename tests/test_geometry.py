"""Community-count and geometry-vector estimation from the Bethe Hessian."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rpsbm import (
    Graph,
    SbmParams,
    cluster_by_community_count,
    detect_geometry,
    sample_sbm,
)
from rpsbm.geometry import _pivoted_qr_labels


def planted(n, sizes, p, q, seed, omega=1.0):
    """Planted-partition oracle: contiguous blocks of the given sizes."""
    s = np.asarray(sizes, dtype=float) / sum(sizes)
    params = SbmParams(omega=omega, s=s, p=np.asarray(p, dtype=float), q=q)
    return sample_sbm(params, int(sum(sizes)), seed=seed)


def reads_planted(est, sizes):
    """Right count, and every block fraction within 1/n of the planted one."""
    n = sum(sizes)
    want = np.sort(np.asarray(sizes, dtype=float))[::-1] / n
    return (est.community_count == len(sizes)
            and bool(np.all(np.abs(est.s - want) <= 1.0 / n)))


class TestProfile:
    """The block profile s: its placement and what it must not depend on."""

    def test_two_block_step_at_boundary(self):
        g = planted(400, [200, 200], [0.9, 0.9], 0.01, seed=44)
        est = detect_geometry(g)
        assert est.community_count == 2
        np.testing.assert_allclose(est.s, [0.5, 0.5], atol=10 / 400)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([([60, 60], [0.9, 0.9], 0.3),
                            ([54, 36, 30], [0.8, 0.85, 0.9], 1.0),
                            ([100, 100], [0.8, 0.5], 1.0)]))
    def test_label_free(self, seed, case):
        sizes, p, omega = case
        g = planted(sum(sizes), sizes, p, 0.05, seed, omega)
        perm = np.random.default_rng(seed).permutation(g.n)
        np.testing.assert_array_equal(detect_geometry(g.relabel(perm)).s,
                                      detect_geometry(g).s)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 60))
    def test_sign_flips_do_not_matter(self, seed, k, extra):
        # nor does any rotation of the basis: the labels are a function of
        # the span of V alone.  Label j names the j-th pivot row, so n > k
        # (at n = k every row has norm 1 and the pivot order is a tie)
        gen = np.random.default_rng(seed)
        V = np.linalg.qr(gen.standard_normal((k + extra, k)))[0]
        R = np.linalg.qr(gen.standard_normal((k, k)))[0]
        signs = gen.choice([-1.0, 1.0], size=k)
        labels = _pivoted_qr_labels(V)
        assert labels.shape == (k + extra,)
        np.testing.assert_array_equal(_pivoted_qr_labels(V * signs), labels)
        np.testing.assert_array_equal(_pivoted_qr_labels(V @ R), labels)

    @pytest.mark.parametrize("transform", ["negate-first", "rotate"])
    def test_eigensolver_basis_does_not_matter(self, transform, monkeypatch):
        # the count and s must not depend on the signs the eigensolver picks
        # or on any other orthonormal basis of the same eigenspace
        eigh = scipy.linalg.eigh

        def other_basis(*args, **kwargs):
            w, V = eigh(*args, **kwargs)
            k = V.shape[1]
            if transform == "negate-first":
                R = np.diag([-1.0] + [1.0] * (k - 1))
            else:
                R = np.linalg.qr(np.random.default_rng(k).standard_normal((k, k)))[0]
            return w, V @ R

        for seed in range(5):
            g = planted(120, [54, 36, 30], [0.8, 0.85, 0.9], 0.05, seed)
            expect = detect_geometry(g)
            with monkeypatch.context() as mp:
                mp.setattr(scipy.linalg, "eigh", other_basis)
                got = detect_geometry(g)
            assert expect.community_count == 3
            np.testing.assert_array_equal(got.s, expect.s)


class TestDetectGeometry:
    def test_complete_graph_single_community(self):
        est = detect_geometry(Graph.complete(60))
        assert est.community_count == 1
        np.testing.assert_allclose(est.s, [1.0])

    def test_empty_graph_single_community(self):
        est = detect_geometry(Graph.empty(10))
        assert est.community_count == 1
        np.testing.assert_array_equal(est.s, [1.0])

    @pytest.mark.parametrize("g", [
        Graph(10, [(0, 1), (2, 3)]), Graph.empty(10), Graph.complete(60),
        Graph.path(50)], ids=["two-edges", "empty", "complete", "path"])
    def test_undetectable_graph_reads_one_community(self, g):
        # r <= 1 for all but the complete graph; isolated nodes would put
        # r^2 - 1 < 0 on the Bethe Hessian's diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = detect_geometry(g)
        assert est.community_count == 1
        np.testing.assert_array_equal(est.s, [1.0])

    def test_planted_two_block_geometry(self):
        g = planted(400, [200, 200], [0.9, 0.9], 0.01, seed=45)
        est = detect_geometry(g)
        assert est.community_count == 2
        np.testing.assert_allclose(est.s, [0.5, 0.5], atol=0.05)

    def test_planted_unequal_p(self):
        g = planted(400, [200, 200], [0.9, 0.6], 0.02, seed=46)
        est = detect_geometry(g)
        assert est.community_count == 2
        np.testing.assert_allclose(est.s, [0.5, 0.5], atol=0.05)

    def test_s_sums_to_one_and_blocks_respect_gap(self):
        # every block holds at least one node, and s is non-increasing
        gen = np.random.default_rng(47)
        for _ in range(10):
            n = int(gen.integers(60, 200))
            p = float(gen.uniform(0.1, 0.9))
            g = planted(n, [n], [p], 0.0, seed=int(gen.integers(1 << 30)))
            est = detect_geometry(g)
            assert est.s.sum() == pytest.approx(1.0)
            assert est.s.min() * n >= 1 - 1e-9
            assert np.all(np.diff(est.s) <= 0)


class TestPlanted:
    """Each planted case reads its count, with s within 1/n, on >= 18 of
    seeds 0-19."""

    @pytest.mark.parametrize("sizes, p, omega", [
        ([54, 36, 30], [0.8, 0.85, 0.9], 1.0),
        ([60, 60], [0.9, 0.9], 0.3),
        ([134, 134, 133], [0.9, 0.9, 0.9], 0.1),
    ], ids=["54-36-30", "halves-n120", "thirds-n401"])
    def test_reads_planted_count(self, sizes, p, omega):
        hits = sum(reads_planted(detect_geometry(
            planted(sum(sizes), sizes, p, 0.05, seed, omega)), sizes)
            for seed in range(20))
        assert hits >= 18


class TestClustering:
    def test_identical_corpus_one_cluster(self):
        g = planted(200, [100, 100], [0.8, 0.8], 0.02, seed=49)
        clusters = cluster_by_community_count([detect_geometry(g) for g in [g, g, g]])
        assert len(clusters) == 1
        (members,) = clusters.values()
        assert members == [0, 1, 2]

    def test_empty_corpus(self):
        assert cluster_by_community_count([]) == {}

    def test_mixed_two_and_three_block(self):
        corpus = []
        labels = []
        for t in range(8):
            corpus.append(planted(600, [300, 300], [0.85, 0.85], 0.01,
                                  seed=500 + t))
            labels.append(2)
        for t in range(8):
            corpus.append(planted(600, [200, 200, 200], [0.85, 0.85, 0.85],
                                  0.01, seed=600 + t))
            labels.append(3)
        clusters = cluster_by_community_count([detect_geometry(g) for g in corpus])
        labels = np.array(labels)
        purity_hits = 0
        for members in clusters.values():
            counts = np.bincount(labels[members])
            purity_hits += counts.max()
        assert purity_hits / len(corpus) >= 0.9
