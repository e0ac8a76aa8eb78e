"""Community-count and geometry-vector estimation from eigenvector profiles."""

import numpy as np
import pytest

from rpsbm import (
    Graph,
    SbmParams,
    cluster_by_community_count,
    detect_geometry,
    extremal_count,
    sample_sbm,
)
from rpsbm.geometry import merge_change_points
from oracles import eigenvector_profile


def planted(n, sizes, p, q, seed):
    """Planted-partition oracle: contiguous equal-probability blocks."""
    s = np.asarray(sizes, dtype=float) / sum(sizes)
    params = SbmParams(omega=1.0, s=s, p=np.asarray(p, dtype=float), q=q)
    return sample_sbm(params, int(sum(sizes)), seed=seed)


class TestExtremalCount:
    def test_complete_graph(self):
        assert extremal_count(Graph.complete(4)) == 1

    def test_empty_graph(self):
        assert extremal_count(Graph.empty(5)) == 0

    def test_two_disjoint_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        assert extremal_count(Graph(6, edges)) == 2

    def test_planted_two_block(self):
        g = planted(400, [200, 200], [0.9, 0.9], 0.01, seed=40)
        assert extremal_count(g) == 2


class TestProfile:
    def test_uniform_on_complete_graph(self):
        prof = eigenvector_profile(Graph.complete(50), 1)
        assert np.ptp(prof) < 1e-9

    def test_label_free(self):
        g = planted(200, [100, 100], [0.8, 0.5], 0.02, seed=41)
        perm = np.random.default_rng(42).permutation(200)
        a = eigenvector_profile(g, 2)
        b = eigenvector_profile(g.relabel(perm), 2)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_sign_flips_do_not_matter(self):
        # same formula on sign-flipped vectors gives the identical profile
        from rpsbm.spectral import eigenpairs
        g = planted(150, [75, 75], [0.8, 0.8], 0.02, seed=43)
        w, u = eigenpairs(g, 2)
        base = np.log(np.sort(np.abs(u), axis=0) + 1e-12).sum(axis=1)
        flipped = np.log(np.sort(np.abs(u * [-1, 1]), axis=0) + 1e-12).sum(axis=1)
        np.testing.assert_array_equal(base, flipped)

    def test_two_block_step_at_boundary(self):
        g = planted(400, [200, 200], [0.9, 0.9], 0.01, seed=44)
        est = detect_geometry(g)
        assert est.community_count == 2
        assert abs(est.change_points[0] - 200) <= 10

    def test_needs_positive_k(self):
        with pytest.raises(ValueError):
            eigenvector_profile(Graph.complete(5), 0)


class TestMergeRule:
    def test_close_points_average(self):
        assert merge_change_points([100, 103], n=400, min_gap=10) == [101]

    def test_three_apart_with_gap_ten(self):
        assert merge_change_points([50, 53], n=200, min_gap=10) == [51]

    def test_endpoints_dropped(self):
        assert merge_change_points([3, 100], n=200, min_gap=10) == [100]

    def test_far_points_kept(self):
        assert merge_change_points([50, 150], n=400, min_gap=10) == [50, 150]


class TestDetectGeometry:
    def test_complete_graph_single_community(self):
        est = detect_geometry(Graph.complete(60))
        assert est.community_count == 1
        np.testing.assert_allclose(est.s, [1.0])

    def test_empty_graph_single_community(self):
        est = detect_geometry(Graph.empty(10))
        assert est.K == 0 and est.community_count == 1

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
        gen = np.random.default_rng(47)
        for _ in range(10):
            n = int(gen.integers(60, 200))
            p = float(gen.uniform(0.1, 0.9))
            g = planted(n, [n], [p], 0.0, seed=int(gen.integers(1 << 30)))
            est = detect_geometry(g)
            assert est.s.sum() == pytest.approx(1.0)
            if est.change_points:
                gap = int(np.ceil(max(np.max(est.s) * 0, 1)))
                bounds = [0, *est.change_points, n]
                assert min(np.diff(bounds)) >= 1

    def test_block_sizes_at_least_lambda1(self):
        g = planted(400, [200, 200], [0.9, 0.9], 0.01, seed=48)
        est = detect_geometry(g)
        from rpsbm import full_spectrum
        lam1 = full_spectrum(g).values[0]
        bounds = [0, *est.change_points, g.n]
        assert min(np.diff(bounds)) >= int(np.ceil(lam1))


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
