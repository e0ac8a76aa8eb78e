"""Graph representation, spectra, and pseudometric properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpsbm import (
    Graph,
    RpsbmModel,
    UniformProductLaw,
    density,
    dist_truncated,
    full_spectrum,
    load_edgelist,
    sample_rpsbm,
    save_edgelist,
    spectrum,
)
from rpsbm.spectral import DENSE_EIG, eigenpairs


def dense_eigs(g: Graph) -> np.ndarray:
    """Oracle: LAPACK on the explicitly built adjacency, sorted descending."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return np.linalg.eigvalsh(a)[::-1]


def random_graph(n, p, seed):
    gen = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    mask = gen.random(len(iu)) < p
    return Graph(n, np.column_stack((iu[mask], ju[mask])))


def lexsort_unique(pairs) -> np.ndarray:
    """Oracle: the (i < j) rows lexsorted and deduplicated row-wise."""
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i = np.minimum(e[:, 0], e[:, 1])
    j = np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((j, i))
    return np.unique(np.column_stack((i, j))[order], axis=0)


def cycle(n):
    k = np.arange(n)
    return Graph(n, np.column_stack((k, (k + 1) % n)))


def star(n):
    return Graph(n, np.column_stack((np.zeros(n - 1, dtype=int), np.arange(1, n))))


def two_cliques(n):
    """Two disjoint K10 and n - 20 isolated nodes: spectrum 9, 9, 0, ..., -1."""
    i, j = np.triu_indices(10, 1)
    k10 = np.column_stack((i, j))
    return Graph(n, np.vstack((k10, k10 + 10)))


SPECIAL = {"path": Graph.path, "cycle": cycle, "star": star,
           "empty": Graph.empty, "two_cliques": two_cliques}


class TestGraph:
    @given(st.data())
    def test_canonical_edges_match_lexsort_unique(self, data):
        n = data.draw(st.one_of(st.integers(2, 12), st.integers(2, 2**31 - 1)),
                      label="n")
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node).filter(
            lambda p: p[0] != p[1]), max_size=60), label="pairs")
        repeats = (data.draw(st.lists(st.sampled_from(pairs), max_size=20),
                             label="repeats") if pairs else [])
        reversed_repeats = [(j, i) for i, j in repeats]
        edges = data.draw(st.permutations(pairs + repeats + reversed_repeats),
                          label="edges")
        g = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        expect = lexsort_unique(edges)
        assert g.edges.dtype == np.int64
        assert g.edges.shape == expect.shape
        np.testing.assert_array_equal(g.edges, expect)
        assert not g.edges.flags.writeable

    def test_dedup_and_reversed_pairs(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert g.m == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_edges_immutable(self):
        g = Graph.complete(4)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5


class TestSpectrum:
    def test_empty_graph(self):
        assert spectrum(Graph.empty(5), 3).values.tolist() == [0.0, 0.0, 0.0]

    def test_complete_k4(self):
        expect = dense_eigs(Graph.complete(4))[:2]
        np.testing.assert_allclose(expect, [3.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(spectrum(Graph.complete(4), 2).values,
                                   expect, atol=1e-12)

    def test_path_p3(self):
        expect = dense_eigs(Graph.path(3))[:2]
        np.testing.assert_allclose(expect, [np.sqrt(2.0), 0.0], atol=1e-12)
        np.testing.assert_allclose(spectrum(Graph.path(3), 2).values,
                                   expect, atol=1e-12)

    def test_truncation_bounds(self):
        with pytest.raises(ValueError):
            spectrum(Graph.complete(4), 0)
        with pytest.raises(ValueError):
            spectrum(Graph.complete(4), 5)

    def test_full_spectrum_examples(self):
        np.testing.assert_allclose(full_spectrum(Graph.complete(3)).values,
                                   dense_eigs(Graph.complete(3)), atol=1e-12)
        np.testing.assert_allclose(dense_eigs(Graph.complete(3)), [2, -1, -1],
                                   atol=1e-12)
        np.testing.assert_allclose(full_spectrum(Graph(2, [(0, 1)])).values,
                                   [1.0, -1.0], atol=1e-12)
        assert full_spectrum(Graph.empty(3)).values.tolist() == [0, 0, 0]

    def test_zero_trace(self):
        g = random_graph(40, 0.3, 1)
        assert abs(full_spectrum(g).values.sum()) < 1e-9

    def test_truncation_prefix_of_full(self):
        g = random_graph(60, 0.2, 2)
        full = full_spectrum(g).values
        np.testing.assert_array_equal(spectrum(g, 4).values, full[:4])

    def test_iterative_matches_dense(self):
        # above the dense limit the top-c path switches to ARPACK
        g = random_graph(2500, 0.01, 3)
        top = spectrum(g, 3).values
        np.testing.assert_allclose(top, dense_eigs(g)[:3], atol=1e-9)

    @pytest.mark.parametrize("n", [DENSE_EIG + 1, 2100])
    @pytest.mark.parametrize("name", sorted(SPECIAL))
    def test_symmetric_graphs_match_dense(self, name, n):
        # a path's or cycle's second eigenvector is orthogonal to the all-ones
        # vector, and the star and the cliques have fewer than three positive
        # eigenvalues next to a large zero eigenspace
        g = SPECIAL[name](n)
        expect = dense_eigs(g)
        for c in (1, 2, 3):
            np.testing.assert_allclose(spectrum(g, c).values, expect[:c],
                                       rtol=0, atol=1e-8, err_msg=f"c={c}")

    @pytest.mark.parametrize("name", sorted(SPECIAL))
    def test_eigenpairs_of_symmetric_graphs(self, name):
        g = SPECIAL[name](DENSE_EIG + 1)
        expect = dense_eigs(g)
        a = g.adjacency(dense=True)
        for k in (1, 2, 3):
            w, u = eigenpairs(g, k)
            np.testing.assert_allclose(w, expect[:k], rtol=0, atol=1e-8)
            np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-10)
            assert np.max(np.abs(a @ u - u * w)) < 1e-8

    @pytest.mark.parametrize("n", [DENSE_EIG + 1, 1000, 2000])
    def test_rpsbm_draws_match_dense(self, n):
        model = RpsbmModel(10 / np.sqrt(n),
                           UniformProductLaw([0.85, 0.575], [0.1, 0.05]),
                           0.05, np.array([0.5, 0.5]))
        for seed in range(3):
            g = sample_rpsbm(model, n, seed, 0)
            np.testing.assert_allclose(spectrum(g, 2).values, dense_eigs(g)[:2],
                                       rtol=1e-10, atol=0)

    def test_permutation_invariance(self):
        g = random_graph(50, 0.2, 4)
        perm = np.random.default_rng(5).permutation(50)
        np.testing.assert_allclose(spectrum(g.relabel(perm), 5).values,
                                   spectrum(g, 5).values, atol=1e-9)

    def test_single_edge_perturbation_bound(self):
        # removing one edge is a rank-2, operator-norm-1 perturbation
        gen = np.random.default_rng(6)
        for _ in range(5):
            g = random_graph(30, 0.3, gen.integers(1 << 30))
            k = gen.integers(g.m)
            edges = np.delete(g.edges, k, axis=0)
            h = Graph(g.n, edges)
            diff = full_spectrum(g).values - full_spectrum(h).values
            assert np.max(np.abs(diff)) <= 1.0 + 1e-9


class TestDistance:
    def test_reflexive(self):
        a = spectrum(Graph.complete(4), 2)
        assert dist_truncated(a, a) == 0.0

    def test_single_coordinate(self):
        a = spectrum(Graph.complete(4), 2)   # [3, -1]
        b_vals = np.array([0.0, -1.0])
        from rpsbm import SpectralSignature
        b = SpectralSignature(b_vals, 2, 4)
        assert dist_truncated(a, b) == pytest.approx(3.0)

    def test_k3_vs_empty(self):
        a = spectrum(Graph.complete(3), 3)
        b = spectrum(Graph.empty(3), 3)
        expect = np.linalg.norm(dense_eigs(Graph.complete(3)))
        assert expect == pytest.approx(np.sqrt(6.0), abs=1e-12)
        assert dist_truncated(a, b) == pytest.approx(expect)

    def test_mismatched_truncation(self):
        with pytest.raises(ValueError):
            dist_truncated(spectrum(Graph.complete(4), 2),
                           spectrum(Graph.complete(4), 3))

    def test_pseudometric_axioms(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            gs = [random_graph(25, gen.uniform(0.1, 0.6), gen.integers(1 << 30))
                  for _ in range(3)]
            sigs = [spectrum(g, 6) for g in gs]
            a, b, c = sigs
            assert dist_truncated(a, a) == 0.0
            assert dist_truncated(a, b) == pytest.approx(dist_truncated(b, a))
            assert (dist_truncated(a, c)
                    <= dist_truncated(a, b) + dist_truncated(b, c) + 1e-12)


class TestDensity:
    def test_examples(self):
        assert density(Graph.complete(4)) == 1.0
        assert density(Graph.empty(5)) == 0.0
        assert density(Graph.path(3)) == pytest.approx(2.0 / 3.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            density(Graph.empty(1))


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = random_graph(20, 0.3, 8)
        path = tmp_path / "g.txt"
        save_edgelist(g, path)
        h = load_edgelist(path)
        assert h.n == g.n
        np.testing.assert_array_equal(h.edges, g.edges)

    def test_header_fixes_isolated_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 7\n0 1\n")
        g = load_edgelist(path)
        assert g.n == 7 and g.m == 1

    def test_duplicates_collapsed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        assert load_edgelist(path).m == 1

    def test_spectra_survive_round_trip(self, tmp_path):
        g = random_graph(40, 0.25, 9)
        path = tmp_path / "g.txt"
        save_edgelist(g, path)
        a = spectrum(g, 5).values
        b = spectrum(load_edgelist(path), 5).values
        np.testing.assert_allclose(a, b, atol=1e-12)
