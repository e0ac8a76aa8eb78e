"""Graph representation, spectra, and pseudometric properties."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from rpsbm import (
    Graph,
    RpsbmModel,
    SbmParams,
    SpectralSignature,
    UniformProductLaw,
    density,
    detect_geometry,
    dist_truncated,
    load_edgelist,
    sample_rpsbm,
    sample_sbm,
    save_edgelist,
    spectrum,
)
from rpsbm import spectral
from rpsbm.spectral import (
    DENSE_EIG,
    _adjacency_operator,
    _upper_adjacency,
    eigenpairs,
)
from oracles import complete_graph, full_spectrum, path_graph


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


def upper_adjacency_conversions(g: Graph):
    """_upper_adjacency(g), and the COO matrices SciPy made and the index
    sorts it ran while building it."""
    seen = []
    with contextlib.ExitStack() as stack:
        for cls, name in ((scipy.sparse.coo_matrix, "__init__"),
                          (scipy.sparse.coo_array, "__init__"),
                          (scipy.sparse.csr_matrix, "sort_indices")):
            def spy(self, *args, _name=f"{cls.__name__}.{name}",
                    _original=getattr(cls, name), **kwargs):
                seen.append(_name)
                return _original(self, *args, **kwargs)

            stack.enter_context(mock.patch.object(cls, name, spy))
        # the spies see the full-matrix build through COO that U replaces
        i, j = g.edges[:, 0], g.edges[:, 1]
        scipy.sparse.csr_matrix((np.ones(2 * g.m), (np.r_[i, j], np.r_[j, i])),
                                shape=(g.n, g.n))
        assert "coo_matrix.__init__" in seen
        seen.clear()
        u = _upper_adjacency(g)
    return u, seen


@st.composite
def graphs(draw, max_n=40, max_pairs=120):
    """Graphs on 1..max_n nodes from random pairs: empty graphs and isolated
    nodes included."""
    n = draw(st.integers(1, max_n), label="n")
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          max_size=max_pairs), label="pairs")
    return Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


@st.composite
def lopsided_graphs(draw):
    """Graphs of just above DENSE_EIG nodes on which the all-ones vector is a
    lopsided start: a hub with leaves, components of unequal size and
    density, and isolated nodes, under a random relabelling."""
    n = draw(st.integers(DENSE_EIG + 1, DENSE_EIG + 40), label="n")
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    leaves = draw(st.integers(0, 60), label="leaves")
    edges = [np.column_stack((np.zeros(leaves, dtype=np.int64),
                              np.arange(1, leaves + 1)))]
    start = leaves + 1
    for size, p in draw(st.lists(st.tuples(st.integers(2, 120),
                                           st.floats(0.02, 1.0)),
                                 max_size=4), label="components"):
        size = min(size, n - start)
        iu, ju = np.triu_indices(size, 1)
        keep = gen.random(len(iu)) < p
        edges.append(start + np.column_stack((iu[keep], ju[keep])))
        start += size
    # nodes start..n-1 stay isolated
    perm = gen.permutation(n)
    return Graph(n, perm[np.vstack(edges)])


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


SPECIAL = {"path": path_graph, "cycle": cycle, "star": star,
           "empty": lambda n: Graph(n, []), "two_cliques": two_cliques}


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

    @given(graphs(), st.data())
    def test_canonical_input_kept_byte_identical(self, g, data):
        canon = np.array(g.edges)
        order = data.draw(st.permutations(range(g.m)), label="order")
        flip = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m),
                         label="flip")
        repeats = data.draw(st.lists(st.integers(0, max(g.m - 1, 0)),
                                     max_size=20 if g.m else 0), label="repeats")
        messy = canon[list(order) + repeats]
        flipped = np.array(flip + [False] * len(repeats), dtype=bool)
        messy[flipped] = messy[flipped, ::-1]
        kept, remade = Graph(g.n, canon), Graph(g.n, messy)
        for h in (kept, remade):
            assert h.edges.dtype == np.int64 and h.edges.shape == canon.shape
            assert h.edges.tobytes() == canon.tobytes()
            assert not h.edges.flags.writeable
        # the canonical input is copied, not frozen or aliased
        assert canon.flags.writeable
        assert not np.shares_memory(kept.edges, canon)
        canon[:] = -1
        assert kept.edges.tobytes() == g.edges.tobytes()

    def test_adopts_read_only_array_that_owns_its_memory(self):
        e = complete_graph(6).edges.copy()
        e.setflags(write=False)
        g = Graph(6, e)
        assert np.shares_memory(g.edges, e)

    def test_copies_read_only_view(self):
        owner = complete_graph(6).edges.copy()
        view = owner[:]
        view.setflags(write=False)
        g = Graph(6, view)
        assert not np.shares_memory(g.edges, owner)
        owner[0] = (4, 5)
        assert g.edges.tolist() == complete_graph(6).edges.tolist()

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
        g = complete_graph(4)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5

    @given(graphs())
    def test_upper_adjacency_needs_no_coo_or_sort(self, g):
        u, conversions = upper_adjacency_conversions(g)
        assert conversions == []
        assert isinstance(u, scipy.sparse.csr_matrix)
        assert u.has_canonical_format
        assert u.indices.dtype == u.indptr.dtype == np.int32
        np.testing.assert_array_equal(u.toarray(), np.triu(g.adjacency()))

    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_operator_matches_dense_adjacency(self, g, seed):
        x = np.random.default_rng(seed).standard_normal(g.n)
        np.testing.assert_allclose(_adjacency_operator(g).matvec(x),
                                   g.adjacency() @ x, rtol=0, atol=1e-12)


def _load_text(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return load_edgelist(path)


# Each input check of the module: (call on a temporary directory, what it
# returns, or the start of the ValueError message it raises).
SPECTRAL_INPUT = {
    "flat_pair_list": (lambda d: Graph(3, [0, 1, 1, 2]).edges.tolist(),
                       [[0, 1], [1, 2]]),
    "blank_line_skipped": (lambda d: _load_text(d, "n 4\n\n0 1\n \n2 3\n")
                           .edges.tolist(), [[0, 1], [2, 3]]),
    # an empty list is float64 to numpy; it has no endpoint to refuse
    "empty_pair_list": (lambda d: Graph(3, []).edges.tolist(), []),
    "float_endpoints": (lambda d: Graph(3, [[0.5, 2.2]]),
                        "edge endpoints must be integers below 2**63"),
    "endpoint_past_int64": (lambda d: Graph(3, [[0, 2**64]]),
                            "edge endpoints must be integers below 2**63"),
    # refused before the cast, which would warn of the NaN
    "nan_endpoint": (lambda d: Graph(3, np.array([[0, np.nan]])),
                     "edge endpoints must be integers below 2**63"),
    "graph_without_nodes": (lambda d: Graph(0, []),
                            "graph needs at least one node"),
    # the most nodes whose largest pair key, (n - 2) n + n - 1, fits int64
    "nodes_at_key_bound": (
        lambda d: Graph(3037000500, [[3037000498, 3037000499], [0, 1]])
        .edges.tolist(), [[0, 1], [3037000498, 3037000499]]),
    "nodes_past_key_bound": (lambda d: Graph(3037000501, [[1, 2], [0, 1]]),
                             "3037000501 nodes exceed 3037000500"),
    "signature_length": (lambda d: SpectralSignature([2.0], 2, 3),
                         "signature length must equal truncation order"),
    "signature_c_above_n": (lambda d: SpectralSignature([2.0, 1.0], 2, 1),
                            "truncation order must satisfy 1 <= c <= 1"),
    "signature_c_zero": (lambda d: SpectralSignature([], 0, 3),
                         "truncation order must satisfy 1 <= c <= 3"),
    "signature_unsorted": (lambda d: SpectralSignature([1.0, 2.0], 2, 3),
                           "eigenvalues must be sorted non-increasing"),
    "eigenpairs_k_zero": (lambda d: eigenpairs(path_graph(3), 0),
                          "k out of range"),
    "eigenpairs_k_above_n": (lambda d: eigenpairs(path_graph(3), 4),
                             "k out of range"),
    "edgelist_one_id": (lambda d: _load_text(d, "0 1\n\n2\n"),
                        "{path}:3: expected two node ids"),
}


@pytest.mark.parametrize("case", SPECTRAL_INPUT)
def test_input_checks(case, tmp_path):
    call, expect = SPECTRAL_INPUT[case]
    if not isinstance(expect, str):
        assert call(tmp_path) == expect
        return
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value).startswith(expect.format(path=tmp_path / "g.txt"))


class TestSpectrum:
    def test_empty_graph(self):
        assert spectrum(Graph(5, []), 3).values.tolist() == [0.0, 0.0, 0.0]

    def test_complete_k4(self):
        expect = dense_eigs(complete_graph(4))[:2]
        np.testing.assert_allclose(expect, [3.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(spectrum(complete_graph(4), 2).values,
                                   expect, atol=1e-12)

    def test_path_p3(self):
        expect = dense_eigs(path_graph(3))[:2]
        np.testing.assert_allclose(expect, [np.sqrt(2.0), 0.0], atol=1e-12)
        np.testing.assert_allclose(spectrum(path_graph(3), 2).values,
                                   expect, atol=1e-12)

    def test_truncation_bounds(self):
        with pytest.raises(ValueError):
            spectrum(complete_graph(4), 0)
        with pytest.raises(ValueError):
            spectrum(complete_graph(4), 5)

    def test_full_spectrum_examples(self):
        np.testing.assert_allclose(full_spectrum(complete_graph(3)).values,
                                   dense_eigs(complete_graph(3)), atol=1e-12)
        np.testing.assert_allclose(dense_eigs(complete_graph(3)), [2, -1, -1],
                                   atol=1e-12)
        np.testing.assert_allclose(full_spectrum(Graph(2, [(0, 1)])).values,
                                   [1.0, -1.0], atol=1e-12)
        assert full_spectrum(Graph(3, [])).values.tolist() == [0, 0, 0]

    def test_zero_trace(self):
        g = random_graph(40, 0.3, 1)
        assert abs(full_spectrum(g).values.sum()) < 1e-9

    def test_truncation_prefix_of_full(self):
        # a top-4 solve and a full solve are separate LAPACK runs, which
        # agree to rounding rather than bit for bit
        g = random_graph(60, 0.2, 2)
        full = full_spectrum(g).values
        np.testing.assert_allclose(spectrum(g, 4).values, full[:4],
                                   rtol=0, atol=1e-13 * abs(full[0]))

    @given(graphs(), st.data())
    def test_dense_path_matches_oracle_in_any_call_order(self, g, data):
        # every graph here is below the cut-off, so this is LAPACK's top-c
        c = data.draw(st.integers(1, g.n), label="c")
        first = data.draw(st.sampled_from(["none", "full_spectrum", "eigenpairs"]),
                          label="first")
        expect = dense_eigs(g)[:c]
        fresh = spectrum(Graph(g.n, g.edges), c).values
        np.testing.assert_allclose(fresh, expect, rtol=0,
                                   atol=1e-10 * max(1.0, abs(expect[0])))
        if first == "full_spectrum":
            full_spectrum(g)
        elif first == "eigenpairs":
            eigenpairs(g, data.draw(st.integers(1, g.n), label="k"))
        assert spectrum(g, c).values.tobytes() == fresh.tobytes()

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
        # n = 60 and k = n take the dense branch, n = DENSE_EIG + 1 with
        # k <= 3 the ARPACK one
        for n in (60, DENSE_EIG + 1):
            g = SPECIAL[name](n)
            expect = dense_eigs(g)
            a = g.adjacency()
            for k in (1, 2, 3, n):
                w, u = eigenpairs(g, k)
                assert w.shape == (k,) and u.shape == (n, k)
                np.testing.assert_allclose(w, expect[:k], rtol=0, atol=1e-8)
                np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0,
                                           atol=1e-10)
                assert np.max(np.abs(a @ u - u * w)) < 1e-8, f"n={n} k={k}"

    @pytest.mark.parametrize("n", [DENSE_EIG + 1, 1000, 2000])
    def test_rpsbm_draws_match_dense(self, n):
        model = RpsbmModel(10 / np.sqrt(n),
                           UniformProductLaw([0.85, 0.575], [0.1, 0.05]),
                           0.05, np.array([0.5, 0.5]))
        for seed in range(3):
            g = sample_rpsbm(model, n, seed, 0)
            np.testing.assert_allclose(spectrum(g, 2).values, dense_eigs(g)[:2],
                                       rtol=1e-10, atol=0)

    @settings(max_examples=20)
    @given(lopsided_graphs())
    def test_lopsided_graphs_match_dense(self, g):
        # the all-ones part of ARPACK's start weighs each component by its
        # size and a hub's leaves more than the hub
        expect = dense_eigs(g)
        for c in (1, 2, 3, 4):
            np.testing.assert_allclose(spectrum(g, c).values, expect[:c],
                                       rtol=0, atol=1e-8, err_msg=f"c={c}")

    def test_permutation_invariance(self):
        g = random_graph(50, 0.2, 4)
        perm = np.random.default_rng(5).permutation(50)
        np.testing.assert_allclose(spectrum(Graph(g.n, perm[g.edges]), 5).values,
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

    def test_dense_solve_holds_one_adjacency(self):
        # LAPACK overwrites a Fortran-order adjacency in place: a C-order
        # one would be copied first, a second n x n array
        n = 240
        g = random_graph(n, 0.2, 8)
        tracemalloc.start()
        try:
            values = spectrum(g, 3).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        copied = scipy.linalg.eigh(g.adjacency(), eigvals_only=True,
                                   subset_by_index=[n - 3, n - 1])
        np.testing.assert_array_equal(values, copied[::-1])


def eigensolver_calls(monkeypatch) -> list[tuple[str, dict]]:
    """Calls to scipy.linalg.eigh (name, keyword arguments) and to the
    numpy.linalg eigensolvers (name only) made from here on."""
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, kwargs))
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "eigh", spy("scipy.linalg.eigh",
                                                  scipy.linalg.eigh))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(f"numpy.linalg.{name}",
                                                 getattr(np.linalg, name)))
    return calls


def operator_applications(monkeypatch) -> list[int]:
    """One count per adjacency operator that ``spectral._lanczos`` builds
    from here on: the number of times ARPACK applied it."""
    counts = []
    build = spectral._adjacency_operator

    def counted(g):
        op = build(g)
        counts.append(0)
        slot = len(counts) - 1

        def matvec(x):
            counts[slot] += 1
            return op.matvec(x)
        return scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec,
                                                  dtype=float)

    monkeypatch.setattr(spectral, "_adjacency_operator", counted)
    return counts


class TestLanczosStart:
    """ARPACK starts near the Perron vector of a near-regular draw, so a
    top-c solve takes one Lanczos run of eigsh's default ncv and no
    implicit restart."""

    def test_critical_n_draw_needs_no_restart(self, monkeypatch):
        # a c = 1 critical-n draw: 31 applications from a Gaussian start
        n = 500
        params = SbmParams(omega=2 / np.sqrt(n), s=[1.0], p=[0.8], q=0.0)
        counts = operator_applications(monkeypatch)
        for k in range(3):
            g = sample_sbm(params, n, 0, k)
            value = spectrum(g, 1).values
            np.testing.assert_allclose(value, dense_eigs(g)[:1], rtol=1e-10,
                                       atol=0)
        assert len(counts) == 3 and max(counts) <= 22, counts

    def test_recoverability_draw_stays_at_the_floor(self, monkeypatch):
        n = 2000
        model = RpsbmModel(10 / np.sqrt(n),
                           UniformProductLaw([0.85, 0.575], [0.1, 0.05]),
                           0.05, np.array([0.5, 0.5]))
        g = sample_rpsbm(model, n, 0, 0)
        counts = operator_applications(monkeypatch)
        spectrum(g, 2)
        assert len(counts) == 1 and counts[0] <= 21, counts

    def test_start_is_built_once_per_size(self):
        v0 = spectral._start(DENSE_EIG + 1)
        assert spectral._start(DENSE_EIG + 1) is v0
        assert not v0.flags.writeable


class TestSpectrumMemo:
    """No spectrum is kept on a Graph: every call runs its own top-k solve,
    so what a call returns cannot depend on the calls before it."""

    @pytest.mark.parametrize("c", [1, 2, 5, 60])
    def test_one_top_c_lapack_call(self, monkeypatch, c):
        g = random_graph(60, 0.2, 11)
        calls = eigensolver_calls(monkeypatch)
        spectrum(g, c)
        assert [name for name, _ in calls] == ["scipy.linalg.eigh"]
        assert list(calls[0][1]["subset_by_index"]) == [60 - c, 59]
        assert calls[0][1]["eigvals_only"]

    @pytest.mark.parametrize("n", [60, DENSE_EIG + 1])
    def test_graph_holds_only_its_fields(self, n):
        g = random_graph(n, 0.1, 14)
        spectrum(g, 2)
        full_spectrum(g)
        eigenpairs(g, 2)
        eigenpairs(g, g.n)
        assert set(vars(g)) == {"n", "edges"}

    @pytest.mark.parametrize("n, omega, s", [
        (120, 0.3, [0.5, 0.5]), (DENSE_EIG + 1, 0.1, [1 / 3, 1 / 3, 1 / 3])])
    def test_geometry_unchanged_by_prior_spectrum(self, n, omega, s):
        # detect_geometry reads the planted count on every draw, and a stored
        # spectrum leaves what it reads unchanged
        params = SbmParams(omega=omega, s=s, p=[0.9] * len(s), q=0.05)
        for k in range(10):
            edges = sample_sbm(params, n, 3, k).edges
            expect = detect_geometry(Graph(n, edges))
            assert len(expect) == len(s)
            g = Graph(n, edges)
            spectrum(g, 2)
            got = detect_geometry(g)
            assert len(got) == len(expect)
            np.testing.assert_array_equal(got, expect)


class TestDistance:
    def test_reflexive(self):
        a = spectrum(complete_graph(4), 2)
        assert dist_truncated(a, a) == 0.0

    def test_single_coordinate(self):
        a = spectrum(complete_graph(4), 2)   # [3, -1]
        b_vals = np.array([0.0, -1.0])
        from rpsbm import SpectralSignature
        b = SpectralSignature(b_vals, 2, 4)
        assert dist_truncated(a, b) == pytest.approx(3.0)

    def test_k3_vs_empty(self):
        a = spectrum(complete_graph(3), 3)
        b = spectrum(Graph(3, []), 3)
        expect = np.linalg.norm(dense_eigs(complete_graph(3)))
        assert expect == pytest.approx(np.sqrt(6.0), abs=1e-12)
        assert dist_truncated(a, b) == pytest.approx(expect)

    def test_mismatched_truncation(self):
        with pytest.raises(ValueError):
            dist_truncated(spectrum(complete_graph(4), 2),
                           spectrum(complete_graph(4), 3))

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
        assert density(complete_graph(4)) == 1.0
        assert density(Graph(5, [])) == 0.0
        assert density(path_graph(3)) == pytest.approx(2.0 / 3.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            density(Graph(1, []))


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
