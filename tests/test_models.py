"""Block-model parameterizations and graph sampling."""

import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpsbm import (
    BetaProductLaw,
    DiracLaw,
    Graph,
    RpsbmModel,
    SbmParams,
    UniformProductLaw,
    density,
    sample_corpus,
    sample_rpsbm,
    sample_sbm,
)
from rpsbm import models
from rpsbm import rng as rngmod
from rpsbm.models import (
    _block_cells,
    block_labels,
    draw_params,
    law_from_dict,
    law_to_dict,
    model_from_dict,
    model_to_dict,
)
from oracles import canonical_kernel_value, contract_edges, triangle_cells


def two_block(omega=1.0, p=(0.8, 0.6), q=0.1):
    return SbmParams(omega=omega, s=np.array([0.5, 0.5]), p=np.array(p), q=q)


class TestParams:
    def test_sizes_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SbmParams(omega=1.0, s=[0.5, 0.4], p=[0.5, 0.5], q=0.0)

    def test_probability_cap(self):
        with pytest.raises(ValueError):
            SbmParams(omega=0.9, s=[1.0], p=[1.2], q=0.0)
        # p > 1 is fine while omega*p <= 1
        SbmParams(omega=0.4, s=[1.0], p=[2.0], q=0.0)

    def test_nan_density_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SbmParams(omega=0.5, s=[1.0], p=[np.nan], q=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            SbmParams(omega=0.5, s=[1.0], p=[0.5], q=np.nan)

    def test_kernel_values(self):
        params = two_block()
        assert canonical_kernel_value(params, 0.1, 0.2) == 0.8
        assert canonical_kernel_value(params, 0.1, 0.7) == 0.1
        assert canonical_kernel_value(params, 0.9, 0.6) == 0.6

    def test_kernel_domain(self):
        with pytest.raises(ValueError):
            canonical_kernel_value(two_block(), 1.0, 0.5)


class TestSampleSbm:
    def test_sure_edges_give_complete_graph(self):
        params = SbmParams(omega=1.0, s=[0.5, 0.5], p=[1.0, 1.0], q=1.0)
        g = sample_sbm(params, 12, seed=0)
        assert g.m == 12 * 11 // 2

    def test_zero_density_gives_empty_graph(self):
        params = SbmParams(omega=1.0, s=[1.0], p=[0.0], q=0.0)
        assert sample_sbm(params, 12, seed=0).m == 0

    def test_empirical_density(self):
        n = 2000
        params = SbmParams(omega=0.5, s=[1.0], p=[0.5], q=0.0)
        g = sample_sbm(params, n, seed=11)
        pairs = n * (n - 1) / 2
        se = np.sqrt(0.25 * 0.75 / pairs)
        assert abs(density(g) - 0.25) < 3 * se

    def test_deterministic_given_seed(self):
        params = two_block(omega=0.3)
        a = sample_sbm(params, 100, seed=5, graph_index=2)
        b = sample_sbm(params, 100, seed=5, graph_index=2)
        np.testing.assert_array_equal(a.edges, b.edges)
        c = sample_sbm(params, 100, seed=5, graph_index=3)
        assert not np.array_equal(a.edges, c.edges)

    def test_scale_equivalence_same_edge_set(self):
        # (C*omega, p/C, q/C) reproduces the identical edge set, C in powers of 2
        base = two_block(omega=0.4, p=(0.8, 0.6), q=0.1)
        for c_scale in (0.5, 2.0):
            scaled = SbmParams(omega=0.4 * c_scale, s=base.s,
                               p=base.p / c_scale, q=base.q / c_scale)
            a = sample_sbm(base, 200, seed=6)
            b = sample_sbm(scaled, 200, seed=6)
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_block_structure_is_positional(self):
        # with q=0 all edges stay inside the two halves
        params = two_block(omega=1.0, p=(0.9, 0.9), q=0.0)
        g = sample_sbm(params, 100, seed=7)
        sides = (g.edges < 50).sum(axis=1)
        assert set(np.unique(sides)) <= {0, 2}

    def test_empty_block(self):
        # block 1 gets no node at n = 10; the other two come out complete
        params = SbmParams(omega=1.0, s=[0.55, 0.01, 0.44], p=[1.0, 1.0, 1.0],
                           q=0.0)
        labels = block_labels(params.s, 10)
        assert np.bincount(labels, minlength=3).tolist() == [6, 0, 4]
        g = sample_sbm(params, 10, seed=3)
        assert g.m == 6 * 5 // 2 + 4 * 3 // 2
        assert np.all(labels[g.edges[:, 0]] == labels[g.edges[:, 1]])

    def test_probability_at_tolerance_above_one_gives_complete_graph(self):
        # omega*p = 1 + 1e-12 passes validation and is drawn as 1
        params = SbmParams(omega=1.0, s=[0.5, 0.5], p=[1 + 1e-12, 1 + 1e-12],
                           q=1 + 1e-12)
        assert sample_sbm(params, 12, seed=0).m == 12 * 11 // 2

    def test_block_edge_counts_match_binomial_mean(self):
        n, reps = 50, 400
        params = SbmParams(omega=0.5, s=[0.5, 0.3, 0.2], p=[0.8, 0.6, 0.4],
                           q=0.2)
        labels = block_labels(params.s, n)
        sizes = np.bincount(labels, minlength=3)
        counts = np.zeros((reps, 3, 3))
        for k in range(reps):
            e = sample_sbm(params, n, seed=8, graph_index=k).edges
            a, b = labels[e[:, 0]], labels[e[:, 1]]
            np.add.at(counts[k], (np.minimum(a, b), np.maximum(a, b)), 1)
        for a in range(3):
            for b in range(a, 3):
                cells = (sizes[a] * (sizes[a] - 1) // 2 if a == b
                         else sizes[a] * sizes[b])
                prob = params.omega * (params.p[a] if a == b else params.q)
                se = np.sqrt(cells * prob * (1 - prob) / reps)
                assert abs(counts[:, a, b].mean() - cells * prob) < 4 * se, (a, b)

    def test_pair_frequencies_are_uniform(self):
        n, reps = 12, 2000
        params = SbmParams(omega=0.5, s=[0.5, 0.5], p=[0.8, 0.4], q=0.3)
        freq = np.zeros((n, n))
        for k in range(reps):
            e = sample_sbm(params, n, seed=9, graph_index=k).edges
            freq[e[:, 0], e[:, 1]] += 1
        freq /= reps
        labels = block_labels(params.s, n)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = labels[i], labels[j]
                prob = params.omega * (params.p[a] if a == b else params.q)
                se = np.sqrt(prob * (1 - prob) / reps)
                assert abs(freq[i, j] - prob) < 4.5 * se, (i, j)


#: Edge probabilities at the limits of the gap draw: none; so small that
#: numpy returns the int64 maximum as the gap; tiny; sure; and above 1
#: within SbmParams' tolerance, which the sampler draws as sure.
EDGE_PROBS = st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 1 + 1e-12])


@st.composite
def small_sbms(draw):
    """(params, n): one to four blocks with omega = 1, block sizes from
    weights that may leave a block without nodes."""
    c = draw(st.integers(1, 4), label="c")
    n = draw(st.integers(c, 30), label="n")
    weights = np.array(draw(st.lists(st.one_of(st.just(0.001), st.floats(0.01, 1.0)),
                                     min_size=c, max_size=c), label="weights"))
    prob = st.one_of(EDGE_PROBS, st.floats(0.0, 1.0))
    p = draw(st.lists(prob, min_size=c, max_size=c), label="p")
    return SbmParams(omega=1.0, s=weights / weights.sum(), p=p,
                     q=draw(prob, label="q")), n


def emitted_edges(params, n, seed):
    """The edge array sample_sbm hands to Graph, and the Graph it made."""
    with mock.patch.object(models, "Graph", wraps=Graph) as made:
        g = sample_sbm(params, n, seed)
    return made.call_args.args[1], g


class TestBlockSampler:
    @given(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 2000)),
           st.one_of(EDGE_PROBS.filter(lambda p: p <= 1), st.floats(0.0, 1.0)),
           st.integers(0, 2**32 - 1))
    def test_block_cells_strictly_increase_inside_the_block(self, cells, prob, seed):
        t = _block_cells(rngmod.pair_stream(seed, 0), cells, prob)
        assert t.dtype == np.int64
        assert np.all(np.diff(t) > 0)
        assert np.all((0 <= t) & (t < cells))
        if prob == 0.0:
            assert t.size == 0
        if prob == 1.0:
            np.testing.assert_array_equal(t, np.arange(cells))

    @given(st.integers(0, 300), st.floats(0.0, 1.0), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_block_cells_independent_of_chunking(self, cells, prob, chunk, seed):
        # numpy draws the gaps one after another, so any chunking yields the
        # same cells; a chunk of 1 to 3 gaps exercises every top-up
        expect = _block_cells(rngmod.pair_stream(seed, 0), cells, prob)
        with mock.patch.object(models, "_gap_chunk", return_value=chunk):
            got = _block_cells(rngmod.pair_stream(seed, 0), cells, prob)
        np.testing.assert_array_equal(got, expect)

    @given(small_sbms(), st.integers(0, 2**32 - 1))
    def test_keys_strictly_increase_inside_their_block(self, case, seed):
        params, n = case
        e, g = emitted_edges(params, n, seed)
        assert e.dtype == np.int64 and e.shape == (g.m, 2)
        key = e[:, 0] * n + e[:, 1]
        assert np.all(e[:, 0] < e[:, 1]) and np.all(np.diff(key) > 0)
        np.testing.assert_array_equal(g.edges, e)
        labels = block_labels(params.s, n)
        sizes = np.bincount(labels, minlength=params.c)
        prob = np.full((params.c, params.c), params.omega * params.q)
        np.fill_diagonal(prob, params.omega * params.p)
        counts = np.zeros((params.c, params.c), dtype=int)
        np.add.at(counts, (labels[e[:, 0]], labels[e[:, 1]]), 1)
        for a in range(params.c):
            for b in range(a, params.c):
                cells = (sizes[a] * (sizes[a] - 1) // 2 if a == b
                         else sizes[a] * sizes[b])
                assert counts[a, b] <= cells
                if prob[a, b] == 0:
                    assert counts[a, b] == 0
                if prob[a, b] >= 1:
                    assert counts[a, b] == cells

    @pytest.mark.parametrize("s, p, q", [
        ([1.0], [0.3], 0.0),
        ([0.25, 0.75], [0.0, 0.0], 0.3),
        ([0.55, 0.01, 0.44], [0.9, 0.5, 0.2], 0.1),
        ([0.2, 0.3, 0.1, 0.4], [1.0, 0.05, 0.6, 0.3], 0.02)])
    def test_edges_follow_the_stream_contract(self, s, p, q):
        params = SbmParams(omega=1.0, s=s, p=p, q=q)
        for k in range(3):
            np.testing.assert_array_equal(sample_sbm(params, 40, 5, k).edges,
                                          contract_edges(params, 40, 5, k))

    def test_draw_memory_is_a_small_multiple_of_its_edges(self):
        n = 6000
        params = SbmParams(omega=10 / np.sqrt(n), s=[0.5, 0.5], p=[0.85, 0.575],
                           q=0.05 * 0.575)
        tracemalloc.start()
        try:
            g = sample_sbm(params, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.edges.nbytes

    def test_graph_keeps_the_drawn_edges(self):
        drawn = []

        def graph(n, edges):
            drawn.append(edges)
            return Graph(n, edges)

        params = SbmParams(omega=0.5, s=[0.5, 0.5], p=[0.9, 0.4], q=0.1)
        with mock.patch.object(models, "Graph", graph):
            g = sample_sbm(params, 60, seed=1)
        assert g.m > 0 and g.edges is drawn[0]
        assert not g.edges.flags.writeable


class TestTriangleCells:
    def test_enumerates_pairs_in_order(self):
        for k in range(61):
            i, j = triangle_cells(np.arange(k * (k - 1) // 2))
            expect = [(a, b) for b in range(k) for a in range(b)]
            assert list(zip(i.tolist(), j.tolist())) == expect, k

    @pytest.mark.parametrize("k", [10**5, 10**8, 10**9, 3 * 10**9])
    def test_round_trip_in_large_blocks(self, k):
        cells = k * (k - 1) // 2
        rows = np.array([1, 2, 3, k // 2, k - 2, k - 1], dtype=np.int64)
        first = rows * (rows - 1) // 2
        t = np.concatenate([first - 1, first, first + 1, [0, cells - 1],
                            np.random.default_rng(k).integers(0, cells, 1000)])
        t = t[(t >= 0) & (t < cells)]
        i, j = triangle_cells(t)
        np.testing.assert_array_equal(j * (j - 1) // 2 + i, t)
        assert np.all((0 <= i) & (i < j) & (j < k))


class TestLaws:
    def test_uniform_support(self):
        law = UniformProductLaw([0.85], [0.1])
        gen = np.random.default_rng(1)
        draws = np.array([law.draw(gen)[0] for _ in range(500)])
        assert draws.min() >= 0.8 and draws.max() <= 0.9

    def test_beta_degenerate_equals_dirac(self):
        law = BetaProductLaw(a=[0.4], b=[0.4], alpha=[2.0], beta=[2.0])
        gen = np.random.default_rng(2)
        assert law.draw(gen)[0] == 0.4

    def test_law_moments_match_sampling(self):
        laws = [
            UniformProductLaw([0.5, 0.7], [0.2, 0.1]),
            BetaProductLaw([0.1, 0.2], [0.9, 0.8], [2.0, 3.0], [3.0, 2.0]),
        ]
        gen = np.random.default_rng(4)
        for law in laws:
            draws = np.array([law.draw(gen) for _ in range(20000)])
            # per coordinate: assert_allclose takes a scalar atol
            atol = 4 * np.sqrt(law.var() / 20000) + 1e-4
            for mean_i, expect_i, atol_i in zip(draws.mean(axis=0), law.mean(),
                                                atol):
                np.testing.assert_allclose(mean_i, expect_i, atol=atol_i)
            np.testing.assert_allclose(draws.var(axis=0, ddof=1), law.var(),
                                       rtol=0.08)

    def test_dirac_moments(self):
        law = DiracLaw([0.5, 0.25])
        mean = law.mean()
        np.testing.assert_array_equal(mean, [0.5, 0.25])
        np.testing.assert_array_equal(law.var(), [0.0, 0.0])
        mean[0] = 9.0
        np.testing.assert_array_equal(law.center, [0.5, 0.25])

    def test_json_round_trip(self):
        cases = [
            (DiracLaw([0.5, 0.25]), {"kind": "dirac", "center": [0.5, 0.25]}),
            (UniformProductLaw([0.5], [0.1]),
             {"kind": "uniform", "center": [0.5], "width": [0.1]}),
            (BetaProductLaw([0.1], [0.9], [2.0], [3.0]),
             {"kind": "beta", "a": [0.1], "b": [0.9], "alpha": [2.0],
              "beta": [3.0]}),
        ]
        for law, as_dict in cases:
            d = law_to_dict(law)
            assert d == as_dict
            assert list(d) == list(as_dict)
            back = law_from_dict(json.loads(json.dumps(d)))
            assert type(back) is type(law)
            for name in as_dict.keys() - {"kind"}:
                np.testing.assert_array_equal(getattr(back, name),
                                              getattr(law, name))
                assert getattr(back, name).dtype == float
            gen_a, gen_b = np.random.default_rng(6), np.random.default_rng(6)
            np.testing.assert_array_equal(back.draw(gen_a), law.draw(gen_b))


class TestSampleRpsbm:
    def test_dirac_matches_sbm_exactly(self):
        p_star = np.array([0.8, 0.6])
        model = RpsbmModel(omega=0.3, law=DiracLaw(p_star), epsilon=0.0,
                           s=np.array([0.5, 0.5]))
        params = SbmParams(omega=0.3, s=[0.5, 0.5], p=p_star, q=0.0)
        for seed in (0, 1):
            a = sample_rpsbm(model, 150, seed=seed)
            b = sample_sbm(params, 150, seed=seed)
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_uniform_draw_support(self):
        model = RpsbmModel(omega=0.5, law=UniformProductLaw([0.85], [0.1]),
                           epsilon=0.0, s=np.array([1.0]))
        for k in range(50):
            params = draw_params(model, seed=3, graph_index=k)
            assert 0.8 <= params.p[0] <= 0.9

    def test_q_follows_minimum_draw(self):
        model = RpsbmModel(omega=0.2, law=DiracLaw([0.8, 0.5]), epsilon=0.1,
                           s=np.array([0.5, 0.5]))
        params = draw_params(model, seed=0)
        assert params.q == pytest.approx(0.1 * 0.5)

    def test_clamp_to_valid_probability_range(self):
        # support reaches above 1/omega; draws must clamp with a warning
        model = RpsbmModel(omega=0.5, law=DiracLaw([2.5]), epsilon=0.0,
                           s=np.array([1.0]))
        with pytest.warns(UserWarning, match="clamped"):
            params = draw_params(model, seed=0)
        assert params.p[0] == pytest.approx(2.0)

    def test_empty_support_raises(self):
        model = RpsbmModel(omega=0.5, law=DiracLaw([0.0]), epsilon=0.0,
                           s=np.array([1.0]))
        with pytest.raises(ValueError):
            draw_params(model, seed=0)


# The checks of the model constructors, the laws and the sampler, each with
# its message (TestParams has the density and probability cases):
# (call, the start of the message).
MODEL_ERRORS = {
    "s_2d": (lambda: SbmParams(0.5, [[1.0]], [0.5], 0.0),
             "s must be one-dimensional"),
    "no_community": (lambda: SbmParams(0.5, [], [], 0.0),
                     "need at least one community"),
    "size_negative": (lambda: SbmParams(0.5, [1.5, -0.5], [0.5, 0.5], 0.0),
                      "community sizes must be positive and sum to 1"),
    "size_nan": (lambda: SbmParams(0.5, [np.nan, 0.5], [0.5, 0.5], 0.0),
                 "community sizes must be positive and sum to 1"),
    "omega_zero": (lambda: SbmParams(0.0, [1.0], [0.5], 0.0),
                   "omega must lie in (0, 1]"),
    "omega_nan": (lambda: SbmParams(np.nan, [1.0], [0.5], 0.0),
                  "omega must lie in (0, 1]"),
    "p_length": (lambda: SbmParams(0.5, [0.5, 0.5], [0.5], 0.0),
                 "s and p must have equal length"),
    "rpsbm_length": (lambda: RpsbmModel(0.5, DiracLaw([0.5]), 0.0, [0.5, 0.5]),
                     "geometry length must match the law dimension"),
    "rpsbm_omega_above_one": (lambda: RpsbmModel(1.5, DiracLaw([0.5]), 0.0, [1.0]),
                              "omega must lie in (0, 1]"),
    "rpsbm_epsilon_negative": (lambda: RpsbmModel(0.5, DiracLaw([0.5]), -0.1,
                                                  [1.0]),
                               "epsilon must be finite and non-negative"),
    "rpsbm_epsilon_nan": (lambda: RpsbmModel(0.5, DiracLaw([0.5]), np.nan, [1.0]),
                          "epsilon must be finite and non-negative"),
    # q = inf * min(p) is NaN when a density is 0
    "rpsbm_epsilon_inf": (lambda: RpsbmModel(0.5, DiracLaw([0.5]), np.inf, [1.0]),
                          "epsilon must be finite and non-negative"),
    "law_2d": (lambda: DiracLaw([[0.5]]), "center must be one-dimensional"),
    "law_not_finite": (lambda: DiracLaw([np.inf]), "dirac law center must be finite"),
    "uniform_lengths": (lambda: UniformProductLaw([0.5, 0.5], [0.1]),
                        "uniform law parameters ['center', 'width'] must share "
                        "one length"),
    "beta_lengths": (lambda: BetaProductLaw([0.1], [0.9], [2.0, 2.0], [3.0]),
                     "beta law parameters ['a', 'b', 'alpha', 'beta'] must "
                     "share one length"),
    "uniform_width_negative": (lambda: UniformProductLaw([0.5], [-0.1]),
                               "widths must be non-negative"),
    "beta_a_above_b": (lambda: BetaProductLaw([0.9], [0.1], [2.0], [3.0]),
                       "need a_i <= b_i"),
    "beta_shape_zero": (lambda: BetaProductLaw([0.1], [0.9], [0.0], [3.0]),
                        "shape parameters must be positive"),
    "graph_smaller_than_blocks": (lambda: sample_sbm(two_block(), 1, seed=0),
                                  "graph size smaller than community count"),
    "law_not_object": (lambda: law_from_dict([]), "law must be a JSON object"),
    "law_kind_gauss": (lambda: law_from_dict({"kind": "gauss", "mu": [0.5],
                                              "sd": [0.1]}),
                       "unknown law kind 'gauss'"),
}


@pytest.mark.parametrize("case", MODEL_ERRORS)
def test_model_rejects_its_input(case):
    call, message = MODEL_ERRORS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


class TestSampleCorpus:
    def test_sequence_is_a_uniform_mixture(self):
        components = [two_block(omega=0.3), two_block(omega=0.3, p=(0.5, 0.4))]
        graphs = sample_corpus(components, 60, 8, seed=2, start_index=3)
        choices = set()
        for k, g in enumerate(graphs, start=3):
            choice = int(rngmod.mix_stream(2, k).integers(2))
            choices.add(choice)
            np.testing.assert_array_equal(
                g.edges, sample_sbm(components[choice], 60, 2, k).edges)
        assert choices == {0, 1}


class TestModelSpecFiles:
    def test_round_trip_rpsbm(self, tmp_path):
        model = RpsbmModel(omega=0.3, law=UniformProductLaw([0.8, 0.6], [0.1, 0.05]),
                           epsilon=0.05, s=np.array([0.5, 0.5]))
        d = model_to_dict(model)
        assert d["format"] == 1
        back = model_from_dict(d)
        assert isinstance(back, RpsbmModel)
        np.testing.assert_allclose(back.s, model.s)
        assert back.law.kind == "uniform"

    def test_round_trip_fixed_sbm(self):
        params = two_block(omega=0.4)
        back = model_from_dict(model_to_dict(params))
        assert isinstance(back, SbmParams)
        assert back.q == params.q

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": 2, "omega": 0.5, "s": [1.0],
                             "p": [0.5], "q": 0.0})


# JSON values of every type, with integers about the int64 bound and past the
# float range; the lists hold integers only, so all of them read as lists of
# numbers
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53),
    st.sampled_from([2**62, -2**63, 2**63, 1e20, 2**1024, -10**400]), st.floats(),
    st.text(max_size=2), st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 9), max_size=1))


def fits(kind, value) -> bool:
    if kind in (str, dict, list):
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    finite = abs(value) < 2**1024 if isinstance(value, int) else math.isfinite(value)
    return finite and (kind is float or value == int(value) and abs(value) < 2**63)


class TestRead:
    @given(st.sampled_from([int, float, str, list, dict]), JSON_VALUES)
    def test_reads_a_value_iff_it_fits_its_kind(self, kind, value):
        if not fits(kind, value):
            with pytest.raises(ValueError, match=r"^spec 'k' must be "):
                models._read("spec", {"k": value}, k=kind)
            return
        got = models._read("spec", {"k": value}, k=(kind, None))["k"]
        if kind is list:
            assert got.dtype == float
            np.testing.assert_array_equal(got, value)
        else:
            assert type(got) is kind and got == value
