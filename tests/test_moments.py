"""Corpus moments, the total-variance identity, and regime classification."""

import contextlib
import ctypes
import json
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from rpsbm import (
    DiracLaw,
    Graph,
    RpsbmModel,
    SampleMoments,
    classify_regimes,
    compute_moments,
    density,
    fit_nonparametric,
    iter_corpus,
    sample_corpus,
    sample_sbm,
    SbmParams,
    spectrum,
    UniformProductLaw,
)
from rpsbm import replicate
from rpsbm.models import LazyCorpus
from rpsbm.moments import (
    BLAS_POOL_SHUTDOWN,
    BLAS_THREAD_SETTERS,
    LARGE,
    MEDIUM,
    SMALL,
    fork_map,
    moments_report,
)
from rpsbm.replicate import run_scenario
from oracles import complete_graph, frechet_total_variance, full_spectrum
from test_imports import run_fresh


def table_moments(lam, cov, rho, N, n):
    """Moments of N identical graphs with spectrum ``lam``, carrying the
    given covariance in place of the table's."""
    lam = np.asarray(lam, dtype=float)
    return SampleMoments(spectra=np.tile(lam, (N, 1)), densities=np.full(N, rho),
                         n=n, mean_spectrum=lam, cov=np.asarray(cov, dtype=float))


def random_corpus(gen, n, count, p=0.3):
    out = []
    for _ in range(count):
        params = SbmParams(omega=1.0, s=[1.0], p=[p], q=0.0)
        out.append(sample_sbm(params, n, seed=int(gen.integers(1 << 30))))
    return out


class TestComputeMoments:
    def test_identical_corpus(self):
        g = complete_graph(5)
        m = compute_moments([g] * 4, 3)
        np.testing.assert_allclose(m.cov, 0.0, atol=1e-12)
        np.testing.assert_allclose(m.mean_spectrum,
                                   full_spectrum(g).values[:3], atol=1e-12)

    def test_hand_arithmetic(self):
        # single edge on 4 nodes: lambda_1 = 1; K4: lambda_1 = 3
        a = Graph(4, [(0, 1)])
        b = complete_graph(4)
        m = compute_moments([a, b], 1)
        assert m.mean_spectrum[0] == pytest.approx(2.0)
        assert m.cov[0, 0] == pytest.approx(2.0)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            compute_moments([complete_graph(4), complete_graph(5)], 1)

    def test_single_graph_degenerate(self):
        # the table is silent; the report, which publishes the zero
        # covariance, warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = compute_moments([complete_graph(4)], 2)
        np.testing.assert_array_equal(m.cov, np.zeros((2, 2)))
        with pytest.warns(UserWarning, match="covariance degenerate"):
            moments_report(m)

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


@st.composite
def block_corpora(draw):
    """(corpus, c): one to four graphs on n = c * size nodes, c <= 3, each a
    disjoint union of c blocks of ``size`` nodes with at least one edge per
    block, under a random node labelling.  Each block's largest eigenvalue
    lies in [1, size - 1], so every top-c eigenvalue lies inside the equal
    block sizes n / c a fit checks, with no eigenvalue 0 that rounding could
    make negative."""
    c = draw(st.integers(1, 3))
    size = draw(st.integers(2, 5))
    n = c * size
    block = [(i, j) for i in range(size) for j in range(i + 1, size)]
    corpus = []
    for _ in range(draw(st.integers(1, 4))):
        edges = [(b * size + i, b * size + j) for b in range(c)
                 for i, j in draw(st.lists(st.sampled_from(block), min_size=1,
                                           unique=True))]
        perm = np.array(draw(st.permutations(range(n))))
        corpus.append(Graph(n, perm[np.array(edges)]))
    return corpus, c


class TestTableContract:
    @given(block_corpora())
    def test_table_rows_are_the_graphs(self, case):
        corpus, c = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # N = 1: zero scale
            m = compute_moments(corpus, c)
            mix = fit_nonparametric(m)
        for k, g in enumerate(corpus):
            assert m.spectra[k].tobytes() == spectrum(g, c).values.tobytes()
            assert m.densities[k] == density(g)
            assert mix.components[k].omega == m.densities[k]
        assert (m.N, m.c, m.n) == (len(corpus), c, corpus[0].n)
        assert m.mean_density == np.mean([density(g) for g in corpus])
        assert len(mix.components) == m.N


@st.composite
def stream_cases(draw):
    """(model, n, count, seed, start_index, c): a fixed SBM, an RPSBM with a
    uniform law, or a uniform mixture of one to three of them, on up to 30
    nodes and 1 to 3 blocks, drawn 1 to 4 times; c <= 3."""
    blocks = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=blocks,
                               max_size=blocks)), dtype=float)
    s = w / w.sum()
    omega = draw(st.floats(0.2, 1.0))
    vector = st.lists(st.floats(0.0, 1.0), min_size=blocks, max_size=blocks)
    fixed = st.builds(lambda p, q: SbmParams(omega, s, p, q), vector,
                      st.floats(0.0, 0.5))
    with_law = st.builds(
        lambda center, width, eps: RpsbmModel(
            omega, UniformProductLaw(0.2 + 0.7 * np.array(center),
                                     0.2 * np.array(width)), eps, s),
        vector, vector, st.floats(0.0, 0.5))
    component = st.one_of(fixed, with_law)
    model = draw(st.one_of(component, st.lists(component, min_size=1, max_size=3)))
    n = draw(st.integers(max(2, blocks), 30))
    return (model, n, draw(st.integers(1, 4)), draw(st.integers(0, 2**16)),
            draw(st.integers(0, 5)), draw(st.integers(1, min(3, n))))


def moments_or_error(corpus, c):
    """The table bytes of ``compute_moments(corpus, c)``, or its ValueError
    message."""
    try:
        m = compute_moments(corpus, c)
    except ValueError as exc:
        return str(exc)
    return [a.tobytes() for a in (m.spectra, m.densities, m.mean_spectrum, m.cov)]


class TestStream:
    @given(stream_cases())
    def test_stream_and_list_agree_bit_for_bit(self, case):
        model, n, count, seed, start, c = case
        streamed = moments_or_error(iter_corpus(model, n, count, seed, start), c)
        listed = moments_or_error(sample_corpus(model, n, count, seed, start), c)
        assert not isinstance(listed, str)
        assert streamed == listed

    @given(st.lists(st.integers(2, 6), max_size=5), st.integers(1, 7))
    @example([], 1)
    @example([4, 5], 1)
    @example([3, 3], 4)
    @example([3, 5, 3, 6], 4)
    def test_stream_raises_what_a_list_raises(self, sizes, c):
        corpus = [complete_graph(n) for n in sizes]
        assert (moments_or_error(LazyCorpus(complete_graph, sizes), c)
                == moments_or_error(corpus, c))

    def test_stream_holds_one_graph_at_a_time(self, monkeypatch):
        # tracemalloc sees only this process; pinned to one CPU, the graphs
        # are drawn here, so the bound cannot pass because pool workers drew
        # them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n = 1500
        model = RpsbmModel(omega=10 / np.sqrt(n),
                           law=UniformProductLaw([0.85, 0.575], [0.1, 0.05]),
                           epsilon=0.05, s=[0.5, 0.5])
        tracemalloc.start()
        try:
            compute_moments(iter_corpus(model, n, 8, 0), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(g.edges.nbytes for g in iter_corpus(model, n, 8, 0))
        assert peak < 3 * largest


def assert_no_child_process():
    """This process has no child process at all, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def on_cpus(count):
    """Context in which the package sees ``count`` usable CPUs: one keeps
    every row of ``compute_moments`` and critical-n's search in this
    process, two map the rows over a pool of two and fork the search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        yield


class TestPool:
    @given(stream_cases())
    def test_pool_and_inline_tables_agree_bit_for_bit(self, case):
        model, n, count, seed, start, c = case
        for corpus in (iter_corpus(model, n, count, seed, start),
                       sample_corpus(model, n, count, seed, start)):
            tables = []
            for cpus in (1, 2):
                with on_cpus(cpus):
                    tables.append(moments_or_error(corpus, c))
            assert not isinstance(tables[0], str)
            assert tables[0] == tables[1]

    def test_worker_error_keeps_type_and_message(self):
        empty = RpsbmModel(omega=0.5, law=DiracLaw([0.0]), epsilon=0.0, s=[1.0])
        tiny = [complete_graph(1)] * 3
        with on_cpus(2):
            for corpus, c, message in (
                    (iter_corpus(empty, 20, 4, 0), 1, "empty support after clamping"),
                    (tiny, 1, "density needs n >= 2"),
                    (iter_corpus(SbmParams(0.5, [1.0], [0.5], 0.0), 5, 3, 0), 6,
                     "truncation order must satisfy 1 <= c <= 5")):
                with pytest.raises(ValueError) as info:
                    compute_moments(corpus, c)
                assert type(info.value) is ValueError
                assert str(info.value) == message
                assert_no_child_process()

    def test_worker_warnings_reach_the_caller(self):
        clamped = RpsbmModel(omega=1.0, law=DiracLaw([1.5]), epsilon=0.0, s=[1.0])
        caught = []
        for cpus in (1, 2):
            with on_cpus(cpus), pytest.warns(UserWarning, match="clamped") as rec:
                compute_moments(iter_corpus(clamped, 20, 3, 0), 1)
            caught.append([str(w.message) for w in rec])
        assert caught[0] == caught[1]
        assert len(caught[1]) == 3

    def test_no_worker_outlives_the_call(self):
        model = SbmParams(0.5, [0.5, 0.5], [0.8, 0.6], 0.1)
        with on_cpus(2):
            compute_moments(iter_corpus(model, 40, 4, 0), 2)
        assert_no_child_process()

    def test_a_worker_runs_its_own_pools_inline(self):
        def inner_pid(_):
            return fork_map(lambda _: os.getpid(), range(2), 2), os.getpid()

        done = fork_map(inner_pid, range(2), 2)
        assert [pids for pids, _ in done] == [[pid, pid] for _, pid in done]
        assert len({pid for _, pid in done} | {os.getpid()}) == 3
        assert_no_child_process()

    def test_dead_and_abandoned_workers_leave_no_child(self):
        # in a fresh interpreter, so that a pool that waits forever for a
        # dead or endless worker fails on run_fresh's timeout instead of
        # hanging
        out = run_fresh(
            "import os, re, signal, time\n"
            "from rpsbm.moments import fork_map\n"
            "def die_at(k):\n"
            "    def fn(x):\n"
            "        if x == k:\n"
            "            os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer\n"
            "        return x\n"
            "    return fn\n"
            "calls = [lambda: fork_map(die_at(1), range(4), 2),\n"
            "         lambda: fork_map(die_at(0), range(4), 2),\n"
            "         lambda: fork_map(os._exit, [3], 1)]\n"
            "def abandon():\n"
            "    def items():\n"
            "        yield 300\n"
            "        time.sleep(0.1)\n"
            "        raise KeyError('items broke')  # the worker sleeps: killed\n"
            "    try:\n"
            "        fork_map(time.sleep, items(), 1)\n"
            "    except KeyError:\n"
            "        print('left')\n"
            "calls.append(abandon)\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except ChildProcessError as exc:\n"
            "        print(re.sub(r'pid \\d+', 'pid PID', str(exc)))\n"
            "    try:\n"
            "        print(os.waitpid(-1, os.WNOHANG))\n"
            "    except ChildProcessError:\n"
            "        print('no child')\n")
        tail = "without returning its results"
        assert out.splitlines() == [
            f"fork pool worker 1 (pid PID) was killed by SIGKILL {tail}", "no child",
            f"fork pool worker 0 (pid PID) was killed by SIGKILL {tail}", "no child",
            f"fork pool worker 0 (pid PID) exited with status 3 {tail}", "no child",
            "left", "no child"]


def blas_thread_controls():
    """(getter, setter) of the thread count of every OpenBLAS library this
    process has mapped that exports one of ``BLAS_THREAD_SETTERS``, and
    whether each of them exports ``BLAS_POOL_SHUTDOWN`` too."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        paths = set()
    controls, shutdown = [], True
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        found = [(getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name))
                 for name in BLAS_THREAD_SETTERS if hasattr(lib, name)]
        shutdown &= not found or hasattr(lib, BLAS_POOL_SHUTDOWN)
        controls += found
    return controls, shutdown


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestStreamingMap:
    def test_items_are_read_as_the_workers_run(self, tmp_path):
        # item 2 is made only once worker 0 has returned item 0, so a map
        # that read every item before it forked would time out here
        def mark(x):
            (tmp_path / str(x)).touch()
            return -x

        def items():
            yield from (0, 1)
            deadline = time.monotonic() + 60
            while not (tmp_path / "0").exists():
                assert time.monotonic() < deadline, "item 0 never came back"
                time.sleep(0.005)
            yield from (2, 3, 4)

        assert fork_map(mark, items(), 2) == [0, -1, -2, -3, -4]
        assert_no_child_process()

    def test_inline_and_forked_calls_keep_one_order(self):
        # the items' warnings come first, then each call's in item order, up
        # to and including the first error
        def items():
            for x in range(4):
                warnings.warn(f"item {x}")
                yield x

        def fn(x):
            warnings.warn(f"call {x}")
            if x == fail:
                raise KeyError(x)
            return -x

        for fail, calls in ((None, 4), (2, 3)):
            seen = []
            for workers in (0, 2):
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    try:
                        done = fork_map(fn, items(), workers)
                    except KeyError as exc:
                        done = exc.args
                seen.append((done, [str(w.message) for w in rec]))
                assert_no_child_process()
            assert seen[0] == seen[1]
            assert seen[1] == ([0, -1, -2, -3] if fail is None else (2,),
                               [f"item {x}" for x in range(4)]
                               + [f"call {x}" for x in range(calls)])

    def test_an_error_in_the_items_leaves_no_child(self):
        def items():
            yield from range(5)
            raise KeyError("stream broke")

        with pytest.raises(KeyError, match="stream broke"):
            fork_map(abs, items(), 2)
        assert_no_child_process()

    def test_a_worker_killed_mid_stream_fails_the_map(self):
        # the items never end (slowly, so a map that lists them first does
        # not fill the memory), so only a map that sees the dead worker
        # returns; in a fresh interpreter, so that one that does not fails
        # on run_fresh's timeout instead of hanging
        out = run_fresh(
            "import itertools, os, re, signal, time\n"
            "from rpsbm.moments import fork_map\n"
            "def fn(x):\n"
            "    if x == 5:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return x\n"
            "def items():\n"
            "    for x in itertools.count():\n"
            "        yield x\n"
            "        time.sleep(0.001)\n"
            "try:\n"
            "    fork_map(fn, items(), 2)\n"
            "except ChildProcessError as exc:\n"
            "    print(re.sub(r'pid \\d+', 'pid PID', str(exc)))\n"
            "try:\n"
            "    print(os.waitpid(-1, os.WNOHANG))\n"
            "except ChildProcessError:\n"
            "    print('no child')\n")
        assert out.splitlines() == [
            "fork pool worker 1 (pid PID) was killed by SIGKILL without "
            "returning its results", "no child"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_no_descriptor_outlives_a_map(self):
        def failing():
            yield 1
            raise KeyError("stream broke")

        before = open_descriptors()
        assert fork_map(abs, iter(range(-9, 0)), 2) == list(range(9, 0, -1))
        assert fork_map(abs, [-1], 2) == [1]
        assert fork_map(abs, [-2], 1) == [2]
        with pytest.raises(KeyError):
            fork_map(abs, failing(), 2)
        assert open_descriptors() == before
        assert_no_child_process()

    def test_a_worker_runs_one_blas_thread(self):
        controls, shutdown = blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library with a thread setter is loaded")

        def threads(_):
            # after a dense solve, which would start a BLAS thread pool
            scipy.linalg.eigh(np.eye(200) + 1.0)
            return [get() for get, _ in controls], len(os.listdir("/proc/self/task"))

        counts = [get() for get, _ in controls]
        try:
            for _, set_threads in controls:
                set_threads(2)
            done = fork_map(threads, range(3), 2)
            assert [blas for blas, _ in done] == [[1] * len(controls)] * 3
            if shutdown:  # and no idle pool thread beside the worker's own
                assert [tasks for _, tasks in done] == [1] * 3
            # this process keeps its own count
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, counts):
                set_threads(count)

# small enough for a test, large enough that the search crosses
CRITICAL = {"n": 200, "N_max": 200, "repetitions": 2, "supercritical": 30}


class TestBackgroundSearch:
    """critical-n's search runs in a forked worker beside the curves on two
    CPUs, and in this process on one; the caller cannot tell them apart."""

    def test_result_does_not_depend_on_the_cpu_count(self):
        results = []
        for cpus in (1, 2):
            with on_cpus(cpus):
                result = run_scenario("critical-n", 3, CRITICAL)
            assert_no_child_process()
            results.append(json.dumps(result, default=np.ndarray.tolist))
        assert results[0] == results[1]

    def test_search_error_and_warnings_reach_the_caller(self):
        # p = 1e-9 never crosses: every draw is empty and warns; every
        # warning is recorded, and both CPU counts must show the same ones.
        params = {"n": 60, "omega": 0.5, "p_values": [1e-9], "N_max": 6,
                  "repetitions": 1, "subcritical": 2, "supercritical": 3}
        caught = []
        for cpus in (1, 2):
            with on_cpus(cpus), warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                with pytest.raises(ValueError) as info:
                    run_scenario("critical-n", 0, params)
            assert type(info.value) is ValueError
            assert str(info.value) == "condition never violated up to N_max=6"
            # the worker's traceback is the cause of an error raised there
            assert (info.value.__cause__ is not None) == (cpus == 2)
            assert_no_child_process()
            caught.append([(w.category, str(w.message)) for w in rec])
        assert caught[0] == caught[1]
        empty = (UserWarning, "empty graph: p_hat set to 0")
        assert caught[1].count(empty) == 2 + 3 + 6

    def test_no_worker_outlives_a_failing_curve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("curve failed")

        monkeypatch.setattr(replicate, "run_er_mixture_pipeline", fail)
        with on_cpus(2), pytest.raises(RuntimeError, match="curve failed"):
            run_scenario("critical-n", 0, CRITICAL)
        assert_no_child_process()


class TestTotalVariance:
    def test_identical_corpus_is_zero(self):
        assert frechet_total_variance([complete_graph(5)] * 3, 2) == 0.0

    def test_hand_arithmetic(self):
        a = Graph(4, [(0, 1)])
        b = complete_graph(4)
        assert frechet_total_variance([a, b], 1) == pytest.approx(2.0)

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError):
            frechet_total_variance([complete_graph(4)], 1)

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
        return table_moments([133.9401, 91.1005],
                             [[25.3956, 0.0], [0.0, 5.5628]],
                             rho=0.115, N=50, n=1000)

    def test_large_regime_diagnostic(self):
        rep = classify_regimes(self.paper_moments(), np.array([0.5, 0.5]))
        assert rep.diagnostic[0] == pytest.approx(24.8599, abs=1e-4)
        assert rep.regimes == (LARGE, LARGE)

    def test_small_when_variance_vanishes(self):
        m = table_moments([10.0], [[0.0]], rho=0.1, N=5, n=100)
        rep = classify_regimes(m, np.array([1.0]))
        assert rep.regimes == (SMALL,)

    def test_boundary_is_medium(self):
        # diagnostic exactly zero => ratio 1 => medium
        lam = 10.0
        n, s = 100, 1.0
        m = table_moments([lam], [[2 * lam / (n * s)]], rho=0.1, N=5, n=n)
        rep = classify_regimes(m, np.array([s]))
        assert rep.diagnostic[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.regimes == (MEDIUM,)

    def test_report_payload(self):
        m = self.paper_moments()
        rep = moments_report(m)
        assert rep["format"] == 1
        assert rep["regimes"] == ["large", "large"]
        assert rep["regime_ratio"] == classify_regimes(m).ratio.tolist()
