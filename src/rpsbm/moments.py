"""Corpus spectral moments and variance-regime diagnostics.

The arithmetic mean of the top-c eigenvalues stands in for the spectrum of
the sample Frechet mean graph (the two agree for large n), which makes the
sample total Frechet variance equal to trace of the eigenvalue covariance --
an exact identity under the proxy mean, tested as such.

``fork_map`` is the package's one way to run work in other processes: it
forks them itself, streams their items to them and reads each one's
results from a pipe.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import traceback
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .models import check_block_sizes
from .spectral import Graph, density, spectrum

SMALL = "small"
MEDIUM = "medium"
LARGE = "large"

#: "<<" threshold: index i is large-variance when its inherent variance is
#: below this fraction of Sigma_ii.
LARGE_REGIME_RATIO = 0.1


@dataclass(frozen=True)
class SampleMoments:
    """Per-graph spectral table of a corpus: everything a fit reads of it.

    Row k of ``spectra`` (N x c) holds graph k's top-c eigenvalues and
    ``densities[k]`` its edge density; every graph has ``n`` nodes.
    ``mean_spectrum`` and ``cov`` are the moments the parametric fit matches.
    N, c and ``mean_density`` are read off the table, so they cannot disagree
    with it.
    """

    spectra: np.ndarray
    densities: np.ndarray
    n: int
    mean_spectrum: np.ndarray
    cov: np.ndarray

    @property
    def N(self) -> int:
        return self.spectra.shape[0]

    @property
    def c(self) -> int:
        return self.spectra.shape[1]

    @property
    def mean_density(self) -> float:
        return float(self.densities.mean())


@dataclass(frozen=True)
class RegimeReport:
    """Per-index variance-regime classification.

    diagnostic_i = Sigma_ii - inherent_variance_i; negative means the corpus
    is less variable than a single SBM allows (no feasible J).
    """

    regimes: tuple[str, ...]
    diagnostic: np.ndarray
    ratio: np.ndarray


def _row(g: Graph, c: int):
    """Graph g's row of the table: (n, top-c eigenvalues, density).  A c
    outside [1, n] raises ``spectrum``'s ``ValueError``."""
    return g.n, spectrum(g, c).values, density(g)


_in_worker = False  # set in a fork_map worker, whose own fork_maps run inline


class _WorkerTraceback(Exception):
    """A worker's formatted traceback: the cause of the error it raised."""


def _call(fn, x):
    """``fn(x)``, or the exception it raised and its formatted traceback,
    with the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            done = fn(x), None
        except Exception as exc:  # raised in the parent, when collected
            done = None, (exc, "".join(traceback.format_exception(exc)))
    return *done, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _collect(done, registry: dict):
    """Issue a call's warnings again here, then return its result or raise
    its exception, with the worker's traceback as its cause."""
    result, error, caught = done
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno,
                               registry=registry)
    if error is not None:
        raise error[0] from _WorkerTraceback(error[1])
    return result


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 0 where the CPU set
    cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0


#: Thread-count setters of the OpenBLAS builds that numpy
#: (``libscipy_openblas64_``) and scipy (``libscipy_openblas``) load.
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads")
#: OpenBLAS's own fork handler, which stops its thread pool.  A setter called
#: after a fork starts the pool again, and its idle threads spin for about
#: 0.1 s after each start: this takes them off the worker's CPUs.
BLAS_POOL_SHUTDOWN = "blas_thread_shutdown_"


@functools.cache
def _one_blas_thread() -> tuple:
    """Calls that set every OpenBLAS library this process has mapped (read
    from /proc/self/maps on the first call) to one thread: each library's
    ``BLAS_THREAD_SETTERS`` with 1, then its ``BLAS_POOL_SHUTDOWN``.  ``()``
    where the maps cannot be read or no library exports a setter."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return ()
    paths = {f[5].rstrip() for f in fields if len(f) == 6 and "openblas" in f[5]}
    calls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setters = [functools.partial(getattr(lib, name), 1)
                   for name in BLAS_THREAD_SETTERS if hasattr(lib, name)]
        if setters and hasattr(lib, BLAS_POOL_SHUTDOWN):
            setters.append(getattr(lib, BLAS_POOL_SHUTDOWN))
        calls += setters
    return tuple(calls)


def fork_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` forked processes or
    in this one.

    ``items`` is streamed: item i goes to worker i % workers, which is
    forked when its first item arrives and reads its items from a pipe as
    this process makes them, so a generator's work here overlaps the
    workers'.  Each worker returns its results once its pipe is closed at
    the end of ``items``.  Workers inherit ``fn`` by ``os.fork`` (spawn or
    forkserver would re-import the package, about 0.45 s, and could not
    inherit a closure); items are pickled.  A worker sets every OpenBLAS
    library it finds to one thread, and stops its thread pool, before it
    runs anything, so that workers and this process do not oversubscribe
    the CPUs; it pickles its results to a pipe and leaves through
    ``os._exit``.  The workers' warnings, and the first error with the
    worker's traceback as its cause, come here in item order, once
    ``items`` has ended; a worker that ends without results raises
    ``ChildProcessError`` naming it and its exit status or signal, when it
    is joined or as soon as it cannot be piped an item.  Any error, raised
    by ``items``, by a worker or here, kills and reaps every worker.

    With fewer than one worker, in a worker and without ``os.fork``, ``fn``
    runs here once ``items`` has been read to its end, so that the items'
    own work and warnings, and then the calls' warnings and first error,
    come in the same order as forked.  On Python >= 3.12, forking while
    BLAS threads run issues a ``DeprecationWarning``.
    """
    if workers < 1 or _in_worker or not hasattr(os, "fork"):
        return [fn(x) for x in list(items)]
    blas_calls = _one_blas_thread()
    # worker number -> its pid, the read end of its result pipe and the
    # write end of its item pipe
    running = {}

    def start() -> tuple:
        """Fork a worker that runs ``_call`` of ``fn`` on each item piped to
        it, and pipes the results back at the end of its items."""
        fds = os.pipe()
        try:
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        task_read, task_write, read, write = fds
        if pid == 0:  # leaves through os._exit: no caller cleanup or atexit
            global _in_worker
            _in_worker = True
            for call in blas_calls:
                call()
            try:
                # the other workers' item pipes must see their end when this
                # process closes them, not when this worker exits
                for _, results, tasks in running.values():
                    results.close()
                    tasks.close()
                os.close(task_write)
                os.close(read)
                with open(task_read, "rb") as tasks, open(write, "wb") as out:
                    done = []
                    with contextlib.suppress(EOFError):  # the end of the items
                        while True:
                            done.append(_call(fn, pickle.load(tasks)))
                    out.write(pickle.dumps(done))
            except BaseException:  # such as a result that cannot be pickled
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(task_read)
        os.close(write)
        return pid, open(read, "rb"), open(task_write, "wb")

    def join(w: int) -> list:
        """What worker number ``w`` wrote, once it has exited."""
        pid, results, tasks = running[w]
        with contextlib.suppress(BrokenPipeError):
            tasks.close()
        with results:
            done = results.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del running[w]
        if code:
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with status {code}")
            raise ChildProcessError(f"fork pool worker {w} (pid {pid}) "
                                    f"{how} without returning its results")
        return pickle.loads(done)

    try:
        for i, x in enumerate(items):
            w = i % workers
            if i < workers:
                running[w] = start()
            tasks = running[w][2]
            try:
                pickle.dump(x, tasks)
                tasks.flush()
            except BrokenPipeError:  # the worker has ended: its status says how
                join(w)
                raise
        for _, _, tasks in running.values():  # the end of every worker's items
            tasks.close()
        shares = [join(w) for w in range(len(running))]
    finally:
        for pid, results, tasks in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            results.close()
            with contextlib.suppress(BrokenPipeError):  # an item left unsent
                tasks.close()
    k = len(shares)
    registry = {}  # a repeated warning shows once, as inline
    return [_collect(shares[i % k][i // k], registry)
            for i in range(sum(map(len, shares)))]


def _rows(corpus: Sequence[Graph], c: int) -> list:
    """``_row`` of every graph, in graph order.

    ``fork_map`` maps the graph indices over one worker per usable CPU, at
    most one per graph: a worker reads item k itself, so a lazy corpus draws
    or loads graph k there, and only rows come back.  Fewer than two workers
    run inline.
    """
    workers = min(usable_cpus(), len(corpus))
    return fork_map(lambda k: _row(corpus[k], c), range(len(corpus)),
                    workers if workers > 1 else 0)


def _table(rows: list, c: int) -> SampleMoments:
    """The table of graphs' rows (``_row`` at c), in corpus order, with the
    mean spectrum and its unbiased covariance, zero for a single graph.  No
    rows and mixed graph sizes raise ``ValueError``."""
    if not rows:
        raise ValueError("empty corpus")
    sizes = {row[0] for row in rows}
    if len(sizes) != 1:
        raise ValueError(f"mixed graph sizes in corpus: {sorted(sizes)}")
    (n,) = sizes
    spectra = np.vstack([values for _, values, _ in rows])
    densities = np.array([rho for _, _, rho in rows])
    N = len(spectra)
    mean_spec = spectra.mean(axis=0)
    if N == 1:
        cov = np.zeros((c, c))
    else:
        diff = spectra - mean_spec
        cov = diff.T @ diff / (N - 1)
    return SampleMoments(spectra=spectra, densities=densities, n=n,
                         mean_spectrum=mean_spec, cov=cov)


def compute_moments(corpus: Sequence[Graph], c: int) -> SampleMoments:
    """Per-graph spectra and densities of a corpus, with the mean spectrum
    and its unbiased covariance.

    ``corpus`` is a sized, indexable corpus, such as a list or a
    ``models.LazyCorpus`` (``iter_corpus``, the CLI's corpus directories);
    its graphs are reduced to their rows on every usable CPU (see ``_rows``),
    and the table is the same whatever the number of workers.  Only each
    graph's row is kept, so with a lazy corpus no more graphs are alive than
    are being reduced, one per worker.  An empty corpus, mixed graph sizes and
    a c outside [1, n] raise ``ValueError``; the last is raised by the first
    graph, in corpus order, that c does not fit, before the sizes are
    compared.
    """
    return _table(_rows(corpus, c), c)


def inherent_variance(lam: np.ndarray, n: int, s: np.ndarray) -> np.ndarray:
    """SBM-inherent eigenvalue variance 2 lambda_i / (n s_i): the spread of
    lambda_i over draws of one SBM, which no parameter law J can undercut."""
    return 2.0 * lam / (n * s)


def block_sizes(s, c: int) -> np.ndarray:
    """The geometry vector ``s`` as a float array of length c, checked by
    ``models.check_block_sizes``; equal blocks 1/c when ``s`` is None."""
    if s is None:
        return np.full(c, 1.0 / c)
    s = np.asarray(s, dtype=float)
    if s.shape != (c,):
        raise ValueError("geometry length must equal truncation order")
    return check_block_sizes(s)


def classify_regimes(m: SampleMoments, s=None) -> RegimeReport:
    """Small/medium/large variance regime per eigenvalue index.

    Index i is small when Sigma_ii - inherent_variance_i, the excess the fits
    turn into a J-variance, is negative; large when the inherent variance is
    below ``LARGE_REGIME_RATIO`` of Sigma_ii; medium otherwise.  ``s`` is the
    geometry vector, equal blocks by default.
    """
    s = block_sizes(s, m.c)
    inherent = inherent_variance(m.mean_spectrum, m.n, s)
    diagnostic = np.diag(m.cov) - inherent
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.diag(m.cov) > 0, inherent / np.diag(m.cov), np.inf)
    regimes = tuple(SMALL if d < 0 else LARGE if r < LARGE_REGIME_RATIO else MEDIUM
                    for d, r in zip(diagnostic, ratio))
    return RegimeReport(regimes=regimes, diagnostic=diagnostic, ratio=ratio)


def moments_report(m: SampleMoments) -> dict:
    """JSON-ready moments report with regime classification at equal
    block sizes; ``regime_ratio`` is ``RegimeReport.ratio``, with null where
    it is infinite (a zero variance), so the report stays strict JSON.  A
    single-graph corpus warns that its covariance is degenerate."""
    if m.N == 1:
        warnings.warn("single-graph corpus: covariance degenerate (zeros)")
    reg = classify_regimes(m)
    return {
        "format": 1,
        "lambda_bar": m.mean_spectrum.tolist(),
        "sigma_hat": m.cov.tolist(),
        "rho_bar": m.mean_density,
        "N": m.N,
        "n": m.n,
        "c": m.c,
        "regimes": list(reg.regimes),
        "regime_diagnostic": reg.diagnostic.tolist(),
        "regime_ratio": [r if np.isfinite(r) else None for r in reg.ratio.tolist()],
    }
