"""Corpus spectral moments and variance-regime diagnostics.

The arithmetic mean of the top-c eigenvalues stands in for the spectrum of
the sample Frechet mean graph (the two agree for large n), which makes the
sample total Frechet variance equal to trace of the eigenvalue covariance --
an exact identity under the proxy mean, tested as such.

``ForkPool`` is the package's one way to run work in other processes: it
forks them itself and reads each one's results from a pipe.  The graphs of
``compute_moments`` (sampled corpora, the CLI's corpus directories and
``spectra``, and the contact windows of ``replicate.run_contacts``, which
the workers cut from the inherited records) and critical-n's sample-size
search (``replicate.run_critical_n``) go through it.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

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
    """Graph g's row of the table: (n, top-c eigenvalues, density), with
    neither reduction when c > n, which ``compute_moments`` reports."""
    if c > g.n:
        return g.n, None, None
    return g.n, spectrum(g, c).values, density(g)


_in_worker = False  # set in a ForkPool worker, whose own pools run inline


class _WorkerTraceback(Exception):
    """A worker's formatted traceback: the cause of the error it raised."""


def _call(fn, args: tuple):
    """``fn(*args)``, or the exception it raised and its formatted
    traceback, with the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            done = fn(*args), None
        except Exception as exc:  # raised in the parent, when collected
            done = None, (exc, "".join(traceback.format_exception(exc)))
    return *done, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _collect(done, registry: dict):
    """Issue a task's warnings again here, then return its result or raise
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


class ForkPool:
    """Calls of one function ``fn`` on up to ``workers`` forked processes,
    or in this process.

    ``map(items)`` returns ``[fn(x) for x in items]``; worker w of k =
    min(workers, len(items)) computes ``items[w::k]`` as this process waits.
    ``submit(*args)`` forks one worker for ``fn(*args)`` and returns a
    callable that waits for its result.  Workers inherit ``fn`` by
    ``os.fork`` (spawn or forkserver would re-import the package, about
    0.45 s, and could not inherit a closure), pickle their results to a pipe
    and leave through ``os._exit``.  Their warnings, and the first error
    with the worker's traceback as its cause, come here in item order; a
    worker that ends without results raises ``ChildProcessError`` naming it
    and its exit status or signal.  With fewer than one worker, in a worker
    and without ``os.fork``, ``map`` runs here at once and a submitted call
    when collected.  Leaving the ``with`` block kills and reaps every worker
    not yet collected.  On Python >= 3.12, forking while BLAS threads run
    issues a ``DeprecationWarning``.
    """

    def __init__(self, fn, workers: int):
        self._fn, self._running = fn, {}  # pid -> read end of its pipe
        self._workers = workers if hasattr(os, "fork") and not _in_worker else 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for pid, pipe in self._running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._running.clear()

    def _start(self, tasks: list) -> int:
        """Fork a worker that pipes ``_call`` of ``fn`` on each of ``tasks``."""
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:  # leaves through os._exit: no caller cleanup or atexit
            global _in_worker
            _in_worker = True
            try:
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps([_call(self._fn, a) for a in tasks]))
            except BaseException:  # such as a result that cannot be pickled
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(write)
        self._running[pid] = open(read, "rb")
        return pid

    def _join(self, pid: int, worker: int) -> list:
        """What worker number ``worker`` wrote, once it has exited."""
        with self._running[pid] as pipe:
            done = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del self._running[pid]
        if code:
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with status {code}")
            raise ChildProcessError(f"fork pool worker {worker} (pid {pid}) "
                                    f"{how} without returning its results")
        return pickle.loads(done)

    def map(self, items) -> list:
        items = list(items)
        k = min(self._workers, len(items))
        if k < 1:
            return list(map(self._fn, items))
        try:
            pids = [self._start([(x,) for x in items[w::k]]) for w in range(k)]
            shares = [self._join(pid, w) for w, pid in enumerate(pids)]
        finally:
            self.__exit__()
        registry = {}  # a repeated warning shows once, as inline
        return [_collect(shares[i % k][i // k], registry) for i in range(len(items))]

    def submit(self, *args):
        if self._workers < 1:
            return lambda: self._fn(*args)
        pid = self._start([args])
        return lambda: _collect(self._join(pid, 0)[0], {})


def _rows(corpus: Iterable[Graph], c: int) -> list:
    """``_row`` of every graph, in graph order.

    A sized, indexable corpus is mapped over graph indices by a ``ForkPool``
    of one worker per usable CPU, at most one per graph: a worker reads item
    k itself, so a lazy corpus draws or loads graph k there, and only rows
    come back.  Any other iterable, and fewer than two workers, run inline.
    """
    workers = min(usable_cpus(), len(corpus)) if isinstance(corpus, Sequence) else 1
    if workers < 2:
        return list(map(_row, corpus, repeat(c)))  # map drops each graph
    with ForkPool(lambda k: _row(corpus[k], c), workers) as pool:
        return pool.map(range(len(corpus)))


def compute_moments(corpus: Iterable[Graph], c: int) -> SampleMoments:
    """Per-graph spectra and densities of a corpus, with the mean spectrum
    and its unbiased covariance.

    ``corpus`` is a sized, indexable corpus, such as a list or a
    ``models.LazyCorpus`` (``iter_corpus``, the CLI's corpus directories);
    its graphs are reduced to their rows on every usable CPU (see ``_rows``),
    and the table is the same whatever the number of workers.  Any other
    iterable is read inline, one graph at a time.  Only each graph's row is
    kept, so with a lazy corpus neither path holds more than the graphs it
    is reducing, one per worker.  An empty corpus, mixed graph sizes and
    c > n raise ``ValueError``; a graph with c > n is not reduced.
    """
    rows = _rows(corpus, c)
    if not rows:
        raise ValueError("empty corpus")
    sizes = {row[0] for row in rows}
    if len(sizes) != 1:
        raise ValueError(f"mixed graph sizes in corpus: {sorted(sizes)}")
    (n,) = sizes
    if c > n:
        raise ValueError("truncation order exceeds graph size")
    spectra = np.vstack([values for _, values, _ in rows])
    densities = np.array([rho for _, _, rho in rows])
    N = len(spectra)
    mean_spec = spectra.mean(axis=0)
    if N == 1:
        warnings.warn("single-graph corpus: covariance degenerate (zeros)")
        cov = np.zeros((c, c))
    else:
        diff = spectra - mean_spec
        cov = diff.T @ diff / (N - 1)
    return SampleMoments(spectra=spectra, densities=densities, n=n,
                         mean_spectrum=mean_spec, cov=cov)


def frechet_total_variance(corpus: Sequence[Graph], c: int) -> float:
    """Sample total variance around the spectral proxy of the Frechet mean.

    (1/(N-1)) * sum_k ||lambda^(k) - lambda_bar||^2; equals trace of the
    sample covariance up to floating error.
    """
    if len(corpus) < 2:
        raise ValueError("total variance needs at least two graphs")
    m = compute_moments(corpus, c)
    diff = m.spectra - m.mean_spectrum
    return float(np.sum(diff * diff) / (m.N - 1))


def inherent_variance(lam: np.ndarray, n: int, s: np.ndarray) -> np.ndarray:
    """SBM-inherent eigenvalue variance 2 lambda_i / (n s_i): the spread of
    lambda_i over draws of one SBM, which no parameter law J can undercut."""
    return 2.0 * lam / (n * s)


def block_sizes(s, c: int) -> np.ndarray:
    """The geometry vector ``s`` as a float array of length c; equal blocks
    1/c when ``s`` is None."""
    if s is None:
        return np.full(c, 1.0 / c)
    s = np.asarray(s, dtype=float)
    if s.shape != (c,):
        raise ValueError("geometry length must equal truncation order")
    return s


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
    it is infinite (a zero variance), so the report stays strict JSON."""
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
