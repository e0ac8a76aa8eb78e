"""Corpus spectral moments and variance-regime diagnostics.

The arithmetic mean of the top-c eigenvalues stands in for the spectrum of
the sample Frechet mean graph (the two agree for large n), which makes the
sample total Frechet variance equal to trace of the eigenvalue covariance --
an exact identity under the proxy mean, tested as such.

``ForkPool`` is the package's one way to run work in other processes: the
graphs of ``compute_moments`` and critical-n's sample-size search
(``replicate.run_critical_n``) both go through it.
"""

from __future__ import annotations

import os
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


_TASK = None  # the function of a fork pool; set only in its workers, as they start


def _share(fn) -> None:
    global _TASK
    _TASK = fn


def _call(args: tuple):
    """``_TASK(*args)``, or the exception it raised, with the warnings it
    issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _TASK(*args)
        except Exception as exc:  # raised in the parent, when collected
            from multiprocessing.pool import ExceptionWithTraceback

            # unpickles as exc, with this traceback as its __cause__
            result = ExceptionWithTraceback(exc, exc.__traceback__)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _collect(done, registry: dict):
    """Issue a task's warnings again here, then return its result or raise
    its exception."""
    result, caught = done
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno,
                               registry=registry)
    if isinstance(result, Exception):
        raise result
    return result


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 0 where the CPU set
    cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0


class ForkPool:
    """Calls of one function ``fn`` on ``workers`` forked processes, or in
    this process.

    ``map(items)`` returns ``[fn(x) for x in items]`` and waits for all of
    them; ``submit(*args)`` starts ``fn(*args)`` and returns a callable that
    waits for it and returns its result.  ``fn`` reaches the workers by fork
    inheritance and is never pickled, so it may be a closure over a lazy
    corpus or a wrapper installed by a profiler; only arguments and results
    cross the pipe.  A task's warnings are issued again in this process, in
    the order the task issued them, and its exception is raised here, with
    the worker's traceback as its cause, when its result is collected.

    With fewer than one worker, inside a daemonic process (such as a pool
    worker) and where fork is not offered, every call runs in this process:
    ``map`` at once, a submitted call when it is collected, so warnings come
    and errors are raised in the same order either way.  Used as a context
    manager; leaving it stops and joins every worker, also on an error.
    """

    def __init__(self, fn, workers: int):
        self._fn, self._pool = fn, None
        if workers < 1:
            return
        import multiprocessing  # off the import path: only a pool needs it

        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()):
            return
        # fork, named: a spawned or forkserver worker (the default from
        # Python 3.14) re-imports the package, about 0.45 s, and could not
        # inherit fn.  Python >= 3.12 warns when a process that runs BLAS
        # threads forks; the workers start before the pool's own threads.
        self._pool = multiprocessing.get_context("fork").Pool(
            workers, _share, (fn,))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.terminate()  # stops and joins the workers

    def map(self, items) -> list:
        if self._pool is None:
            return list(map(self._fn, items))  # map drops each item once done
        registry = {}  # a repeated warning shows once, as inline
        return [_collect(done, registry)
                for done in self._pool.map(_call, [(x,) for x in items])]

    def submit(self, *args):
        if self._pool is None:
            return lambda: self._fn(*args)
        pending = self._pool.apply_async(_call, (args,))
        return lambda: _collect(pending.get(), {})


def _rows(corpus: Iterable[Graph], c: int) -> list:
    """``_row`` of every graph, in graph order.

    A sized, indexable corpus is mapped over graph indices by a
    ``ForkPool`` of one worker per usable CPU, at most one per graph: this
    process waits meanwhile.  Each worker reads item k of the corpus it
    inherited, so a lazy corpus draws or loads graph k in the worker, and
    only rows come back.  The rows are computed inline, one graph at a time,
    for any other iterable and with fewer than two workers.  The pool lives
    for this call only.
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
    is reducing, one per worker.  An
    empty corpus, mixed graph sizes and c > n raise ``ValueError``; a graph
    with c > n is not reduced.
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
    block sizes."""
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
    }
