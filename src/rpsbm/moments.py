"""Corpus spectral moments and variance-regime diagnostics.

The arithmetic mean of the top-c eigenvalues stands in for the spectrum of
the sample Frechet mean graph (the two agree for large n), which makes the
sample total Frechet variance equal to trace of the eigenvalue covariance --
an exact identity under the proxy mean, tested as such.
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


_SHARED = None  # (corpus, c) of a pool; set only in its workers, as they start


def _share(corpus, c) -> None:
    global _SHARED
    _SHARED = corpus, c


def _pool_row(k: int):
    """Row k of the shared corpus, or the exception it raised, with the
    warnings it issued."""
    corpus, c = _SHARED
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            row = _row(corpus[k], c)
        except Exception as exc:  # raised in the parent, in graph order
            from multiprocessing.pool import ExceptionWithTraceback

            # unpickles as exc, with this traceback as its __cause__
            row = ExceptionWithTraceback(exc, exc.__traceback__)
    return row, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _rows(corpus: Iterable[Graph], c: int) -> list:
    """``_row`` of every graph, in graph order.

    A sized, indexable corpus is mapped over graph indices by a fork pool of
    one worker per usable CPU, at most one per graph.  Each worker reads
    item k of the corpus it inherited, so a lazy corpus draws or loads
    graph k in the worker, and only rows come back.  A worker's warnings
    are issued again here and its exception raised here, in graph order,
    as a serial run would.  The rows are computed inline, one graph at a
    time, for any other iterable, with fewer than two workers, inside a
    daemonic process (such as a pool worker), and where fork is not offered
    or the CPU set cannot be read.  The pool lives for this call only.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    workers = min(len(cpus), len(corpus)) if isinstance(corpus, Sequence) else 1
    if workers >= 2:
        import multiprocessing  # off the import path: only a pool needs it

        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()):
            workers = 1
    if workers < 2:
        return list(map(_row, corpus, repeat(c)))  # map drops each graph
    # fork, named: a spawned or forkserver worker (the default from Python
    # 3.14) re-imports the package, about 0.45 s, and could not inherit a
    # lazy corpus.  Python >= 3.12 warns when a process that runs BLAS
    # threads forks; the workers start before the pool's own threads.
    with multiprocessing.get_context("fork").Pool(
            workers, _share, (corpus, c)) as pool:
        results = pool.map(_pool_row, range(len(corpus)))
    rows, registry = [], {}  # a repeated warning shows once, as inline
    for row, caught in results:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registry)
        if isinstance(row, Exception):
            raise row
        rows.append(row)
    return rows


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
