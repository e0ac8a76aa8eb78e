"""Corpus spectral moments and variance-regime diagnostics.

The arithmetic mean of the top-c eigenvalues stands in for the spectrum of
the sample Frechet mean graph (the two agree for large n), which makes the
sample total Frechet variance equal to trace of the eigenvalue covariance --
an exact identity under the proxy mean, tested as such.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

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


def compute_moments(corpus: Sequence[Graph], c: int) -> SampleMoments:
    """Per-graph spectra and densities of a corpus, with the mean spectrum
    and its unbiased covariance."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    sizes = {g.n for g in corpus}
    if len(sizes) != 1:
        raise ValueError(f"mixed graph sizes in corpus: {sorted(sizes)}")
    n = corpus[0].n
    if c > n:
        raise ValueError("truncation order exceeds graph size")
    N = len(corpus)
    spectra = np.empty((N, c))
    densities = np.empty(N)
    for k, g in enumerate(corpus):
        spectra[k], densities[k] = spectrum(g, c).values, density(g)
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
