"""Moment-matching fits: parametric laws, graph-space kernel mixtures, and
the Erdos-Renyi mixture / critical sample size pipeline.

The parametric fit aligns the first two moments of the parameter law J with
the corpus spectral moments:

    E[P_i]        = lambda_bar_i / (n omega s_i)
    Var P_i       = (Sigma_ii - inherent_variance_i) / (n omega s_i)^2
    Cov(P_i, P_j) = Sigma_ij / (n^2 omega^2 s_i s_j),   i != j

where inherent_variance_i = 2 lambda_bar_i / (n s_i) is the SBM-inherent
variance (``moments.inherent_variance``), omega = rho_bar, and epsilon
is chosen so the expected sampled density matches the corpus density.
Var P_i takes its sign from the excess that ``classify_regimes`` tests.  The
nonparametric fit runs the same equations per corpus graph with a shared
kernel bandwidth h, one variance h_i per index, in place of Sigma_ii,
falling back to a Dirac coordinate wherever the excess
h_i - inherent_variance_i is not positive.

Both fits read the corpus only through its ``SampleMoments``: the per-graph
spectra and densities and the moments taken from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import (
    LAWS,
    BetaProductLaw,
    DiracLaw,
    LazyCorpus,
    ParamLaw,
    RpsbmModel,
    SbmParams,
    UniformProductLaw,
    iter_corpus,
)
from .moments import (SMALL, SampleMoments, _row, block_sizes, classify_regimes,
                      inherent_variance)

EPSILON_MAX = 0.2
EPSILON_WARN = 0.1
#: Points of the shared z grid of the ER-mixture density curves.
CURVE_POINTS = 2048


class InfeasibleFitError(ValueError):
    """Corpus moments admit no parameter law (small regime or geometry)."""


@dataclass(frozen=True)
class FitResult:
    """Fitted model plus the raw J-moments and feasibility diagnostics."""

    model: RpsbmModel
    mean_J: np.ndarray
    cov_J: np.ndarray
    eps_raw: float
    feasibility: dict
    warnings: list[str]


@dataclass(frozen=True)
class GraphMixture:
    """Uniform mixture of RPSBM components, one per corpus graph."""

    components: tuple[RpsbmModel, ...]
    dirac_fallback: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("empty mixture")

    @property
    def weights(self) -> np.ndarray:
        k = len(self.components)
        return np.full(k, 1.0 / k)


# ---------------------------------------------------------------------------
# Moment equations (Alg. steps shared by both fits)
# ---------------------------------------------------------------------------

def _j_moments(lam: np.ndarray, second: np.ndarray, n: int, omega: float,
               s: np.ndarray):
    """J-mean, J-covariance and the excess variance from eigenvalue moments.

    ``second`` is the c x c eigenvalue covariance: the corpus Sigma, or the
    kernel bandwidth h as the diagonal matrix diag(h).
    The excess is its diagonal less the inherent variance; the J-variance is
    the excess over (n omega s_i)^2, so the two share their sign.
    """
    scale = n * omega * s
    excess = np.diag(second) - inherent_variance(lam, n, s)
    cov = second / (n**2 * omega**2 * np.outer(s, s))
    np.fill_diagonal(cov, excess / scale**2)
    return lam / scale, cov, excess


def _epsilon(mean: np.ndarray, s: np.ndarray,
             notes: list[str]) -> tuple[float, float]:
    """Density-preserving epsilon, raw and clamped to [0, EPSILON_MAX].

    The raw value makes the J-scale density sum_i E[P_i] s_i^2 +
    epsilon min E[P] (1 - sum_i s_i^2) equal 1, so that a model with
    omega = rho_bar has the corpus density.  A single community leaves it
    undefined and it is set to 0; that and each clamp go to ``notes``.
    """
    denom = float(mean.min()) * (1.0 - float(np.sum(s**2)))
    if denom == 0.0:
        notes.append("single community: epsilon undefined, set to 0")
        return 0.0, 0.0
    raw = (1.0 - float(np.sum(mean * s**2))) / denom
    eps = min(max(raw, 0.0), EPSILON_MAX)
    if eps != raw:
        notes.append(f"epsilon clamped to {eps:g} (raw {raw:.4g})")
    elif eps > EPSILON_WARN:
        notes.append(f"epsilon {eps:.4g} above {EPSILON_WARN}; expansions assume eps << 1")
    return raw, eps


def _geometry_guard(lam: np.ndarray, n: int, s: np.ndarray, what: str) -> None:
    """Eq. feasibility: lambda_i must lie in [0, n*s_i], the block size;
    raises ``InfeasibleFitError`` naming ``what`` and the indices otherwise."""
    scaled = lam / (n * s)
    bad = np.nonzero(~((scaled >= 0) & (scaled <= 1)))[0].tolist()
    if bad:
        raise InfeasibleFitError(
            f"{what} exceeds block size at indices {bad}")


def _solve_family(kind: str, mean: np.ndarray, var: np.ndarray,
                  scaled: np.ndarray | None, notes: list[str]) -> ParamLaw:
    """The ``kind`` law, a key of ``models.LAWS``, with J-moments
    (mean, var); a beta law's support is the range of ``scaled``, the
    per-graph spectra on the J scale."""
    if kind == "dirac":
        if np.any(var > 1e-12):
            notes.append("dirac family ignores a nonzero fitted variance")
        return DiracLaw(mean)
    if kind == "uniform":
        return UniformProductLaw(mean, np.sqrt(12.0 * var))
    return fit_beta_product(mean, var, scaled.min(axis=0), scaled.max(axis=0))


def fit_beta_product(mean, var, a, b) -> BetaProductLaw:
    """Invert shifted-beta mean/variance per coordinate.

    With m = (mean-a)/(b-a) and v = var/(b-a)^2:
        alpha = m (m(1-m)/v - 1),  beta = (1-m) (m(1-m)/v - 1).
    Moments that no beta law on [a, b] has raise ``InfeasibleFitError``.
    """
    mean, var = np.asarray(mean, float), np.asarray(var, float)
    a, b = np.asarray(a, float), np.asarray(b, float)
    if np.any(a >= mean) or np.any(mean >= b):
        raise InfeasibleFitError("need a_i < mean_i < b_i")
    if np.any(var <= 0):
        raise InfeasibleFitError("beta fit needs positive variance")
    m = (mean - a) / (b - a)
    v = var / (b - a) ** 2
    t = m * (1 - m) / v - 1.0
    if np.any(t <= 0):
        raise InfeasibleFitError(
            "variance too large for the range (no beta solution)")
    return BetaProductLaw(a, b, m * t, (1 - m) * t)


def fit_parametric(m: SampleMoments, family: str = "uniform",
                   s_override: np.ndarray | None = None) -> FitResult:
    """Fit an RPSBM to the corpus moments ``m`` (parametric J).

    ``family`` is a law kind of ``models.LAWS``.  omega is rho_bar and s is
    ``s_override``, equal blocks by default.  The J-variance is the excess
    over the SBM-inherent variance, and epsilon is clamped to
    [0, EPSILON_MAX], each clamp noted in the result's warnings.  Raises
    ``InfeasibleFitError`` when any index is in the small-variance regime or
    when a mean eigenvalue exceeds its block size.
    """
    if family not in LAWS:
        raise ValueError(f"unknown family {family!r}")
    if m.N < 2:
        raise ValueError("parametric fit needs at least two graphs")
    s = block_sizes(s_override, m.c)
    notes: list[str] = []

    report = classify_regimes(m, s)
    bad = [i for i, r in enumerate(report.regimes) if r == SMALL]
    if bad and family != "dirac":
        # a Dirac law never matches variance, so the small-regime corpus is
        # only infeasible for variance-carrying families
        raise InfeasibleFitError(
            f"small-variance regime at indices {bad}: no J can match the "
            "corpus variance")
    _geometry_guard(m.mean_spectrum, m.n, s, "mean eigenvalue")

    omega = m.mean_density
    if omega <= 0:
        raise InfeasibleFitError("corpus density is zero; nothing to fit")

    mean, cov, _ = _j_moments(m.mean_spectrum, m.cov, m.n, omega, s)
    # negative only at small-regime indices, which only the Dirac family reaches
    var = np.maximum(np.diag(cov), 0.0)

    law = _solve_family(family, mean, var, m.spectra / (m.n * omega * s), notes)
    eps_raw, eps = _epsilon(mean, s, notes)

    for note in notes:
        warnings.warn(note)
    model = RpsbmModel(omega=omega, law=law, epsilon=eps, s=s)
    return FitResult(model=model, mean_J=mean, cov_J=cov, eps_raw=eps_raw,
                     feasibility={"regimes": list(report.regimes)},
                     warnings=notes)


# ---------------------------------------------------------------------------
# Nonparametric graph-space kernel mixture
# ---------------------------------------------------------------------------

def silverman_bandwidth(N: int, sigma) -> np.ndarray:
    """Silverman's kernel variance h_i = ((4/3)^(1/5) N^(-1/5) sigma_i)^2 of
    each coordinate, as a float array."""
    if N < 1:
        raise ValueError("N must be positive")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    if np.any(sigma == 0):
        warnings.warn("zero scale gives a degenerate (zero) bandwidth")
    return ((4.0 / 3.0) ** 0.2 * N ** (-0.2) * sigma) ** 2


def fit_nonparametric(m: SampleMoments, bandwidth: np.ndarray | None = None,
                      s_per_graph: np.ndarray | None = None) -> GraphMixture:
    """Graph-space kernel mixture: one RPSBM component per corpus graph.

    Component k is fitted to row k of ``m.spectra``, with omega the graph's
    density ``m.densities[k]`` and s row k of ``s_per_graph`` (equal blocks
    by default); each has a uniform product law.  The bandwidth h, one
    kernel variance per eigenvalue index (by default Silverman's rule on the
    corpus scale), plays the role of the eigenvalue variances Sigma_ii when
    solving each component's J-moments; it must have length c and be finite
    and non-negative.  Coordinates whose excess h_i - inherent_variance_i is
    not positive fall back to a Dirac marginal (local over-smoothing),
    recorded per component.
    """
    h = (silverman_bandwidth(m.N, np.sqrt(np.diag(m.cov))) if bandwidth is None
         else np.asarray(bandwidth, dtype=float))
    if h.shape != (m.c,):
        raise ValueError("bandwidth dimension must equal truncation order")
    if not np.all((h >= 0) & (h < np.inf)):  # NaN fails both
        raise ValueError("bandwidth must be finite and non-negative")
    H = np.diag(h)

    components, fallbacks = [], []
    for k, (lam, rho_k) in enumerate(zip(m.spectra, m.densities.tolist())):
        if rho_k <= 0:
            raise InfeasibleFitError(f"graph {k} is empty; cannot set omega")
        s = block_sizes(None if s_per_graph is None else s_per_graph[k], m.c)
        _geometry_guard(lam, m.n, s, f"graph {k}: eigenvalue")
        mean, cov, excess = _j_moments(lam, H, m.n, rho_k, s)
        dirac = excess <= 0
        var = np.where(dirac, 0.0, np.diag(cov))
        law = _solve_family("uniform", mean, var, None, [])
        _, eps = _epsilon(mean, s, [])
        components.append(RpsbmModel(omega=rho_k, law=law, epsilon=eps, s=s))
        fallbacks.append(tuple(np.nonzero(dirac)[0].tolist()))
    return GraphMixture(components=tuple(components),
                        dirac_fallback=tuple(fallbacks))


def sample_mixture(mix: GraphMixture, n: int, count: int, seed: int) -> LazyCorpus:
    """Ancestral sampling: uniform component choice, then the RPSBM draw,
    as a lazy corpus (``models.iter_corpus``) that draws a graph when it is
    read."""
    return iter_corpus(mix.components, n, count, seed)


# ---------------------------------------------------------------------------
# Erdos-Renyi mixture pipeline and the critical sample size
# ---------------------------------------------------------------------------

def er_params(p: float, omega: float) -> SbmParams:
    return SbmParams(omega=omega, s=np.array([1.0]), p=np.array([p]), q=0.0)


def oracle_sigma(p_values, n: int, omega: float) -> float:
    """Oracle eigenvalue scale of a uniform ER mixture.

    Mean inherent variance plus the variance of the component means
    n*omega*p_j (the plug-in known-parameter variant of Silverman's sigma).
    """
    p = np.asarray(p_values, dtype=float)
    means = n * omega * p
    var = np.mean(2.0 * p) + np.mean(means**2) - np.mean(means) ** 2
    return float(np.sqrt(var))


def critical_n_for_threshold(sigma: float, threshold: float) -> float:
    """Smallest real N with ((4/3)^(1/5) N^(-1/5) sigma)^2 <= threshold."""
    if sigma <= 0 or threshold <= 0:
        raise ValueError("sigma and threshold must be positive")
    return ((4.0 / 3.0) ** 0.2 * sigma / np.sqrt(threshold)) ** 5


def _er_observables(row):
    """(rho, p_hat) of an ER mixture draw, from its ``moments._row`` at
    c = 1."""
    n, values, rho = row
    if rho == 0:
        warnings.warn("empty graph: p_hat set to 0")
        return rho, 0.0
    return rho, (values[0] - 1.0) / (n * rho)


def critical_sample_size(p_values, n: int, omega: float, N_max: int,
                         seed: int = 0, repetitions: int = 5) -> int:
    """Smallest corpus size at which max_k 2 p_hat^(k) exceeds h_N.

    Repetition r grows the corpus of graphs 0, 1, ... at seed + r one draw
    at a time, comparing the running max of 2*p_hat against the
    oracle-sigma Silverman bandwidth h_N; returns the repetition average
    (rounded).  Raises if no repetition crosses by N_max.
    """
    sigma = oracle_sigma(p_values, n, omega)
    components = [er_params(p, omega) for p in np.asarray(p_values, dtype=float)]
    crossings = []
    for rep in range(repetitions):
        max2p = -np.inf
        hit = None
        for k, g in enumerate(iter_corpus(components, n, N_max, seed + rep), 1):
            _, p_hat = _er_observables(_row(g, 1))
            max2p = max(max2p, 2.0 * p_hat)
            if max2p > silverman_bandwidth(k, sigma)[0]:
                hit = k
                break
        if hit is None:
            raise ValueError(f"condition never violated up to N_max={N_max}")
        crossings.append(hit)
    return int(round(float(np.mean(crossings))))


@dataclass(frozen=True)
class CurveTable:
    """Density curves of lambda_1 on a shared grid."""

    z: np.ndarray
    f_true: np.ndarray
    f_hat: np.ndarray
    f_silverman: np.ndarray
    p_hat: np.ndarray


def _normal_mixture(z, means, sds):
    """Equal-weight mixture of normal pdfs, summed one component at a time.
    Each pdf has the arithmetic of ``scipy.stats.norm.pdf``, so the curves
    agree with it bit for bit, without importing ``scipy.stats``."""
    out = np.zeros_like(z)
    for mu, sd in zip(means, sds):
        x = (z - mu) / sd
        out += np.exp(-x**2 / 2.0) / np.sqrt(2.0 * np.pi) / sd
    return out / len(means)


def run_er_mixture_pipeline(p_values, n: int, omega: float, N: int,
                            seed: int = 0) -> CurveTable:
    """Oracle, mixture-kernel, and Silverman density curves for lambda_1.

    Per corpus draw: p_hat = (lambda_1 - 1)/(n rho).  f_true uses the known
    mixture parameters, f_hat the per-graph kernels with SBM-inherent scale
    sqrt(2 p_hat), f_silverman the oracle-sigma Silverman bandwidth.
    """
    p = np.asarray(p_values, dtype=float)
    components = [er_params(pj, omega) for pj in p]
    rho = np.empty(N)
    p_hat = np.empty(N)
    for k, g in enumerate(iter_corpus(components, n, N, seed)):
        rho[k], p_hat[k] = _er_observables(_row(g, 1))
    hat_means = n * rho * p_hat + 1.0
    hat_sds = np.sqrt(np.maximum(2.0 * p_hat, 1e-12))
    true_means = n * omega * p + 1.0
    true_sds = np.sqrt(2.0 * p)
    h_N = float(silverman_bandwidth(N, oracle_sigma(p, n, omega))[0])
    silver_sd = np.full(N, np.sqrt(h_N))

    all_means = np.concatenate([true_means, hat_means])
    max_sd = max(true_sds.max(), hat_sds.max(), np.sqrt(h_N))
    lo = all_means.min() - 6.0 * max_sd
    hi = all_means.max() + 6.0 * max_sd
    z = np.linspace(lo, hi, CURVE_POINTS)
    return CurveTable(
        z=z,
        f_true=_normal_mixture(z, true_means, true_sds),
        f_hat=_normal_mixture(z, hat_means, hat_sds),
        f_silverman=_normal_mixture(z, hat_means, silver_sd),
        p_hat=p_hat,
    )
