"""Predicted eigenvalue moments for (random-parameter) SBM graphs.

The block structure reduces the kernel integral operator to the c x c
matrices

    M_ij  = s_i p_i on the diagonal, sqrt(s_i s_j) q off it,
    Mf_ij = p_i on the diagonal, q off it.

Eigenvalues/eigenvectors (nu_k, v_k) of M carry the operator spectrum
(theta_k = nu_k) and the piecewise-constant eigenfunctions
r_k(x) = v_k(i)/sqrt(s_i) on block i.  From one decomposition of M:

 * the covariance of the centered, 1/sqrt(omega)-scaled top eigenvalues
   at density omega is 2 (v_i .* v_j)^T (Mf .* (1 - omega Mf)) (v_i .* v_j),
   which keeps the Bernoulli factor 1 - omega Mf of each edge variance; for
   a single community it is 2 p (1 - omega p);
 * its omega -> 0 limit 2 (v_i .* v_j)^T Mf (v_i .* v_j) drops that factor;
 * the expected i-th eigenvalue is the i-th largest eigenvalue of
   B*_i = diag(nu_j * n * omega) + B2(i), where B2 is an O(1) correction
   whose nu_i^{-2} prefactor is bound to the target index i (the source
   formula leaves that index free).
"""

from __future__ import annotations

import numpy as np

from .models import DiracLaw, RpsbmModel, SbmParams, draw_params


def _decompose(params: SbmParams) -> tuple[np.ndarray, np.ndarray]:
    """(nu, V): M's eigenvalues, non-increasing, and unit eigenvectors as
    columns, each with its largest-|entry| coordinate positive."""
    root_s = np.sqrt(params.s)
    M = params.q * np.outer(root_s, root_s)
    np.fill_diagonal(M, params.s * params.p)
    nu, V = np.linalg.eigh(M)
    nu, V = nu[::-1].copy(), V[:, ::-1].copy()
    for k in range(V.shape[1]):
        idx = int(np.argmax(np.abs(V[:, k])))
        if V[idx, k] < 0:
            V[:, k] = -V[:, k]
    return nu, V


def _kernel(params: SbmParams) -> np.ndarray:
    """Mf: p on the diagonal, q off it."""
    Mf = np.full((params.c, params.c), float(params.q))
    np.fill_diagonal(Mf, params.p)
    return Mf


def _quadratic_covariance(V: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Cov(Z_i, Z_j) = 2 (v_i .* v_j)^T kernel (v_i .* v_j)."""
    c = V.shape[1]
    cov = np.empty((c, c))
    for i in range(c):
        for j in range(i, c):
            h = V[:, i] * V[:, j]
            cov[i, j] = cov[j, i] = 2.0 * h @ kernel @ h
    return cov


def _bernoulli_covariance(params: SbmParams, V: np.ndarray) -> np.ndarray:
    Mf = _kernel(params)
    return _quadratic_covariance(V, Mf * (1.0 - params.omega * Mf))


def eigenvalue_covariance(params: SbmParams) -> np.ndarray:
    """Cov(lambda_i, lambda_j) / omega at the density omega of ``params``.

    2 (v_i .* v_j)^T (Mf .* (1 - omega Mf)) (v_i .* v_j): the covariance of
    u_i^T A u_i and u_j^T A u_j for independent Bernoulli(omega Mf) edges,
    with the Bernoulli factor 1 - omega Mf kept.  A single community gives
    2 p (1 - omega p); as omega -> 0 this tends to ``limiting_covariance``.
    """
    return _bernoulli_covariance(params, _decompose(params)[1])


def limiting_covariance(params: SbmParams) -> np.ndarray:
    """Cov(Z_i, Z_j) = 2 (v_i .* v_j)^T Mf (v_i .* v_j), the omega -> 0 limit.

    This is ``eigenvalue_covariance`` without the Bernoulli factor
    1 - omega Mf; a single community gives 2 p.  At omega > 0 it overstates
    the eigenvalue variance (by 1/(1 - omega p) for one community).
    """
    return _quadratic_covariance(_decompose(params)[1], _kernel(params))


def _correction(nu: np.ndarray, V: np.ndarray, s: np.ndarray) -> np.ndarray:
    """B2 without its prefactor: B2(i) is this divided by nu_i^2."""
    c = len(nu)
    inv_sqrt_s = 1.0 / np.sqrt(s)
    sqrt_s = np.sqrt(s)
    # inner[k] = sum_w sqrt(s_w) v_k(w)
    inner = sqrt_s @ V
    # t[m] = sum_k nu_k v_k(m) inner[k]
    t = V @ (nu * inner)
    b2 = np.empty((c, c))
    for j in range(c):
        for l in range(j, c):
            core = np.sum(inv_sqrt_s * V[:, j] * V[:, l] * t)
            b2[j, l] = b2[l, j] = np.sqrt(nu[j] * nu[l]) * core
    return b2


def _spectrum(params: SbmParams, n: int, nu: np.ndarray,
              V: np.ndarray) -> np.ndarray:
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if (nu <= 0).any():
        raise ValueError("leading block matrix is not positive definite")
    lead = np.diag(nu * n * params.omega)
    b2 = _correction(nu, V, params.s)
    return np.array([np.linalg.eigvalsh(lead + b2 / nu[i] ** 2)[::-1][i]
                     for i in range(params.c)])


def expected_spectrum(params: SbmParams, n: int) -> np.ndarray:
    """Predicted E[lambda_1], ..., E[lambda_c] for an n-node draw, each the
    matching eigenvalue of B*_i (B2 included)."""
    return _spectrum(params, n, *_decompose(params))


def predict_eig_law_moments(model: RpsbmModel, n: int, draws: int = 2000,
                            seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of the top-c eigenvalue law, by the law of total moments.

    Per J-draw, the conditional mean is ``expected_spectrum`` and the
    conditional covariance omega * ``eigenvalue_covariance``, both from one
    decomposition of M; a Dirac law is exact with one draw.  Draw streams
    are independent of any graph-sampling stream.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    if isinstance(model.law, DiracLaw):
        draws = 1
    c = model.c
    means = np.empty((draws, c))
    cond_cov = np.zeros((c, c))
    for t in range(draws):
        params = draw_params(model, seed, t)
        nu, V = _decompose(params)
        means[t] = _spectrum(params, n, nu, V)
        cond_cov += model.omega * _bernoulli_covariance(params, V)
    cond_cov /= draws
    mean = means.mean(axis=0)
    if draws > 1:
        between = np.cov(means.T, ddof=1).reshape(c, c)
    else:
        between = np.zeros((c, c))
    return mean, between + cond_cov
