"""Predicted eigenvalue moments for (random-parameter) SBM graphs.

The block structure reduces the kernel integral operator to the c x c matrices

    M_ij  = s_i p_i on the diagonal, sqrt(s_i s_j) q off it,
    Mf_ij = p_i on the diagonal, q off it.

Eigenvalues/eigenvectors (nu_k, v_k) of M carry the operator spectrum
(theta_k = nu_k) and the piecewise-constant eigenfunctions
r_k(x) = v_k(i)/sqrt(s_i) on block i.  Both moments read one decomposition
of M and the kernel K(omega) = Mf .* (1 - omega Mf), which keeps the
Bernoulli factor of each edge variance at density omega (K(0) = Mf):

 * the covariance of the centered, 1/sqrt(omega)-scaled top eigenvalues is
   2 (v_i .* v_j)^T K(omega) (v_i .* v_j), 2 p (1 - omega p) for a single
   community; its omega -> 0 limit reads K(0);
 * the expected i-th eigenvalue is the i-th largest eigenvalue of
   B*_i = diag(nu_j * n * omega) + B2 / nu_i^2, with the O(1) shift
   B2 = sqrt(nu nu^T) .* (V^T diag(K(0) s) V): (K(0) s)_m is block m's
   expected degree over n omega.  The nu_i^{-2} prefactor is bound to the
   target index i (the source formula leaves that index free).
"""

from __future__ import annotations

import numpy as np

from .models import DiracLaw, RpsbmModel, SbmParams, draw_params


def _decompose(params: SbmParams) -> tuple[np.ndarray, np.ndarray]:
    """(nu, V): M's eigenvalues, non-increasing, and unit eigenvectors as
    columns, each with its (first) largest-|entry| coordinate positive."""
    root_s = np.sqrt(params.s)
    M = params.q * np.outer(root_s, root_s)
    np.fill_diagonal(M, params.s * params.p)
    nu, V = np.linalg.eigh(M)
    nu, V = nu[::-1].copy(), V[:, ::-1]
    top = V[np.argmax(np.abs(V), axis=0), np.arange(params.c)]
    return nu, V * np.where(top < 0, -1.0, 1.0)


def _kernel(params: SbmParams, omega: float) -> np.ndarray:
    """K(omega) = Mf .* (1 - omega Mf); Mf is p on the diagonal, q off it."""
    Mf = np.where(np.eye(params.c, dtype=bool), params.p, float(params.q))
    return Mf * (1.0 - omega * Mf)


def _covariance(V: np.ndarray, K: np.ndarray) -> np.ndarray:
    """2 (v_i .* v_j)^T K (v_i .* v_j) for every pair (i, j) at once."""
    H = V[:, :, None] * V[:, None, :]  # H[w, i, j] = v_i(w) v_j(w)
    return 2.0 * np.einsum("wij,wu,uij->ij", H, K, H)


def eigenvalue_covariance(params: SbmParams) -> np.ndarray:
    """Cov(lambda_i, lambda_j) / omega at the density omega of ``params``.

    2 (v_i .* v_j)^T (Mf .* (1 - omega Mf)) (v_i .* v_j): the covariance of
    u_i^T A u_i and u_j^T A u_j for independent Bernoulli(omega Mf) edges,
    with the Bernoulli factor 1 - omega Mf kept.  A single community gives
    2 p (1 - omega p); as omega -> 0 this tends to ``limiting_covariance``.
    """
    return _covariance(_decompose(params)[1], _kernel(params, params.omega))


def limiting_covariance(params: SbmParams) -> np.ndarray:
    """Cov(Z_i, Z_j) = 2 (v_i .* v_j)^T Mf (v_i .* v_j), the omega -> 0 limit.

    This is ``eigenvalue_covariance`` without the Bernoulli factor
    1 - omega Mf; a single community gives 2 p.  At omega > 0 it overstates
    the eigenvalue variance (by 1/(1 - omega p) for one community).
    """
    return _covariance(_decompose(params)[1], _kernel(params, 0.0))


def _spectrum(params: SbmParams, n: int, nu: np.ndarray,
              V: np.ndarray) -> np.ndarray:
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if (nu <= 0).any():
        raise ValueError("leading block matrix is not positive definite")
    degree = _kernel(params, 0.0) @ params.s
    b2 = np.sqrt(np.outer(nu, nu)) * ((V.T * degree) @ V)
    # B*_i for every target i, then the i-th largest eigenvalue of each
    stack = np.diag(nu * n * params.omega) + b2 / nu[:, None, None] ** 2
    return np.linalg.eigvalsh(stack)[:, ::-1].diagonal().copy()


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
        cond_cov += model.omega * _covariance(V, _kernel(params, params.omega))
    cond_cov /= draws
    mean = means.mean(axis=0)
    between = (np.cov(means.T, ddof=1).reshape(c, c) if draws > 1
               else np.zeros((c, c)))
    return mean, between + cond_cov
