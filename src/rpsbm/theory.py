"""Predicted eigenvalue moments for (random-parameter) SBM graphs.

The block structure reduces the kernel integral operator to the c x c
matrices

    M_ij  = s_i p_i on the diagonal, sqrt(s_i s_j) q off it,
    Mf_ij = p_i on the diagonal, q off it.

Eigenvalues/eigenvectors (nu_k, v_k) of M carry the operator spectrum
(theta_k = nu_k) and the piecewise-constant eigenfunctions
r_k(x) = v_k(i)/sqrt(s_i) on block i.  From these:

 * the covariance of the centered, 1/sqrt(omega)-scaled top eigenvalues
   at density omega is 2 (v_i .* v_j)^T (Mf .* (1 - omega Mf)) (v_i .* v_j),
   which keeps the Bernoulli factor 1 - omega Mf of each edge variance; for
   a single community it is 2 p (1 - omega p);
 * its omega -> 0 limit 2 (v_i .* v_j)^T Mf (v_i .* v_j) drops that factor;
 * the expected i-th eigenvalue is the i-th largest eigenvalue of
   B*_i = diag(nu_j * n * omega) + B2(i), where B2 is an O(1) correction
   whose nu_i^{-2} prefactor is bound to the target index i (the source
   formula leaves that index free; dropping B2 entirely is supported).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DiracLaw, RpsbmModel, SbmParams, draw_params


@dataclass(frozen=True)
class TheoryMatrices:
    """M, Mf and the eigen-decomposition of M (nu non-increasing)."""

    M: np.ndarray
    Mf: np.ndarray
    nu: np.ndarray
    V: np.ndarray
    s: np.ndarray

    @property
    def c(self) -> int:
        return len(self.nu)


@dataclass(frozen=True)
class EigLawMoments:
    """Predicted mean vector and covariance of the top-c eigenvalue law."""

    mean: np.ndarray
    cov: np.ndarray


def build_theory_matrices(params: SbmParams) -> TheoryMatrices:
    s, p, q = params.s, params.p, params.q
    root_s = np.sqrt(s)
    M = q * np.outer(root_s, root_s)
    np.fill_diagonal(M, s * p)
    Mf = np.full((params.c, params.c), float(q))
    np.fill_diagonal(Mf, p)
    nu, V = np.linalg.eigh(M)
    nu, V = nu[::-1].copy(), V[:, ::-1].copy()
    # deterministic eigenvector signs: largest-|entry| coordinate positive
    for k in range(V.shape[1]):
        idx = int(np.argmax(np.abs(V[:, k])))
        if V[idx, k] < 0:
            V[:, k] = -V[:, k]
    return TheoryMatrices(M=M, Mf=Mf, nu=nu, V=V, s=np.asarray(s, float))


def eigenfunction_values(tm: TheoryMatrices) -> np.ndarray:
    """Table r[k, i] = value of the k-th operator eigenfunction on block i."""
    return (tm.V / np.sqrt(tm.s)[:, None]).T


def _quadratic_covariance(tm: TheoryMatrices, kernel: np.ndarray) -> np.ndarray:
    """Cov(Z_i, Z_j) = 2 (v_i .* v_j)^T kernel (v_i .* v_j)."""
    c = tm.c
    cov = np.empty((c, c))
    for i in range(c):
        for j in range(i, c):
            h = tm.V[:, i] * tm.V[:, j]
            cov[i, j] = cov[j, i] = 2.0 * h @ kernel @ h
    return cov


def eigenvalue_covariance(params: SbmParams) -> np.ndarray:
    """Cov(lambda_i, lambda_j) / omega at the density omega of ``params``.

    2 (v_i .* v_j)^T (Mf .* (1 - omega Mf)) (v_i .* v_j): the covariance of
    u_i^T A u_i and u_j^T A u_j for independent Bernoulli(omega Mf) edges,
    with the Bernoulli factor 1 - omega Mf kept.  A single community gives
    2 p (1 - omega p); as omega -> 0 this tends to ``limiting_covariance``.
    """
    tm = build_theory_matrices(params)
    return _quadratic_covariance(tm, tm.Mf * (1.0 - params.omega * tm.Mf))


def limiting_covariance(params: SbmParams) -> np.ndarray:
    """Cov(Z_i, Z_j) = 2 (v_i .* v_j)^T Mf (v_i .* v_j), the omega -> 0 limit.

    This is ``eigenvalue_covariance`` without the Bernoulli factor
    1 - omega Mf; a single community gives 2 p.  At omega > 0 it overstates
    the eigenvalue variance (by 1/(1 - omega p) for one community).
    """
    tm = build_theory_matrices(params)
    return _quadratic_covariance(tm, tm.Mf)


def correction_matrix(tm: TheoryMatrices, target_index: int) -> np.ndarray:
    """O(1) correction B2 with the nu^{-2} prefactor of ``target_index``."""
    nu, V, s = tm.nu, tm.V, tm.s
    c = tm.c
    if nu[target_index] <= 0:
        raise ValueError("correction undefined for a non-positive eigenvalue of M")
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
            val = np.sqrt(nu[j] * nu[l]) * core / nu[target_index] ** 2
            b2[j, l] = b2[l, j] = val
    return b2


def expected_eigenvalue(params: SbmParams, n: int, i: int,
                        include_correction: bool = True) -> float:
    """Predicted E[lambda_i] for an n-node draw (1-indexed i)."""
    if not 1 <= i <= params.c:
        raise ValueError("eigenvalue index out of range")
    tm = build_theory_matrices(params)
    if tm.nu[i - 1] <= 0:
        raise ValueError("leading block matrix is not positive at this index")
    b_star = np.diag(tm.nu * n * params.omega)
    if include_correction:
        b_star = b_star + correction_matrix(tm, i - 1)
    w = np.linalg.eigvalsh(b_star)[::-1]
    return float(w[i - 1])


def expected_spectrum(params: SbmParams, n: int,
                      include_correction: bool = True) -> np.ndarray:
    return np.array([
        expected_eigenvalue(params, n, i, include_correction)
        for i in range(1, params.c + 1)
    ])


def predict_eig_law_moments(model: RpsbmModel, n: int, draws: int = 2000,
                            seed: int = 0) -> EigLawMoments:
    """Law-of-total-moments prediction for the top-c eigenvalue law.

    Per J-draw, the conditional mean is ``expected_spectrum`` (B2 included)
    and the
    conditional covariance omega * Cov(Z); a Dirac law is exact with one
    draw.  Draw streams are independent of any graph-sampling stream.
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
        means[t] = expected_spectrum(params, n)
        cond_cov += model.omega * limiting_covariance(params)
    cond_cov /= draws
    mean = means.mean(axis=0)
    if draws > 1:
        between = np.cov(means.T, ddof=1).reshape(c, c)
    else:
        between = np.zeros((c, c))
    return EigLawMoments(mean=mean, cov=between + cond_cov)
