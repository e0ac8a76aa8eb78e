"""Output checks: independent computations and properties of the method.

Every check raises ``CheckFailed`` with the reason when an output is wrong and
returns a short note otherwise.  None of them compares against stored output
of an earlier run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Widening, in standard errors, of every sampling-error tolerance.
Z = 4.0
# Agreement of the program's top-c eigenvalues with the benchmark's solver.
EIG_RTOL = 1e-8
# |integral of a density curve - 1| on its written grid.  The grid reaches six
# standard deviations past the outermost mean (tail mass ~2e-9) and spaces its
# points far below the smallest sd, so the trapezoid rule is exact to ~1e-9.
CURVE_ATOL = 1e-6
# N_crit must lie within this factor of critical_n_for_threshold(sigma, 2 max p).
N_CRIT_FACTOR = 2.0
# Resampled lambda_bar of a contact-window kernel mixture against its cluster.
# The mixture matches each window's eigenvalues to first order in the block
# coupling q; on the planted windows (density ~0.3, eps up to 0.2) the
# second-order coupling moves lambda_i by a few percent.
CONTACTS_RTOL = 0.10


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def _require(ok, message: str) -> None:
    if not bool(np.all(ok)):
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# recoverability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoverTruth:
    """The law the recoverability corpus is drawn from."""

    n: int
    N: int
    omega: float
    eps: float
    centers: np.ndarray
    widths: np.ndarray
    s: np.ndarray

    @property
    def lo(self) -> np.ndarray:
        return self.centers - self.widths / 2

    @property
    def hi(self) -> np.ndarray:
        return self.centers + self.widths / 2


def lambda_var(n, omega, s, p, width) -> np.ndarray:
    """Var(lambda_i) for p_i ~ U[p_i -+ width_i/2]: the law's spread scaled by
    n omega s_i, plus the single-graph variance 2P(1 - P) at P = omega p_i
    (Furedi & Komlos 1981)."""
    P = omega * np.asarray(p)
    return (n * omega * np.asarray(s) * np.asarray(width)) ** 2 / 12 + 2 * P * (1 - P)


def lambda_shift(n, omega, s, p, eps) -> np.ndarray:
    """|E[lambda_i] - n omega s_i p_i| to first order: the (1 - P_i) term of a
    dense block plus the move of the block-matrix eigenvalues that the
    coupling q = eps min(p) causes.  The fit ignores both."""
    s, p = np.asarray(s, float), np.asarray(p, float)
    q = eps * p.min()
    P = np.full((len(s), len(s)), q)
    np.fill_diagonal(P, p)
    root = np.sqrt(s)
    coupled = np.sort(np.linalg.eigvalsh(n * omega * root[:, None] * P * root[None, :]))[::-1]
    order = np.argsort(-(s * p))
    diagonal = np.empty(len(s))
    diagonal[order] = np.abs(coupled - n * omega * (s * p)[order])
    return (1 - omega * p) + diagonal


def recover_fit(table: dict, report: dict, truth: RecoverTruth) -> str:
    """Fitted omega p_i within Z standard errors of lambda_bar (plus the
    first-order shift) of the truth omega p_i."""
    model = report["model"]
    est = model["omega"] * np.asarray(model["law"]["center"])
    _require(np.allclose(table["omega_p_hat"], est, rtol=1e-12, atol=0),
             f"errors.csv omega_p_hat {table['omega_p_hat']} != report model {est}")
    true = truth.omega * truth.centers
    _require(np.allclose(table["omega_p_true"], true, rtol=1e-12, atol=0),
             f"errors.csv omega_p_true {table['omega_p_true']} != {true}")
    scale = truth.n * truth.s
    se = np.sqrt(lambda_var(truth.n, truth.omega, truth.s, truth.centers,
                            truth.widths) / truth.N)
    tol = (Z * se + lambda_shift(truth.n, truth.omega, truth.s, truth.centers,
                                 truth.eps)) / scale
    err = np.abs(est - true)
    _require(err <= tol, f"|omega p_hat - omega p| = {err} exceeds {tol}")
    return f"|omega p_hat - omega p| / tol = {np.round(err / tol, 3).tolist()}, " \
           f"eps_hat {report['eps_hat']:.4g} (true {truth.eps}, not gated)"


def recover_moment_matching(table: dict, report: dict, truth: RecoverTruth) -> str:
    """Resampled lambda_bar equals the corpus lambda_bar within the sampling
    error of both means plus the first-order shift."""
    model = report["model"]
    omega_hat = model["omega"]
    center = np.asarray(model["law"]["center"])
    width = np.asarray(model["law"]["width"])
    s_hat = np.asarray(model["s"])
    var_corpus = lambda_var(truth.n, truth.omega, truth.s, truth.centers, truth.widths)
    var_new = lambda_var(truth.n, omega_hat, s_hat, center, width)
    tol = Z * np.sqrt(var_corpus / truth.N + var_new / truth.N) + lambda_shift(
        truth.n, omega_hat, s_hat, center, model["epsilon"])
    diff = np.abs(table["lambda_bar_new"] - table["lambda_bar"])
    _require(diff <= tol, f"|lambda_bar_new - lambda_bar| = {diff} exceeds {tol}")
    return f"|dlambda| / tol = {np.round(diff / tol, 3).tolist()}"


def adjacency(n: int, edges: np.ndarray) -> scipy.sparse.csr_matrix:
    """Symmetric 0/1 adjacency built here from an edge list."""
    i, j = edges[:, 0], edges[:, 1]
    data = np.ones(2 * len(i))
    return scipy.sparse.coo_matrix(
        (data, (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n)).tocsr()


def arpack_top(a, c: int, seed: int) -> np.ndarray:
    """Top-c eigenvalues by ARPACK (implicitly restarted Lanczos)."""
    v0 = np.random.default_rng(seed).standard_normal(a.shape[0])
    w = scipy.sparse.linalg.eigsh(a, k=c, which="LA", v0=v0, tol=0,
                                  return_eigenvectors=False)
    return np.sort(w)[::-1]


def subspace_top(a, c: int, seed: int, max_iter: int = 2000) -> np.ndarray:
    """Top-c eigenvalues by block subspace iteration with Rayleigh-Ritz.

    Converges when the c largest eigenvalues dominate the rest in magnitude,
    as for the dense blocks of these graphs.  Stops once each Ritz residual
    is below 1e-7 lambda_1, which bounds the eigenvalue error by
    residual^2 / gap, far inside EIG_RTOL.
    """
    n = a.shape[0]
    x, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, c + 6)))
    for _ in range(max_iter):
        y = a @ x
        w, v = np.linalg.eigh(x.T @ y)
        top = np.argsort(w)[::-1][:c]
        resid = np.linalg.norm(y @ v[:, top] - (x @ v[:, top]) * w[top], axis=0)
        if np.all(resid <= 1e-7 * abs(w[top[0]])):
            return w[top]
        x, _ = np.linalg.qr(y)
    raise CheckFailed("subspace iteration did not converge")


SOLVERS = {"arpack": arpack_top, "subspace": subspace_top}


def block_densities(n: int, edges: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """Edge density and pair count per block pair, nodes at x = i/n."""
    cum = np.cumsum(s)
    label = np.array([int(np.sum(cum <= i / n)) for i in range(n)]).clip(0, len(s) - 1)
    size = np.bincount(label, minlength=len(s))
    c = len(s)
    count = np.zeros((c, c))
    np.add.at(count, (label[edges[:, 0]], label[edges[:, 1]]), 1)
    count = count + count.T - np.diag(np.diag(count))
    pairs = np.outer(size, size).astype(float)
    np.fill_diagonal(pairs, size * (size - 1) / 2)
    return count / pairs, pairs


def recover_redraw(truth: RecoverTruth, seed: int, k: int, solver: str) -> str:
    """Graph k drawn again through the public sampler: block densities inside
    the law's support (Z binomial SE wide) and spectra equal to ours."""
    from rpsbm import RpsbmModel, UniformProductLaw, sample_rpsbm, spectrum

    model = RpsbmModel(truth.omega, UniformProductLaw(truth.centers, truth.widths),
                       truth.eps, truth.s)
    g = sample_rpsbm(model, truth.n, seed, k)
    return graph_matches_law(truth, g.n, np.asarray(g.edges),
                             spectrum(g, len(truth.s)).values, solver, seed)


def graph_matches_law(truth: RecoverTruth, n: int, edges: np.ndarray,
                      values: np.ndarray, solver: str, seed: int) -> str:
    dens, pairs = block_densities(n, edges, truth.s)
    c = len(truth.s)
    lo = truth.omega * truth.lo
    hi = truth.omega * truth.hi
    for b in range(c):
        se = math.sqrt(hi[b] * (1 - hi[b]) / pairs[b, b])
        _require(lo[b] - Z * se <= dens[b, b] <= hi[b] + Z * se,
                 f"block {b} density {dens[b, b]:.5f} outside "
                 f"[{lo[b]:.5f}, {hi[b]:.5f}] +- {Z} SE")
    q_lo = truth.omega * truth.eps * truth.lo.min()
    q_hi = truth.omega * truth.eps * truth.hi.min()
    for a in range(c):
        for b in range(a + 1, c):
            se = math.sqrt(q_hi * (1 - q_hi) / pairs[a, b])
            _require(q_lo - Z * se <= dens[a, b] <= q_hi + Z * se,
                     f"cross density {dens[a, b]:.6f} outside "
                     f"[{q_lo:.6f}, {q_hi:.6f}] +- {Z} SE")
    ours = SOLVERS[solver](adjacency(n, edges), c, seed)
    _require(np.allclose(values, ours, rtol=EIG_RTOL, atol=0),
             f"spectrum {values} != {solver} {ours}")
    return f"densities {np.round(np.diag(dens), 5).tolist()}, " \
           f"max eig rel diff {np.max(np.abs(values / ours - 1)):.2e}"


# ---------------------------------------------------------------------------
# critical-n
# ---------------------------------------------------------------------------

def critical_params(report: dict, expected: dict) -> str:
    got = report["params"]
    _require(got["n"] == expected["n"]
             and math.isclose(got["omega"], expected["omega"], rel_tol=1e-12)
             and np.allclose(got["p_values"], expected["p_values"], rtol=1e-12),
             f"report params {got} differ from the config {expected}")
    return "params match the config"


def curves_normalized(curves: dict) -> str:
    worst = 0.0
    for label, table in curves.items():
        z = table["z"]
        _require(np.all(np.diff(z) > 0), f"{label}: grid not increasing")
        for col in ("f_true", "f_hat", "f_silverman"):
            f = table[col]
            mass = float(np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2)
            _require(np.all(f >= 0) and abs(mass - 1) <= CURVE_ATOL,
                     f"{label}.{col} integrates to {mass!r}")
            worst = max(worst, abs(mass - 1))
    return f"max |mass - 1| = {worst:.2e}"


def curves_f_true(curves: dict, report: dict) -> str:
    """f_true is the two-component normal mixture with means n omega p_j + 1
    and sd sqrt(2 p_j), recomputed on the written grid."""
    par = report["params"]
    p = np.asarray(par["p_values"], float)
    means = par["n"] * par["omega"] * p + 1
    sds = np.sqrt(2 * p)
    for label, table in curves.items():
        z = table["z"][:, None]
        f = np.mean(np.exp(-0.5 * ((z - means) / sds) ** 2) / (sds * math.sqrt(2 * math.pi)),
                    axis=1)
        _require(np.allclose(table["f_true"], f, rtol=1e-9, atol=1e-14),
                 f"{label}.f_true differs from the mixture by "
                 f"{np.max(np.abs(table['f_true'] - f)):.3g}")
    return "f_true matches"


def n_crit_bound(p_values, n: int, omega: float) -> float:
    """critical_n_for_threshold(sigma, 2 max p) with the oracle sigma:
    sigma^2 = mean inherent variance 2 p_j + variance of the means n omega p_j."""
    p = np.asarray(p_values, float)
    sigma = math.sqrt(np.mean(2 * p) + np.var(n * omega * p))
    return ((4 / 3) ** 0.2 * sigma / math.sqrt(2 * p.max())) ** 5


def n_crit_factor(report: dict, p_values, n: int, omega: float) -> str:
    bound = n_crit_bound(p_values, n, omega)
    n_crit = report["n_crit"]
    _require(bound / N_CRIT_FACTOR <= n_crit <= bound * N_CRIT_FACTOR,
             f"N_crit {n_crit} not within x{N_CRIT_FACTOR} of {bound:.2f}")
    return f"N_crit {n_crit} against {bound:.2f}"


# ---------------------------------------------------------------------------
# contacts
# ---------------------------------------------------------------------------

def contacts_window_count(report: dict, recs: np.ndarray, window: int, step: int) -> str:
    t = recs[:, 0]
    count = (int(t.max()) - int(t.min()) - window) // step + 1
    members = sorted(i for v in report["clusters"].values() for i in v)
    _require(report["N"] == count and members == list(range(count)),
             f"clusters hold {len(members)} windows (N={report['N']}), "
             f"expected {count}")
    n = len(np.unique(recs[:, 1:]))
    _require(report["n"] == n, f"report n {report['n']} != {n} nodes")
    return f"{count} windows"


def brute_force_window(recs: np.ndarray, window: int, step: int, k: int) -> set:
    """Pairs in window k (0-based): any contact with t - t_min in
    [k step, k step + window), node ids renumbered in sorted order."""
    ids = np.unique(recs[:, 1:])
    rel = recs[:, 0] - recs[:, 0].min()
    sel = recs[(rel >= k * step) & (rel < k * step + window)]
    a = np.searchsorted(ids, sel[:, 1])
    b = np.searchsorted(ids, sel[:, 2])
    return {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist())}


def windows_match(graphs, recs: np.ndarray, window: int, step: int, picks) -> str:
    n = len(np.unique(recs[:, 1:]))
    for k in picks:
        g = graphs[k]
        got = set(map(tuple, np.asarray(g.edges).tolist()))
        want = brute_force_window(recs, window, step, k)
        _require(g.n == n and got == want,
                 f"window {k}: {len(got ^ want)} pairs differ from brute force")
    return f"windows {list(picks)} match"


def contacts_windows(path, recs, window: int, step: int, count: int, seed: int) -> str:
    """Windows from the public window_contacts equal the brute-force pair
    sets over our own records, on the first, the last and random windows."""
    from rpsbm import load_contacts, window_contacts

    graphs = window_contacts(load_contacts(path), window, step)
    rng = np.random.default_rng(seed)
    inner = rng.choice(np.arange(1, len(graphs) - 1), size=count - 2, replace=False)
    picks = [0, *sorted(int(k) for k in inner), len(graphs) - 1]
    return windows_match(graphs, recs, window, step, picks)


def contacts_counts(report: dict, planted: set) -> str:
    fitted = {int(k) for k in report["fits"]}
    _require(fitted == planted, f"fitted community counts {fitted} != {planted}")
    return f"fits {sorted(fitted)}"


def contacts_moment_matching(report: dict) -> str:
    worst = 0.0
    for count, fit in report["fits"].items():
        lam = np.asarray(fit["lambda_bar"])
        new = np.asarray(fit["lambda_bar_resampled"])
        rel = np.abs(new / lam - 1)
        _require(rel <= CONTACTS_RTOL,
                 f"fit {count}: resampled lambda_bar {new} vs {lam}")
        worst = max(worst, float(rel.max()))
    return f"max rel diff {worst:.3f}"
