"""Reference computations the tests compare the package against.

Each is an independent route to a quantity the package computes another way
(a block sum, a discretized operator, a pointwise kernel, a text file read
one line at a time), a diagnostic only the tests read (the full spectrum,
the total Frechet variance), or a fixture graph (complete, path).
"""

import math
import warnings

import numpy as np

from rpsbm import (
    Graph,
    SbmParams,
    SpectralSignature,
    compute_moments,
    expected_spectrum,
    limiting_covariance,
    spectrum,
)
from rpsbm import ContactStream, rng
from rpsbm.models import block_labels
from rpsbm.spectral import INT64_BOUND, _parse_int


def complete_graph(n: int) -> Graph:
    """K_n."""
    i, j = np.triu_indices(n, 1)
    return Graph(n, np.column_stack((i, j)))


def path_graph(n: int) -> Graph:
    """The path 0 - 1 - ... - (n-1)."""
    k = np.arange(n - 1)
    return Graph(n, np.column_stack((k, k + 1)))


def full_spectrum(g: Graph) -> SpectralSignature:
    """All n adjacency eigenvalues, non-increasing."""
    return spectrum(g, g.n)


def frechet_total_variance(corpus, c: int) -> float:
    """Sample total variance around the spectral proxy of the Frechet mean.

    (1/(N-1)) * sum_k ||lambda^(k) - lambda_bar||^2; equals trace of the
    sample covariance up to floating error.
    """
    if len(corpus) < 2:
        raise ValueError("total variance needs at least two graphs")
    m = compute_moments(corpus, c)
    diff = m.spectra - m.mean_spectrum
    return float(np.sum(diff * diff) / (m.N - 1))


def canonical_kernel_value(params: SbmParams, x: float, y: float) -> float:
    """Piecewise-constant block kernel f(x, y) for x, y in [0, 1)."""
    if not (0 <= x < 1 and 0 <= y < 1):
        raise ValueError("kernel arguments must lie in [0, 1)")
    cum = np.cumsum(params.s)
    bx = int(np.searchsorted(cum, x, side="right"))
    by = int(np.searchsorted(cum, y, side="right"))
    return float(params.p[bx]) if bx == by else float(params.q)


def block_kernel(params: SbmParams) -> np.ndarray:
    """f(x_m*, x_w*) on the c x c block grid: p_m where m = w, q elsewhere."""
    return np.array([[params.p[m] if m == w else params.q
                      for w in range(params.c)] for m in range(params.c)])


def block_matrix(params: SbmParams) -> np.ndarray:
    """M = diag(sqrt(s)) f diag(sqrt(s)): s_i p_i on the diagonal,
    sqrt(s_i s_j) q off it."""
    return np.sqrt(np.outer(params.s, params.s)) * block_kernel(params)


def covariance_block_integral(params: SbmParams) -> np.ndarray:
    """Block-sum evaluation of 2 iint r_i r_i r_j r_j f dx dy.

    Independent path: sums the kernel over the c x c block grid with weights
    s_m s_w and eigenfunction values r_k(x_m*) = v_k(m)/sqrt(s_m), from its
    own decomposition of M, for cross-checking ``limiting_covariance``.  The
    covariance does not depend on the eigenvectors' signs.
    """
    V = np.linalg.eigh(block_matrix(params))[1]
    s = params.s
    r = (V[:, ::-1] / np.sqrt(s)[:, None]).T    # r[k, m], nu non-increasing
    f = block_kernel(params)
    c = params.c
    cov = np.empty((c, c))
    for i in range(c):
        for j in range(c):
            total = 0.0
            for m in range(c):
                for w in range(c):
                    total += (
                        s[m] * s[w]
                        * r[i, m] * r[j, m]
                        * f[m, w]
                        * r[i, w] * r[j, w]
                    )
            cov[i, j] = 2.0 * total
    return cov


def expected_spectrum_elementwise(params: SbmParams, n: int) -> np.ndarray:
    """E[lambda_i] from the source's element-wise B2 sum, one target at a time.

    Independent path for ``expected_spectrum``: its own decomposition of M,
    the vector t = V (nu .* (V^T sqrt(s))), and
    B2[j, l] = sqrt(nu_j nu_l) sum_m v_j(m) v_l(m) t_m / sqrt(s_m), one pair
    at a time; then one eigvalsh of B*_i = diag(n omega nu) + B2 / nu_i^2 per
    target i.  B*_i's eigenvalues do not depend on the eigenvectors' signs.
    """
    nu, V = np.linalg.eigh(block_matrix(params))
    nu, V = nu[::-1], V[:, ::-1]
    sqrt_s = np.sqrt(params.s)
    t = V @ (nu * (sqrt_s @ V))
    c = params.c
    b2 = np.empty((c, c))
    for j in range(c):
        for l in range(c):
            core = np.sum(V[:, j] * V[:, l] * t / sqrt_s)
            b2[j, l] = np.sqrt(nu[j] * nu[l]) * core
    lead = np.diag(n * params.omega * nu)
    return np.array([np.linalg.eigvalsh(lead + b2 / nu[i] ** 2)[::-1][i]
                     for i in range(c)])


def kernel_operator_eigenvalues(params: SbmParams, grid: int = 512) -> np.ndarray:
    """Top-c eigenvalues of the midpoint-discretized kernel operator.

    Independent check that theta_k = nu_k: the operator L_f acting on
    piecewise functions is discretized on ``grid`` midpoints with weight
    1/grid; its top-c eigenvalues converge to nu as the grid refines.
    """
    x = (np.arange(grid) + 0.5) / grid
    cum = np.cumsum(params.s)
    lab = np.searchsorted(cum, x, side="right").clip(0, params.c - 1)
    T = block_kernel(params)[np.ix_(lab, lab)] / grid
    w = np.linalg.eigvalsh(T)
    return w[::-1][: params.c]


def first_order_check(params: SbmParams, n: int) -> dict:
    """Per-index errors of the first-order approximations.

    Assumes the q = epsilon * min(p) regime with blocks ordered so that
    s_i p_i is non-increasing.  Reports |E[lambda_i]/(n omega s_i) - p_i|
    and |Cov(Z_i, Z_i) - 2 p_i|.
    """
    cov = limiting_covariance(params)
    lam = expected_spectrum(params, n)
    mean_err = np.abs(lam / (n * params.omega * params.s) - params.p)
    cov_err = np.abs(np.diag(cov) - 2.0 * params.p)
    return {"mean_error": mean_err, "cov_error": cov_err}


def triangle_cells(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unrank cells of a triangle in column-major order: cell t is the pair
    (i, j), i < j, with t = j(j - 1)/2 + i.

    Closed form, against the sampler's row-offset search: j is the floor of
    r = (1 + sqrt(8t + 1))/2.  Exact while j(j - 1) fits int64 (blocks of
    fewer than 3.03e9 nodes): r in floats is off by less than 1e-5 there, so
    the floor of r - 1/2 is j or j - 1, and one integer step up settles which.
    """
    t = np.asarray(t, dtype=np.int64)
    j = (np.sqrt(8.0 * t + 1.0) / 2.0).astype(np.int64)
    i = t - j * (j - 1) // 2
    up = i >= j
    i -= up * j
    j += up
    return i, j


def contract_edges(params: SbmParams, n: int, seed: int, graph_index: int) -> np.ndarray:
    """The SBM edge draw as the (g, PAIRS) contract in ``rpsbm.rng`` states
    it, one gap at a time in Python integers: blocks in row-major order,
    gaps in chunks of floor(R P + 4 sqrt(R P)) + 16, cells unranked with
    ``triangle_cells`` (reflected) and ``divmod``; rows in canonical order."""
    sizes = np.bincount(block_labels(params.s, n), minlength=params.c)
    starts = np.cumsum(sizes) - sizes
    gen = rng.pair_stream(seed, graph_index)
    edges = []
    for a in range(params.c):
        for b in range(a, params.c):
            na, nb = int(sizes[a]), int(sizes[b])
            cells = na * (na - 1) // 2 if a == b else na * nb
            prob = min(params.omega * (params.p[a] if a == b else params.q), 1.0)
            t, pos = [], -1
            while cells and prob > 0 and pos < cells:
                mean = (cells - 1 - pos) * prob
                for gap in gen.geometric(prob, int(mean + 4 * math.sqrt(mean)) + 16):
                    pos += int(gap)
                    if pos >= cells:
                        break
                    t.append(pos)
            t = np.array(t, dtype=np.int64)
            if a == b:
                i, j = triangle_cells(cells - 1 - t)
                i, j = na - 1 - j, na - 1 - i
            else:
                i, j = np.divmod(t, nb)
            edges += zip((starts[a] + i).tolist(), (starts[b] + j).tolist())
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def load_contacts_lines(path) -> ContactStream:
    """``load_contacts`` as one Python loop over the lines of any file: the
    reference for both of its reading paths."""
    rows = []
    extra_seen = False
    dropped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if len(parts) < 3:
                    raise ValueError("expected 't i j'")
                t, i, j = map(_parse_int, parts[:3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(parts) > 3:
                extra_seen = True
            if i == j:
                dropped += 1
                continue
            rows.append((t, i, j))
    if extra_seen:
        warnings.warn("contact file has extra columns; ignored")
    if dropped:
        warnings.warn(f"dropped {dropped} self-contact records")
    if not rows:
        raise ValueError("empty contact stream")
    arr = np.asarray(rows, dtype=np.int64)
    span = int(arr[:, 0].max()) - int(arr[:, 0].min())
    if span >= INT64_BOUND:
        raise ValueError(f"{path}: contact time span {span} reaches 2**63")
    ids = np.unique(arr[:, 1:3])
    node_map = {int(v): k for k, v in enumerate(ids)}
    remap = np.searchsorted(ids, arr[:, 1:3])
    arr = np.column_stack([arr[:, 0], remap])
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    return ContactStream(records=arr, node_map=node_map)


def load_edgelist_lines(path) -> Graph:
    """``load_edgelist`` as one Python loop over the lines of any file,
    without its rules on a second "n" header and on extra columns."""
    n_header = None
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "n":
                    if len(parts) != 2:
                        raise ValueError("expected 'n <count>'")
                    n_header = _parse_int(parts[1])
                elif len(parts) < 2:
                    raise ValueError("expected two node ids")
                else:
                    pairs.append((_parse_int(parts[0]), _parse_int(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = n_header if n_header is not None else (int(arr.max()) + 1 if arr.size else 1)
    try:
        return Graph(n, arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
