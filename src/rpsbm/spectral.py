"""Graphs, adjacency spectra, and the truncated spectral pseudometric."""

from __future__ import annotations

import functools
import numbers
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# Dense eigensolver limit.  Both spectrum() and eigenpairs() go through _top,
# which holds no state between calls.  n <= DENSE_EIG asks LAPACK
# (scipy.linalg.eigh, driver syevr) for the top c eigenpairs of the full
# matrix; above that they come from ARPACK (implicitly restarted Lanczos).
# Measured at one BLAS thread on two-block SBM graphs (omega = 10/sqrt(n), min
# over runs), matrix construction included, c = 2: n = 100 top-c dense 0.3 ms
# vs ARPACK 0.6 ms, n = 200 1.4 vs 2.0 ms, n = 400 6.3 vs 1.2 ms, n = 2000 750
# vs 11 ms; the crossover lies between n = 200 and 300 (c = 3 moves it up: 5.9
# vs 8.0 ms at n = 400).  The cut-off sits at 400 so that graphs of a few
# hundred nodes (contact windows, the benchmark's 300-node test runs) keep
# their exact LAPACK values, where ARPACK would save a few ms per graph.
# ARPACK starts from _start(n): the unit all-ones vector plus
# ARPACK_START_WEIGHT times a unit Gaussian vector drawn from ARPACK_SEED,
# built once per n.  The Perron vector of a near-regular draw is almost
# constant, so a start close to it converges sooner: a c = 1 solve of a
# 500-node Erdos-Renyi draw (omega = 2/sqrt(n), p = 0.8, critical-n's draws)
# takes 21 operator applications, one Lanczos run of eigsh's default ncv,
# where a Gaussian start took 31, one implicit restart more.  The Gaussian
# part stays because the all-ones vector is orthogonal to every
# antisymmetric eigenvector (the second eigenvector of a path, say), which
# Lanczos then reaches only through rounding.  Applications per solve (one
# BLAS thread), Gaussian start -> weights 0.01 / 0.1 / 0.3 / 1: the c = 1
# draws above 31 -> 21 at every weight; c = 2 recoverability draws (n = 2000
# and 6000, the workloads' law) 21 -> 21; c = 3 on three equal blocks
# (n = 1000, omega = 0.1, p = 0.9, q = 0.05) 38 -> 38; c = 3 on the 401-node
# cycle 3060 -> 2970 / 2962 / 2916 / 3193.  The block-model counts are flat
# in the weight and the cycle's vary by rounding, so the weight is 0.1.
# tol=0 means machine-precision residuals, well inside the 1e-8 contract.
# It must stay 0: with tol = 1e-10 or 1e-12 the top 3 of the 401-node cycle
# came back (from the Gaussian start) with lambda_3 off by 7.4e-4, because
# Lanczos stops before it finds the second copy of a double eigenvalue
# (1e-14 is right again).
# The dense solver decides when ARPACK fails or the c-th Ritz value is <= 0: a
# graph with fewer than c positive eigenvalues has a large zero eigenspace
# that Lanczos can step over.
# ARPACK_MAXITER caps the implicit restarts.  Block-model draws converge in at
# most one restart (checked with maxiter=1 at n = 401 to 6000, c = 1 to 3), so
# 300 leaves them a wide margin.  Clustered top eigenvalues (paths, cycles) can
# need thousands: on a 2100-node path with c = 2, 300 restarts take about
# 0.3 s and the dense fallback then 1.2 s, where an uncapped solve takes
# 10.5 s.  One restart costs O(ncv m) against O(n^3) for the dense solve, so
# the cap's share of the fallback's cost shrinks as n grows.
# ARPACK sees the adjacency through its upper triangle U, A = U + U^T, applied
# as U^T x + U x (U^T is a CSC view of U's arrays).  The canonical edges are
# U's entries in CSR order already: rows ascending, columns ascending and
# distinct within a row.  So indptr is a binary search of the first column,
# and U is built with no COO conversion and no index sort.  Measured at one
# BLAS thread on two-block SBM draws (omega = 10/sqrt(n), min over runs): at
# n = 6000, c = 2, the build takes 3-5 ms where the full 2m-entry CSR took
# 37 ms, and build plus solve 32-44 ms against 66-74 ms; at n = 2000 7-9 ms
# against 10-14 ms.  The two half-products round differently from one pass
# over full rows, so ARPACK values move by about 1e-13.
DENSE_EIG = 400
ARPACK_TOL = 0.0
ARPACK_SEED = 20220705
ARPACK_START_WEIGHT = 0.1
ARPACK_MAXITER = 300


def check_node_count(n) -> None:
    """Refuse a node count that is not an integer; a bool is not a count."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"node count must be an integer, not {n!r}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1, n an integer but not a bool.

    ``edges`` is an (m, 2) int array with i < j per row, lexicographically
    sorted and deduplicated, so the rows are also the entries of the upper
    triangle of the adjacency in CSR order, from which ARPACK's half-stored
    operator is built.  Input already in that form is checked in O(m)
    without a sort.  It is then kept as it is when it is a read-only (m, 2)
    int64 array that owns its memory, as ``sample_sbm`` emits it, and copied
    otherwise; any other pair list of integers is canonicalised, and
    endpoints of any other type are refused.  Instances are immutable and
    safe to share.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        check_node_count(self.n)
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        # the largest pair key, (n - 2) n + n - 1, must fit int64
        if int(self.n) * (int(self.n) - 1) > INT64_BOUND:
            raise ValueError(f"{self.n} nodes exceed 3037000500, the most "
                             "whose pair keys fit int64")
        e = np.asarray(self.edges)
        if e.size and not np.issubdtype(e.dtype, np.integer):
            raise ValueError("edge endpoints must be integers below 2**63")
        e = e.astype(np.int64, copy=False)
        # even a no-op reshape returns a view, which owns no memory
        if e.ndim != 2 or e.shape[1] != 2:
            e = e.reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self-loops are not allowed")
        # one int64 key per pair, min * n + max.  Canonical input (i < j in
        # every row, keys strictly increasing) passes an O(m) check, then is
        # kept when it is read-only and owns its memory (sample_sbm's edges:
        # no 16m-byte copy) and copied otherwise; other input is sorted,
        # deduplicated by an adjacent difference, then split back into (i, j)
        # rows
        i, j = e[:, 0], e[:, 1]
        ordered = (i < j).all()
        key = (i * self.n + j if ordered
               else np.minimum(i, j) * self.n + np.maximum(i, j))
        if ordered and (key[1:] > key[:-1]).all():
            if e.flags.writeable or not e.flags.owndata:
                e = e.copy()
        else:
            key.sort()
            key = key[np.diff(key, prepend=-1) != 0]
            e = np.column_stack(np.divmod(key, self.n))
        object.__setattr__(self, "edges", e)
        self.edges.setflags(write=False)

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        a = np.zeros((self.n, self.n))
        a[i, j] = 1.0
        a[j, i] = 1.0
        return a


@dataclass(frozen=True)
class SpectralSignature:
    """Top-c adjacency eigenvalues of a graph, sorted non-increasing."""

    values: np.ndarray
    c: int
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)
        if not 1 <= self.c <= self.n:
            raise ValueError(f"truncation order must satisfy 1 <= c <= {self.n}")
        if v.shape != (self.c,):
            raise ValueError("signature length must equal truncation order")
        if np.any(np.diff(v) > 1e-9):
            raise ValueError("eigenvalues must be sorted non-increasing")


def density(g: Graph) -> float:
    """Edge density 2m / (n(n-1))."""
    if g.n < 2:
        raise ValueError("density needs n >= 2")
    return 2.0 * g.m / (g.n * (g.n - 1))


def _upper_adjacency(g: Graph) -> scipy.sparse.csr_matrix:
    """U, the upper triangle of g's adjacency, as CSR built from g.edges as
    they stand: the edges are sorted by row, so row i starts where i first
    appears in the first column, and its columns are already ascending."""
    i, j = g.edges[:, 0], g.edges[:, 1]
    indptr = np.searchsorted(i, np.arange(g.n + 1))
    return scipy.sparse.csr_matrix((np.ones(g.m), j, indptr), shape=(g.n, g.n))


def _adjacency_operator(g: Graph) -> scipy.sparse.linalg.LinearOperator:
    """x -> A x with A = U + U^T, from the half-stored U alone."""
    u = _upper_adjacency(g)
    ut = u.T
    return scipy.sparse.linalg.LinearOperator(
        (g.n, g.n), matvec=lambda x: ut @ x + u @ x, dtype=float)


@functools.lru_cache(maxsize=8)
def _start(n: int) -> np.ndarray:
    """ARPACK's start vector on n nodes, read-only: the unit all-ones vector
    plus ARPACK_START_WEIGHT times the unit fixed Gaussian."""
    z = np.random.default_rng(ARPACK_SEED).standard_normal(n)
    v0 = np.full(n, 1.0 / np.sqrt(n)) + ARPACK_START_WEIGHT / np.linalg.norm(z) * z
    v0.setflags(write=False)
    return v0


def _lanczos(g: Graph, k: int, return_eigenvectors: bool):
    """eigsh's top-k of the half-stored adjacency operator, started near the
    all-ones vector (``_start``; see the notes above DENSE_EIG), or None where
    the dense solver must decide: ARPACK failed or hit its restart cap, or
    the k-th Ritz value is <= 0."""
    try:
        res = scipy.sparse.linalg.eigsh(
            _adjacency_operator(g), k=k, which="LA", v0=_start(g.n),
            tol=ARPACK_TOL, maxiter=ARPACK_MAXITER,
            return_eigenvectors=return_eigenvectors,
        )
    except scipy.sparse.linalg.ArpackError:
        return None
    w = res[0] if return_eigenvectors else res
    return res if w.min() > 0 else None


def _top(g: Graph, k: int, vectors: bool):
    """The k algebraically largest adjacency eigenvalues, non-increasing, and
    with ``vectors`` the matching unit eigenvectors as columns: (w, U)."""
    res = None
    if g.n > DENSE_EIG and k < g.n - 1:
        if g.m == 0:
            w = np.zeros(k)
            return (w, np.eye(g.n, k)) if vectors else w
        res = _lanczos(g, k, vectors)
    if res is None:
        # A is symmetric, so its transpose is A in Fortran order, which
        # LAPACK overwrites in place instead of copying
        res = scipy.linalg.eigh(
            g.adjacency().T, eigvals_only=not vectors,
            subset_by_index=[g.n - k, g.n - 1], overwrite_a=True,
            check_finite=False)
    if not vectors:
        return np.sort(res)[::-1]
    w, v = res
    order = np.argsort(w, kind="stable")[::-1]
    return w[order], v[:, order]


def spectrum(g: Graph, c: int) -> SpectralSignature:
    """The c algebraically largest adjacency eigenvalues, non-increasing."""
    if not 1 <= c <= g.n:
        raise ValueError(f"truncation order must satisfy 1 <= c <= {g.n}")
    return SpectralSignature(_top(g, c, vectors=False), c, g.n)


def eigenpairs(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues (non-increasing) and matching unit eigenvectors.

    Returns (w, U) with U[:, j] the eigenvector of w[j], from the same solve
    as ``spectrum``: LAPACK for the top k only up to DENSE_EIG nodes, ARPACK
    on the half-stored adjacency above it.
    """
    if not 1 <= k <= g.n:
        raise ValueError("k out of range")
    return _top(g, k, vectors=True)


def dist_truncated(a: SpectralSignature, b: SpectralSignature) -> float:
    """l2 distance between truncated spectra (pseudometric)."""
    if a.c != b.c:
        raise ValueError("mismatched truncation orders")
    return float(np.linalg.norm(a.values - b.values))


# ---------------------------------------------------------------------------
# Edge-list file format: one "i j" pair per line (0-indexed), optional header
# "n <count>" fixing the node count (needed for trailing isolated nodes);
# duplicates and reversed pairs are collapsed on load.
# ---------------------------------------------------------------------------

#: Every integer the package reads must lie below this in magnitude, since
#: numpy keeps ids, times, counts and sizes as int64.
INT64_BOUND = 2**63


def _parse_int(text: str) -> int:
    """``int(text)``; a value of magnitude ``INT64_BOUND`` or more raises
    ``ValueError``."""
    value = int(text)
    if abs(value) >= INT64_BOUND:
        raise ValueError(f"{text!r} is not an integer of magnitude below 2**63")
    return value


def save_edgelist(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def load_edgelist(path: str | os.PathLike) -> Graph:
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
