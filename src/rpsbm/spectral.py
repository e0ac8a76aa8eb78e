"""Graphs, adjacency spectra, and the truncated spectral pseudometric."""

from __future__ import annotations

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
# ARPACK starts from a fixed Gaussian vector: a structured start such as the
# all-ones vector is orthogonal to every antisymmetric eigenvector (the second
# eigenvector of a path, say), which Lanczos then never finds.  tol=0 means
# machine-precision residuals, well inside the 1e-8 contract.  The dense solver
# decides when ARPACK fails or the c-th Ritz value is <= 0: a graph with fewer
# than c positive eigenvalues has a large zero eigenspace that Lanczos can
# step over.
# ARPACK_MAXITER caps the implicit restarts.  Block-model draws converge in one
# restart (checked with maxiter=1 at n = 401 to 6000, c = 1 to 3), so 300
# leaves them a wide margin.  Clustered top eigenvalues (paths, cycles) can
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
ARPACK_MAXITER = 300


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    ``edges`` is an (m, 2) int array with i < j per row, lexicographically
    sorted and deduplicated, so the rows are also the entries of the upper
    triangle of the adjacency in CSR order, from which ARPACK's half-stored
    operator is built.  Input already in that form, as ``sample_sbm`` emits
    it, is copied and checked in O(m) without a sort; any other pair list is
    canonicalised.  Instances are immutable and safe to share.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self-loops are not allowed")
        # one int64 key per pair, min * n + max.  Canonical input (i < j in
        # every row, keys strictly increasing) is copied after an O(m) check;
        # other input is sorted, deduplicated by an adjacent difference, then
        # split back into (i, j) rows
        i, j = e[:, 0], e[:, 1]
        ordered = (i < j).all()
        key = (i * self.n + j if ordered
               else np.minimum(i, j) * self.n + np.maximum(i, j))
        if ordered and (key[1:] > key[:-1]).all():
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

    def relabel(self, perm: np.ndarray) -> "Graph":
        """Graph with node k renamed to perm[k]."""
        perm = np.asarray(perm)
        return Graph(self.n, perm[self.edges])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, np.empty((0, 2), dtype=np.int64))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        i, j = np.triu_indices(n, 1)
        return cls(n, np.column_stack((i, j)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        k = np.arange(n - 1)
        return cls(n, np.column_stack((k, k + 1)))


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
        if v.shape != (self.c,):
            raise ValueError("signature length must equal truncation order")
        if self.c > self.n:
            raise ValueError("truncation order exceeds graph size")
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


def _lanczos(g: Graph, k: int, return_eigenvectors: bool):
    """eigsh's top-k of the half-stored adjacency operator, or None where the
    dense solver must decide: ARPACK failed or hit its restart cap, or the
    k-th Ritz value is <= 0."""
    v0 = np.random.default_rng(ARPACK_SEED).standard_normal(g.n)
    try:
        res = scipy.sparse.linalg.eigsh(
            _adjacency_operator(g), k=k, which="LA", v0=v0, tol=ARPACK_TOL,
            maxiter=ARPACK_MAXITER, return_eigenvectors=return_eigenvectors,
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
        res = scipy.linalg.eigh(
            g.adjacency(), eigvals_only=not vectors,
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


def full_spectrum(g: Graph) -> SpectralSignature:
    """All n adjacency eigenvalues, non-increasing."""
    return spectrum(g, g.n)


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
            if parts[0] == "n":
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'n <count>'")
                n_header = int(parts[1])
                continue
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids")
            i, j = int(parts[0]), int(parts[1])
            pairs.append((i, j))
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = n_header if n_header is not None else (int(arr.max()) + 1 if arr.size else 1)
    return Graph(n, arr)
