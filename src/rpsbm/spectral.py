"""Graphs, adjacency spectra, and the truncated spectral pseudometric."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Dense adjacency / dense eigensolver limits.  n <= DENSE_EIG uses LAPACK on
# the full matrix; above that the top-c eigenpairs come from ARPACK (implicitly
# restarted Lanczos).  Measured at one BLAS thread on two-block SBM graphs,
# matrix construction included, c = 2: n = 100 dense 0.7 ms vs ARPACK 1.4 ms,
# n = 200 2.6 vs 2.8 ms, n = 400 12 vs 3.4 ms, n = 2000 945 vs 25 ms; the
# crossover lies near n = 200.  The cut-off sits at 400 so that graphs of a
# few hundred nodes (contact windows, the benchmark's 300-node test runs) keep
# their exact LAPACK values, where ARPACK would save a few ms per graph.
# ARPACK starts from a fixed Gaussian vector: a structured start such as the
# all-ones vector is orthogonal to every antisymmetric eigenvector (the second
# eigenvector of a path, say), which Lanczos then never finds.  tol=0 means
# machine-precision residuals, well inside the 1e-8 contract.  The dense solver
# decides when ARPACK fails or the c-th Ritz value is <= 0: a graph with fewer
# than c positive eigenvalues has a large zero eigenspace that Lanczos can
# step over.
DENSE_EIG = 400
DENSE_ADJ = 4096
ARPACK_TOL = 0.0
ARPACK_SEED = 20220705


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    ``edges`` is an (m, 2) int array with i < j per row, lexicographically
    sorted and deduplicated.  Instances are immutable and safe to share.
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
        # one int64 key per pair, min * n + max: sorted, deduplicated by an
        # adjacent difference, then split back into (i, j) rows
        i = np.minimum(e[:, 0], e[:, 1])
        j = np.maximum(e[:, 0], e[:, 1])
        key = np.sort(i * self.n + j)
        key = key[np.diff(key, prepend=-1) != 0]
        canon = np.column_stack(np.divmod(key, self.n))
        object.__setattr__(self, "edges", canon)
        self.edges.setflags(write=False)

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def adjacency(self, dense: bool | None = None):
        """Adjacency matrix; dense ndarray up to n=4096, CSR above."""
        if dense is None:
            dense = self.n <= DENSE_ADJ
        i, j = self.edges[:, 0], self.edges[:, 1]
        if dense:
            a = np.zeros((self.n, self.n))
            a[i, j] = 1.0
            a[j, i] = 1.0
            return a
        data = np.ones(2 * self.m)
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        return scipy.sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.n, self.n)
        )

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


def _lanczos(g: Graph, k: int, return_eigenvectors: bool):
    """eigsh's top-k of the sparse adjacency, or None where the dense solver
    must decide: ARPACK failed, or the k-th Ritz value is <= 0."""
    v0 = np.random.default_rng(ARPACK_SEED).standard_normal(g.n)
    try:
        res = scipy.sparse.linalg.eigsh(
            g.adjacency(dense=False), k=k, which="LA", v0=v0, tol=ARPACK_TOL,
            return_eigenvectors=return_eigenvectors,
        )
    except scipy.sparse.linalg.ArpackError:
        return None
    w = res[0] if return_eigenvectors else res
    return res if w.min() > 0 else None


def _top_eigenvalues(g: Graph, c: int) -> np.ndarray:
    if g.n > DENSE_EIG and c < g.n - 1:
        if g.m == 0:
            return np.zeros(c)
        w = _lanczos(g, c, return_eigenvectors=False)
        if w is not None:
            return np.sort(w)[::-1]
    w = np.linalg.eigvalsh(g.adjacency(dense=True))
    return w[::-1][:c]


def spectrum(g: Graph, c: int) -> SpectralSignature:
    """The c algebraically largest adjacency eigenvalues, non-increasing."""
    if not 1 <= c <= g.n:
        raise ValueError(f"truncation order must satisfy 1 <= c <= {g.n}")
    return SpectralSignature(_top_eigenvalues(g, c), c, g.n)


def full_spectrum(g: Graph) -> SpectralSignature:
    """All n adjacency eigenvalues, non-increasing."""
    return spectrum(g, g.n)


def eigenpairs(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues (non-increasing) and matching unit eigenvectors.

    Returns (w, U) with U[:, j] the eigenvector of w[j].  Dense path up to
    DENSE_EIG nodes, ARPACK (fixed start vector, dense fallback) above.
    """
    if not 1 <= k <= g.n:
        raise ValueError("k out of range")
    if g.n > DENSE_EIG and k < g.n - 1:
        res = _lanczos(g, k, return_eigenvectors=True)
        if res is not None:
            w, v = res
            order = np.argsort(w)[::-1]
            return w[order], v[:, order]
    w, v = np.linalg.eigh(g.adjacency(dense=True))
    return w[::-1][:k], v[:, ::-1][:, :k]


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
                n_header = int(parts[1])
                continue
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids")
            i, j = int(parts[0]), int(parts[1])
            pairs.append((i, j))
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = n_header if n_header is not None else (int(arr.max()) + 1 if arr.size else 1)
    return Graph(n, arr)
