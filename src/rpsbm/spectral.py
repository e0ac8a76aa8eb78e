"""Graphs, adjacency spectra, and the truncated spectral pseudometric."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Dense adjacency / dense eigensolver limits.  n <= DENSE_EIG uses LAPACK on
# the full matrix; above that the top-c eigenpairs come from ARPACK with a
# fixed start vector (tol=0 means machine-precision residuals, well inside
# the 1e-8 contract).
DENSE_EIG = 2048
DENSE_ADJ = 4096
ARPACK_TOL = 0.0


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
        i = np.minimum(e[:, 0], e[:, 1])
        j = np.maximum(e[:, 0], e[:, 1])
        order = np.lexsort((j, i))
        canon = np.unique(np.column_stack((i, j))[order], axis=0)
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


def _top_eigenvalues(g: Graph, c: int) -> np.ndarray:
    if g.n <= DENSE_EIG:
        w = np.linalg.eigvalsh(g.adjacency(dense=True))
        return w[::-1][:c]
    a = g.adjacency(dense=False)
    if c >= g.n - 1:
        w = np.linalg.eigvalsh(np.asarray(a.todense()))
        return w[::-1][:c]
    w = scipy.sparse.linalg.eigsh(
        a, k=c, which="LA", v0=np.ones(g.n), tol=ARPACK_TOL,
        return_eigenvectors=False,
    )
    return np.sort(w)[::-1]


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

    Returns (w, U) with U[:, j] the eigenvector of w[j].  Dense path below
    DENSE_EIG nodes, ARPACK (fixed start vector) above.
    """
    if not 1 <= k <= g.n:
        raise ValueError("k out of range")
    if g.n <= DENSE_EIG or k >= g.n - 1:
        w, v = np.linalg.eigh(g.adjacency(dense=True))
        return w[::-1][:k], v[:, ::-1][:, :k]
    w, v = scipy.sparse.linalg.eigsh(
        g.adjacency(dense=False), k=k, which="LA", v0=np.ones(g.n),
        tol=ARPACK_TOL,
    )
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


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
