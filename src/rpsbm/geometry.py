"""Per-graph community geometry from the Bethe Hessian.

A graph's geometry is its block-size vector s, non-increasing and summing to
one; its community count is len(s).  The Bethe Hessian
H(r) = (r^2 - 1) I - r A + D, with A the adjacency, D the degree matrix and
r = sqrt(<d^2>/<d> - 1), has one negative eigenvalue per detectable community
(Saade, Krzakala & Zdeborova 2014), so the count is the number of
eigenvalues of H at or below zero.  Below the non-backtracking threshold,
r <= 1, nothing is detectable (and isolated nodes would put the negative
r^2 - 1 on the diagonal), so the graph reads as one community, s = [1], as it
does when fewer than two eigenvalues lie at or below zero.

The nodes are then labelled from the k negative eigenvectors V by
column-pivoted QR (Damle, Minden & Ying 2019): the pivots pick k well-spread
nodes, the orthogonal polar factor of their rows rotates V towards one axis
per community, and each node takes the axis it leans on most.  The labels
depend only on the span of V, so neither the signs the eigensolver picks nor
a rotation inside a degenerate eigenspace can change them.  s is the sorted
label counts over n.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.linalg

from .spectral import Graph


def _pivoted_qr_labels(V: np.ndarray) -> np.ndarray:
    """Community label per row of the n x k basis V, a function of its span."""
    k = V.shape[1]
    piv = scipy.linalg.qr(V.T, mode="r", pivoting=True)[1][:k]
    u, _, vt = np.linalg.svd(V[piv].T)
    return np.argmax(np.abs(V @ (u @ vt)), axis=1)


def detect_geometry(g: Graph) -> np.ndarray:
    """The block fractions s of g from the Bethe Hessian, non-increasing;
    the community count is len(s).

    H is -r times the adjacency, its diagonal then set to r^2 - 1 + d.  The
    adjacency is taken transposed, which for a symmetric matrix is the same
    matrix in Fortran order, the layout LAPACK reads, so ``eigh`` solves H
    in place instead of copying it.  Its zeros are -0.0, the product -r * 0:
    the sign of a zero can steer LAPACK's Householder reflections, and with
    them the rounding.
    """
    one = np.array([1.0])
    if g.m == 0:
        return one
    d = np.bincount(g.edges.ravel(), minlength=g.n).astype(float)
    r2 = d @ d / d.sum() - 1.0
    if r2 <= 1.0:
        return one
    H = g.adjacency().T
    H *= -np.sqrt(r2)
    np.fill_diagonal(H, r2 - 1.0 + d)
    V = scipy.linalg.eigh(H, subset_by_value=(-np.inf, 0.0),
                          overwrite_a=True, check_finite=False)[1]
    if V.shape[1] < 2:
        return one
    counts = np.bincount(_pivoted_qr_labels(V))
    return np.sort(counts[counts > 0])[::-1] / g.n


def cluster_by_community_count(
        geometries: Sequence[np.ndarray]) -> dict[int, list[int]]:
    """Partition corpus indices by community count, the length of each
    graph's block-size vector s."""
    clusters: dict[int, list[int]] = {}
    for idx, s in enumerate(geometries):
        clusters.setdefault(len(s), []).append(idx)
    return clusters
