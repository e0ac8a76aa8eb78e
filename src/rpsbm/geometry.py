"""Per-graph community geometry from the Bethe Hessian.

The Bethe Hessian H(r) = (r^2 - 1) I - r A + D, with D the degree matrix and
r = sqrt(<d^2>/<d> - 1), has one negative eigenvalue per detectable community
(Saade, Krzakala & Zdeborova 2014), so the community count is the number of
eigenvalues of H at or below zero.  Below the non-backtracking threshold,
r <= 1, nothing is detectable (and isolated nodes would put the negative
r^2 - 1 on the diagonal), so the graph reads as one community, as it does
when fewer than two eigenvalues lie at or below zero.

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
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spectral import Graph


@dataclass(frozen=True)
class GeometryEstimate:
    """Detected block fractions of one graph, non-increasing."""

    s: np.ndarray

    @property
    def community_count(self) -> int:
        return len(self.s)

    def to_dict(self) -> dict:
        return {"s": self.s.tolist(), "community_count": self.community_count}


def _pivoted_qr_labels(V: np.ndarray) -> np.ndarray:
    """Community label per row of the n x k basis V, a function of its span."""
    k = V.shape[1]
    piv = scipy.linalg.qr(V.T, mode="r", pivoting=True)[1][:k]
    u, _, vt = np.linalg.svd(V[piv].T)
    return np.argmax(np.abs(V @ (u @ vt)), axis=1)


def detect_geometry(g: Graph) -> GeometryEstimate:
    """Community count and block fractions s from the Bethe Hessian.

    H is built in a new n x n float array in Fortran order, the layout
    LAPACK reads, so ``eigh`` solves H in place instead of copying it.  Its
    zeros are written as -0.0, the product -r * 0, which is what -r A with
    its diagonal then set holds: the sign of a zero can steer LAPACK's
    Householder reflections, and with them the rounding.
    """
    one = GeometryEstimate(s=np.array([1.0]))
    if g.m == 0:
        return one
    d = np.bincount(g.edges.ravel(), minlength=g.n).astype(float)
    r2 = d @ d / d.sum() - 1.0
    if r2 <= 1.0:
        return one
    r = np.sqrt(r2)
    H = np.full((g.n, g.n), -0.0, order="F")
    i, j = g.edges[:, 0], g.edges[:, 1]
    H[i, j] = -r
    H[j, i] = -r
    np.fill_diagonal(H, r2 - 1.0 + d)
    V = scipy.linalg.eigh(H, subset_by_value=(-np.inf, 0.0),
                          overwrite_a=True, check_finite=False)[1]
    if V.shape[1] < 2:
        return one
    counts = np.bincount(_pivoted_qr_labels(V))
    return GeometryEstimate(s=np.sort(counts[counts > 0])[::-1] / g.n)


def cluster_by_community_count(
        estimates: Sequence[GeometryEstimate]) -> dict[int, list[int]]:
    """Partition corpus indices by detected community count."""
    clusters: dict[int, list[int]] = {}
    for idx, est in enumerate(estimates):
        clusters.setdefault(est.community_count, []).append(idx)
    return clusters
