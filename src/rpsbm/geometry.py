"""Per-graph community geometry from extremal eigenvector profiles.

The number of extremal eigenvalues K (those exceeding |lambda_min|) bounds
the visible community structure.  Each extremal eigenvector concentrates on
a block, so its sorted entries form a staircase whose steps sit at cumulative
block sizes -- independent of node labelling.  Segmenting the sorted curves
and mapping segment lengths to block fractions recovers the geometry vector.

Segmentation is binary with two acceptance gates per split: a BIC-style
absolute floor (beta * log n * sigma^2) and a relative SSE-gain threshold
(tau).  The relative gate is what separates genuine level breaks from the
~0.64 relative gain that any sorted noise curve (an order-statistic ramp)
yields under a piecewise-constant model.  Change points closer than
ceil(lambda_1) to each other are merged to their average, and points closer
than that to either end are dropped: a community cannot hold fewer nodes
than its eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import DENSE_EIG, Graph, eigenpairs, full_spectrum

LOG_FLOOR = 1e-12
DEGENERATE_GAP = 1e-8
DEFAULT_TAU = 0.70
DEFAULT_BETA = 2.0


@dataclass(frozen=True)
class GeometryEstimate:
    """Detected block structure of one graph."""

    K: int
    change_points: tuple[int, ...]
    s: np.ndarray
    community_count: int

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "change_points": list(self.change_points),
            "s": self.s.tolist(),
            "community_count": self.community_count,
        }


def extremal_count(g: Graph) -> int:
    """Number of eigenvalues strictly above |lambda_min|."""
    if g.n < 2:
        raise ValueError("need at least two nodes")
    return _count_extremal(full_spectrum(g).values)


def _count_extremal(w: np.ndarray) -> int:
    """Entries of a full non-increasing spectrum strictly above |lambda_min|."""
    return int(np.sum(w > abs(w[-1])))


def _extremal_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The K extremal eigenvalues, non-increasing, and their eigenvectors.

    Up to DENSE_EIG nodes one dense eigh gives both.  Above it an eigh costs
    about 2.4 times an eigvalsh, so K comes from the full spectrum and the K
    vectors from ARPACK.
    """
    if g.n > DENSE_EIG:
        K = extremal_count(g)
        return eigenpairs(g, K) if K else (np.empty(0), np.empty((g.n, 0)))
    if g.n < 2:
        raise ValueError("need at least two nodes")
    w, U = eigenpairs(g, g.n)
    K = _count_extremal(w)
    return w[:K], U[:, :K]


def _degenerate_clusters(w: np.ndarray) -> list[list[int]]:
    """Group indices of (near-)equal eigenvalues; vectors there are not
    individually defined, only their invariant subspace is."""
    clusters = [[0]]
    for j in range(1, len(w)):
        if abs(w[j - 1] - w[j]) < DEGENERATE_GAP:
            clusters[-1].append(j)
        else:
            clusters.append([j])
    return clusters


def _invariant_columns(w: np.ndarray, U: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cols with every column of a degenerate cluster replaced, in place, by
    the rotation-invariant sqrt(diag(projector)/size)."""
    for cluster in _degenerate_clusters(w):
        if len(cluster) > 1:
            cols[:, cluster] = np.sqrt((U[:, cluster] ** 2).sum(axis=1)
                                       / len(cluster))[:, None]
    return cols


def eigenvector_profile(g: Graph, K: int) -> np.ndarray:
    """Sum over the top-K eigenvectors of log sorted node magnitudes.

    Each eigenvector's |entries| are sorted ascending before the log, so the
    profile is a label-free staircase with steps at cumulative block sizes.
    Sign flips of any eigenvector leave it unchanged.
    """
    if K < 1:
        raise ValueError("K must be positive")
    w, U = eigenpairs(g, K)
    mags = _invariant_columns(w, U, np.abs(U))
    return np.log(np.sort(mags, axis=0) + LOG_FLOOR).sum(axis=1)


def _detection_channels(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Sorted signed eigenvector curves, standardized per channel.

    Signed values keep the block separation even when magnitudes coincide
    (mixing angle near pi/4 for symmetric blocks); degenerate clusters fall
    back to the unsigned invariant magnitudes.
    """
    C = np.sort(_invariant_columns(w, U, U.copy()), axis=0)
    sd = C.std(axis=0)
    sd[sd < 1e-15] = 1.0
    return C / sd


def _best_joint_split(Y: np.ndarray, min_len: int):
    """Best shared split of multichannel data under per-segment constants.

    Returns (index, absolute gain, relative gain, total SSE); index is the
    first point of the right segment.
    """
    n = Y.shape[0]
    if n < 2 * min_len:
        return None, 0.0, 0.0, 0.0
    c1 = np.cumsum(Y, axis=0)
    c2 = np.cumsum(Y * Y, axis=0)
    tot = float((c2[-1] - c1[-1] ** 2 / n).sum())
    if tot <= 0.0:
        return None, 0.0, 0.0, tot
    ks = np.arange(min_len, n - min_len + 1)
    if len(ks) == 0:
        return None, 0.0, 0.0, tot
    kk = ks[:, None]
    left = c2[ks - 1] - c1[ks - 1] ** 2 / kk
    right = (c2[-1] - c2[ks - 1]) - (c1[-1] - c1[ks - 1]) ** 2 / (n - kk)
    sse = (left + right).sum(axis=1)
    j = int(np.argmin(sse))
    gain = tot - float(sse[j])
    return int(ks[j]), gain, gain / tot, tot


def _noise_scale(Y: np.ndarray) -> float:
    """Robust per-point noise variance from channel increments."""
    d = np.diff(Y, axis=0)
    if d.size == 0:
        return 0.0
    mad = np.median(np.abs(d - np.median(d)))
    return float((1.4826 * mad) ** 2 / 2.0)


def segment_profile(Y: np.ndarray, min_len: int = 2, tau: float = DEFAULT_TAU,
                    beta: float = DEFAULT_BETA) -> list[int]:
    """Binary segmentation of a (possibly multichannel) sorted profile."""
    if Y.ndim == 1:
        Y = Y[:, None]
    n = Y.shape[0]
    floor = beta * np.log(max(n, 2)) * _noise_scale(Y)
    points: list[int] = []
    stack = [(0, n)]
    while stack:
        a, b = stack.pop()
        k, gain, rel, _ = _best_joint_split(Y[a:b], min_len)
        if k is None or rel < tau or gain <= floor:
            continue
        points.append(a + k)
        stack.append((a, a + k))
        stack.append((a + k, b))
    return sorted(points)


def merge_change_points(points: Sequence[int], n: int, min_gap: int) -> list[int]:
    """Average adjacent points closer than min_gap; drop points within
    min_gap of either end (block size >= ceil(lambda_1))."""
    pts = sorted(int(p) for p in points)
    merged = True
    while merged and len(pts) > 1:
        merged = False
        for i in range(len(pts) - 1):
            if pts[i + 1] - pts[i] < min_gap:
                pts = pts[:i] + [(pts[i] + pts[i + 1]) // 2] + pts[i + 2:]
                merged = True
                break
    return [p for p in pts if p >= min_gap and n - p >= min_gap]


def detect_geometry(g: Graph, tau: float = DEFAULT_TAU,
                    beta: float = DEFAULT_BETA) -> GeometryEstimate:
    """Estimate K, change points, and the block-fraction vector s."""
    w, U = _extremal_pairs(g)
    K = len(w)
    if K == 0:
        return GeometryEstimate(K=0, change_points=(), s=np.array([1.0]),
                                community_count=1)
    Y = _detection_channels(w, U)
    lam1 = max(w[0], 0.0)
    gap = max(int(np.ceil(lam1)), 1)
    min_len = max(2, min(gap, g.n // 2))
    points = segment_profile(Y, min_len=min_len, tau=tau, beta=beta)
    points = merge_change_points(points, g.n, gap)
    bounds = [0, *points, g.n]
    sizes = np.diff(bounds)
    s = np.sort(sizes / g.n)[::-1]
    return GeometryEstimate(K=K, change_points=tuple(points), s=s,
                            community_count=len(sizes))


def cluster_by_community_count(
        estimates: Sequence[GeometryEstimate]) -> dict[int, list[int]]:
    """Partition corpus indices by detected community count."""
    clusters: dict[int, list[int]] = {}
    for idx, est in enumerate(estimates):
        clusters.setdefault(est.community_count, []).append(idx)
    return clusters
