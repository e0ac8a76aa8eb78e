"""Temporal contact streams and sliding-window graph extraction.

Input format: whitespace-separated "t i j" lines (seconds, two node ids);
extra columns are ignored with a warning.  Windows are half-open
[start, start + window) and anchored at the stream's earliest timestamp;
window k (1-indexed) starts at step*(k-1).  Only fully observed windows are
emitted: the count is floor((t_max - window)/step) + 1, clipped at 0.

``window_contacts`` returns the windows as a lazy corpus: each window is
known by its slice of the time-sorted records, and its graph is cut from
them only when it is read.  No window outlives its reader, and a forked
worker that reads a window cuts it from the records it inherited.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .models import LazyCorpus
from .spectral import INT64_BOUND, Graph, _parse_int


@dataclass(frozen=True)
class ContactStream:
    """Time-stamped contacts with a fixed node relabelling.

    ``records`` is an (r, 3) int array of (t, i, j) rows sorted by t, with
    node ids already mapped through ``node_map`` (sorted original ids ->
    0..n-1).
    """

    records: np.ndarray
    node_map: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.node_map)

    @property
    def t_min(self) -> int:
        return int(self.records[0, 0])

    @property
    def t_max(self) -> int:
        return int(self.records[-1, 0])


def load_contacts(path) -> ContactStream:
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
    # times are windowed relative to t_min in int64; each window's start and
    # end lie within the span, so the span alone must fit
    span = int(arr[:, 0].max()) - int(arr[:, 0].min())
    if span >= INT64_BOUND:
        raise ValueError(f"{path}: contact time span {span} reaches 2**63")
    ids = np.unique(arr[:, 1:3])
    node_map = {int(v): k for k, v in enumerate(ids)}
    remap = np.searchsorted(ids, arr[:, 1:3])
    arr = np.column_stack([arr[:, 0], remap])
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    return ContactStream(records=arr, node_map=node_map)


def window_count(stream: ContactStream, window: int, step: int) -> int:
    span = stream.t_max - stream.t_min
    return max(0, (span - window) // step + 1)


def _window(n: int, pairs: np.ndarray, rows: slice) -> Graph:
    """The graph of the contact pairs ``pairs[rows]`` on n nodes."""
    return Graph(n, pairs[rows])


def window_contacts(stream: ContactStream, window: int, step: int) -> LazyCorpus:
    """Graphs over sliding windows; edge (i,j) in graph k iff some contact
    with that pair has t in [step*(k-1), window + step*(k-1)).

    The result is a lazy corpus keyed by each window's slice of
    ``stream.records``: graph k is cut when item k is read, and nothing
    keeps it, so iterating the windows holds one at a time.  It keeps a
    copy of the records' (i, j) columns.
    """
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    if stream.records.size == 0:
        raise ValueError("empty contact stream")
    starts = step * np.arange(window_count(stream, window, step))
    t = stream.records[:, 0] - stream.t_min
    # t is sorted, so each window's records are one slice
    lo = np.searchsorted(t, starts, side="left")
    hi = np.searchsorted(t, starts + window, side="left")
    # the (i, j) columns as one contiguous array: Graph checks and sorts a
    # window's rows about 30 % faster from it than from the strided columns
    # of the records, and every window is cut twice in ``run_contacts``
    pairs = np.ascontiguousarray(stream.records[:, 1:3])
    return LazyCorpus(functools.partial(_window, stream.n, pairs),
                      [slice(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
