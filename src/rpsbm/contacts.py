"""Temporal contact streams and sliding-window graph extraction.

Input format: whitespace-separated "t i j" lines (seconds, two node ids);
extra columns are ignored with a warning, a line whose first token starts
with "#" is a comment, and self-contacts are dropped with a warning.  A
clean file is read by ``np.loadtxt`` (see the notes on the edge-list format
in ``spectral``): an ASCII file where every "#" follows nothing but
whitespace on its line, and every other non-blank line holds the same
number (at least 3) of int64 values in decimal digits with an optional
sign.  Any other file goes to the line reader, which names the line of an
error.

Windows are half-open [start, start + window) and anchored at the stream's
earliest timestamp; window k (1-indexed) starts at step*(k-1).  Only fully
observed windows are emitted: the count is floor((t_max - window)/step) + 1,
clipped at 0.

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
from .spectral import INT64_BOUND, Graph, _loadtxt, _parse_int


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


def _comments_lead_their_lines(raw: bytes) -> bool:
    """Whether every ``#`` in ``raw`` comes after nothing but ASCII
    whitespace on its line, so that the line is a comment to both readers.
    ``np.loadtxt`` would cut a line at a later ``#`` that the line reader
    reads as a column."""
    raw = raw.replace(b"\r", b"\n")
    at = raw.find(b"#")
    while at >= 0:
        if raw[raw.rfind(b"\n", 0, at) + 1:at].strip():
            return False
        end = raw.find(b"\n", at)
        at = -1 if end < 0 else raw.find(b"#", end)
    return True


def _read_clean(path) -> tuple[np.ndarray, bool] | None:
    """The (t, i, j) rows and whether the lines have extra columns, from
    ``np.loadtxt`` (see ``spectral._loadtxt``); None for a file the line
    reader must read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not _comments_lead_their_lines(raw):
        return None
    with open(path, encoding="ascii") as fh:
        arr = _loadtxt(fh, 3, "#")
    return None if arr is None else (arr[:, :3], arr.shape[1] > 3)


def _read_lines(path) -> tuple[np.ndarray, bool]:
    """The (t, i, j) rows and whether any line has extra columns, one line
    at a time; an error names its ``path:line``."""
    rows = []
    extra_seen = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if len(parts) < 3:
                    raise ValueError("expected 't i j'")
                rows.append(tuple(map(_parse_int, parts[:3])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            extra_seen |= len(parts) > 3
    return np.array(rows, dtype=np.int64).reshape(-1, 3), extra_seen


def load_contacts(path) -> ContactStream:
    arr, extra_seen = _read_clean(path) or _read_lines(path)
    if extra_seen:
        warnings.warn("contact file has extra columns; ignored")
    self_contact = arr[:, 1] == arr[:, 2]
    dropped = int(np.count_nonzero(self_contact))
    if dropped:
        warnings.warn(f"dropped {dropped} self-contact records")
        arr = arr[~self_contact]
    if not len(arr):
        raise ValueError("empty contact stream")
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
