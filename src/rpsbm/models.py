"""Stochastic block models, random-parameter SBMs, and graph sampling.

An SBM kernel is piecewise constant on the blocks cut out of [0,1) by the
cumulative community-size vector s; node i sits at x = i/n.  Edge (i,j)
appears independently with probability omega * f(i/n, j/n).  The
random-parameter variant redraws the within-community density vector p from
a law J per sampled graph and couples blocks through q = epsilon * min(p).
"""

from __future__ import annotations

import functools
import json
import numbers
import sys
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rngmod
from .spectral import INT64_BOUND, Graph, check_node_count


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


def check_block_sizes(s: np.ndarray) -> np.ndarray:
    """Refuse sizes unless positive and summing to 1 within 1e-12 (NaN fails)."""
    if not (np.all(s > 0) and abs(s.sum() - 1.0) <= 1e-12):
        raise ValueError("community sizes must be positive and sum to 1")
    return s


def _block_geometry(model) -> np.ndarray:
    """Store ``model.s`` as a read-only 1-D float vector and check the block
    geometry that ``SbmParams`` and ``RpsbmModel`` share: at least one
    community, ``check_block_sizes`` and omega in (0, 1], NaN failing each."""
    s = _as_vector(model.s, "s")
    object.__setattr__(model, "s", s)
    s.setflags(write=False)
    if len(s) < 1:
        raise ValueError("need at least one community")
    check_block_sizes(s)
    if not 0 < model.omega <= 1:
        raise ValueError("omega must lie in (0, 1]")
    return s


@dataclass(frozen=True)
class SbmParams:
    """Deterministic SBM parameters (omega, p, q, s).

    ``s`` must sum to 1.  Individual p_i may exceed 1 as long as every edge
    probability omega*p_i (and omega*q) stays in [0,1]; (omega, f) pairs are
    only defined up to the rescaling (C*omega, f/C).
    """

    omega: float
    s: np.ndarray
    p: np.ndarray
    q: float

    def __post_init__(self):
        s = _block_geometry(self)
        p = _as_vector(self.p, "p")
        object.__setattr__(self, "p", p)
        p.setflags(write=False)
        if len(s) != len(p):
            raise ValueError("s and p must have equal length")
        if not (self.q >= 0 and np.all(p >= 0)):  # NaN fails too
            raise ValueError("densities must be non-negative")
        if self.omega * max(p.max(), self.q) > 1 + 1e-12:
            raise ValueError("edge probability omega*max(p, q) exceeds 1")

    @property
    def c(self) -> int:
        return len(self.s)


def block_labels(s: np.ndarray, n: int) -> np.ndarray:
    """Block index of each node under the x = i/n embedding."""
    cum = np.cumsum(np.asarray(s, dtype=float))
    return np.searchsorted(cum, np.arange(n) / n, side="right").clip(0, len(cum) - 1)


# ---------------------------------------------------------------------------
# Parameter laws J
# ---------------------------------------------------------------------------

class ParamLaw:
    """A law J of the density vector p, the base of the three laws below.

    A law is a frozen dataclass with a class attribute ``kind``, its JSON
    name, and fields that are its JSON keys.  Its ``__post_init__`` calls
    this one first, which stores every field as a finite 1-D float vector,
    checks that all fields share one length and sets ``c`` to it, the block
    count; the law then checks its own rules.  A law draws p with
    ``draw(gen)`` and gives the mean and variance of each coordinate with
    ``mean()`` and ``var()``.
    """

    kind: str
    c: int

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        for name in names:
            v = _as_vector(getattr(self, name), name)
            if not np.isfinite(v).all():
                raise ValueError(f"{self.kind} law {name} must be finite")
            object.__setattr__(self, name, v)
        lengths = {len(getattr(self, name)) for name in names}
        if len(lengths) > 1:
            raise ValueError(f"{self.kind} law parameters {names} must share "
                             f"one length")
        object.__setattr__(self, "c", lengths.pop())


@dataclass(frozen=True)
class DiracLaw(ParamLaw):
    """Point mass at a fixed density vector."""

    center: np.ndarray
    kind = "dirac"

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        return self.center.copy()

    def mean(self):
        return self.center.copy()

    def var(self):
        return np.zeros(self.c)


@dataclass(frozen=True)
class UniformProductLaw(ParamLaw):
    """Independent U[center_i - width_i/2, center_i + width_i/2] coordinates."""

    center: np.ndarray
    width: np.ndarray
    kind = "uniform"

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.width < 0):
            raise ValueError("widths must be non-negative")

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        u = gen.random(self.c)
        return self.center + (u - 0.5) * self.width

    def mean(self):
        return self.center.copy()

    def var(self):
        return self.width**2 / 12.0


@dataclass(frozen=True)
class BetaProductLaw(ParamLaw):
    """Independent shifted Beta(alpha_i, beta_i) on [a_i, b_i] coordinates.

    a_i == b_i is allowed as a degenerate (Dirac) coordinate.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kind = "beta"

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.a > self.b):
            raise ValueError("need a_i <= b_i")
        if np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("shape parameters must be positive")

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        z = gen.beta(self.alpha, self.beta)
        return self.a + (self.b - self.a) * z

    def mean(self):
        return self.a + (self.b - self.a) * self.alpha / (self.alpha + self.beta)

    def var(self):
        ab = self.alpha + self.beta
        return (self.b - self.a) ** 2 * self.alpha * self.beta / (ab**2 * (ab + 1))


#: Every parameter law by its JSON ``kind``.
LAWS = {law.kind: law for law in (DiracLaw, UniformProductLaw, BetaProductLaw)}


def law_from_dict(d: dict) -> ParamLaw:
    if not isinstance(d, dict):
        raise ValueError("law must be a JSON object")
    kind = d.get("kind")
    law = LAWS.get(kind) if isinstance(kind, str) else None
    if law is None:
        raise ValueError(f"unknown law kind {kind!r}")
    names = [f.name for f in fields(law)]
    v = _read(f"{kind} law", d, kind=str, **dict.fromkeys(names, list))
    return law(*(v[name] for name in names))


#: What a value of each ``_read`` kind must be, for the error message.
_KINDS = {int: "an integer of magnitude below 2**63", float: "a finite number",
          str: "a string", list: "a list of numbers",
          np.ndarray: "a list of numbers or of such lists",
          dict: "a JSON object"}


def _as_kind(kind, value):
    """``value`` converted to ``kind``, or None when it does not fit."""
    if kind in (list, np.ndarray):
        try:
            a = np.asarray(value)
        except ValueError:  # a ragged nesting
            return None
        fits = a.ndim == 1 if kind is list else a.ndim >= 1
        return a.astype(float) if fits and a.dtype.kind in "iuf" else None
    if kind in (str, dict):
        return value if isinstance(value, kind) else None
    # NaN fails the range test too, and an int past the float range
    # compares without overflow
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        return None
    if kind is int:
        return (int(value) if value == int(value) and abs(value) < INT64_BOUND
                else None)
    return float(value)


def _read(what: str, d, /, **spec) -> dict:
    """The keys of the JSON object ``d`` that ``spec`` names, each converted
    to its kind; every JSON input of the package is read through here.

    A spec entry is ``key=kind`` (required), ``key=(kind, default)``
    (optional) or ``key=(kind, default, least)`` (optional, and at least
    ``least``, for int and float).  The kinds are int (of magnitude below
    ``INT64_BOUND``), float (finite), str, dict (a JSON object), list (a
    one-dimensional float array) and np.ndarray (a float array of at least
    one dimension, for tables); bools fit none of them, and a float fits int
    only when it is integral.  An absent optional key reads as its default,
    converted unless it is None.  A non-object, a key not in ``spec``, a
    missing required key, a value that does not fit its kind and one below
    its least raise ``ValueError``; ``what`` names the object in the
    message.  A list may hold NaN or inf: what takes it checks its entries.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(d) - set(spec))
    if unknown:
        raise ValueError(f"{what} does not read keys {unknown}")
    missing = [k for k, kind in spec.items()
               if not isinstance(kind, tuple) and k not in d]
    if missing:
        raise ValueError(f"{what} needs keys {missing}")
    out = {}
    for key, kind in spec.items():
        kind, default, *least = kind if isinstance(kind, tuple) else (kind, None)
        value = d.get(key, default)
        out[key] = value = None if value is None else _as_kind(kind, value)
        if value is None and key in d:
            raise ValueError(f"{what} {key!r} must be {_KINDS[kind]}")
        if least and value is not None and value < least[0]:
            raise ValueError(f"{what} {key!r} must be at least {least[0]}, "
                             f"not {value}")
    return out


def law_to_dict(law: ParamLaw) -> dict:
    return {"kind": law.kind, **{f.name: getattr(law, f.name).tolist()
                                 for f in fields(law)}}


@dataclass(frozen=True)
class RpsbmModel:
    """Random-parameter SBM: p ~ J per sampled graph, q = epsilon * min(p)."""

    omega: float
    law: ParamLaw
    epsilon: float
    s: np.ndarray

    def __post_init__(self):
        if len(_block_geometry(self)) != self.law.c:
            raise ValueError("geometry length must match the law dimension")
        if not 0 <= self.epsilon < np.inf:  # NaN fails too
            raise ValueError("epsilon must be finite and non-negative")

    @property
    def c(self) -> int:
        return len(self.s)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _gap_chunk(left: int, prob: float) -> int:
    """Geometric gaps drawn at once when ``left`` cells remain: the expected
    edge count plus four of its Poisson standard deviations plus 16, so a
    block rarely needs a second chunk."""
    mean = left * prob
    return int(mean + 4.0 * np.sqrt(mean)) + 16


def _block_cells(gen: np.random.Generator, cells: int, prob: float) -> np.ndarray:
    """Strictly increasing positions in [0, cells) of a block's edges, each
    cell an edge w.p. prob: cumulative Geometric(prob) gaps (Batagelj &
    Brandes 2005), drawn ``_gap_chunk`` at a time until one passes the end.

    A gap is clipped to one past the end before the cumulative sum, so no
    sum up to the first one past the end can overflow (cells < 4.6e18); the
    sums after it are discarded.
    """
    if cells == 0 or prob <= 0:
        return np.empty(0, dtype=np.int64)
    runs = []
    last = -1
    while True:
        left = cells - 1 - last
        pos = gen.geometric(prob, _gap_chunk(left, prob))
        np.minimum(pos, left + 1, out=pos)
        pos.cumsum(out=pos)
        pos += last
        end = int((pos >= cells).argmax())
        if pos[end] >= cells:
            runs.append(pos[:end])
            return np.concatenate(runs) if len(runs) > 1 else runs[0]
        runs.append(pos)
        last = int(pos[-1])


def sample_sbm(params: SbmParams, n: int, seed: int, graph_index: int = 0) -> Graph:
    """Draw one SBM graph; pair (i,j) is an edge w.p. omega * f(i/n, j/n).

    The nodes of community a are the contiguous run ``block_labels == a``.
    Blocks (a, b), a <= b, are drawn in row-major order from the derived
    Philox stream.  Each block's K cells (n_a*n_b off the diagonal,
    n_a(n_a - 1)/2 on it) are numbered in row-major order, and its edges are
    the cells reached by cumulative Geometric(omega*f_ab) gaps
    (``_block_cells``; the chunking is part of the stream contract in
    ``rng``).  The graph is a pure function of (params, n, seed,
    graph_index), given numpy's ``geometric`` algorithm.  Memory is O(n + m)
    and time O(m + n log m): a binary search of the row offsets finds the row
    of each block's cells.

    The cells come out sorted, so each block's edge keys i*n + j strictly
    increase; one stable sort (a merge of the c(c+1)/2 sorted runs) orders
    them all, and the edges reach ``Graph`` canonical, where an O(m) check
    replaces the sort.
    """
    check_node_count(n)
    if n < params.c:
        raise ValueError("graph size smaller than community count")
    # SbmParams holds every omega*f within 1e-12 of [0, 1]; min(., 1) below
    # clamps what lies inside that tolerance
    prob_table = np.full((params.c, params.c), params.omega * params.q)
    np.fill_diagonal(prob_table, params.omega * params.p)
    sizes = np.bincount(block_labels(params.s, n), minlength=params.c)
    starts = np.cumsum(sizes) - sizes
    gen = rngmod.pair_stream(seed, graph_index)
    keys = []
    for a in range(params.c):
        for b in range(a, params.c):
            na, nb = int(sizes[a]), int(sizes[b])
            sa, sb = int(starts[a]), int(starts[b])
            cells = na * (na - 1) // 2 if a == b else na * nb
            t = _block_cells(gen, cells, min(prob_table[a, b], 1.0))
            # local row r starts at cell off[r] and column first[r], so the
            # edge key of cell t in row r is t + base[r]; off[na] = cells
            rows = np.arange(na + 1)
            if a == b:
                first, off = rows + 1, rows * (2 * na - rows - 1) // 2
            else:
                first, off = 0, rows * nb
            base = (sa + rows) * n + sb + first - off
            at = np.searchsorted(t, off)
            key = np.repeat(base[:-1], at[1:] - at[:-1])
            key += t
            keys.append(key)
    # the block keys, then the merged keys, are freed as soon as they are
    # spent: the peak stays near three times the edges' own memory
    key = np.concatenate(keys)
    del keys
    key.sort(kind="stable")
    edges = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    del key
    # read-only and owning its memory, so Graph keeps it without a copy
    edges.setflags(write=False)
    return Graph(n, edges)


def draw_params(model: RpsbmModel, seed: int, graph_index: int = 0) -> SbmParams:
    """Draw p ~ J and build the SBM parameters for one graph.

    Draws are clamped to [0, 1/omega] so that edge probabilities stay valid,
    with a warning.
    """
    gen = rngmod.param_stream(seed, graph_index)
    p = model.law.draw(gen)
    hi = 1.0 / model.omega
    clipped = np.clip(p, 0.0, hi)
    if np.any(clipped != p):
        warnings.warn("parameter draw clamped to the valid probability range")
        p = clipped
    if np.all(p <= 0):
        raise ValueError("empty support after clamping")
    q = model.epsilon * float(p.min())
    q = min(q, hi)
    return SbmParams(model.omega, model.s, p, q)


def sample_rpsbm(model: RpsbmModel, n: int, seed: int, graph_index: int = 0) -> Graph:
    """Draw one RPSBM graph: p ~ J, q = epsilon*min(p), then the SBM draw.

    The edge stream is independent of the parameter stream, so a Dirac law
    reproduces ``sample_sbm`` with the same seed exactly.
    """
    params = draw_params(model, seed, graph_index)
    return sample_sbm(params, n, seed, graph_index)


@dataclass(frozen=True)
class LazyCorpus(Sequence):
    """A corpus whose graph k is made only when it is read, as
    ``make(keys[k])``.  It keeps no graph: iterating it holds one graph at a
    time, and a forked worker that reads item k makes graph k itself, so no
    graph crosses a pipe."""

    make: Callable[..., Graph]
    keys: Sequence

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k: int) -> Graph:
        return self.make(self.keys[k])

    def __iter__(self):
        # map drops each graph before it makes the next
        return map(self.make, self.keys)


def _draw(model, n: int, seed: int, k: int) -> Graph:
    """Graph k of ``iter_corpus(model, n, ..., seed)``."""
    if not isinstance(model, (RpsbmModel, SbmParams)):
        model = model[int(rngmod.mix_stream(seed, k).integers(len(model)))]
    return (sample_sbm(model, n, seed, k) if isinstance(model, SbmParams)
            else sample_rpsbm(model, n, seed, k))


def iter_corpus(model, n: int, count: int, seed: int,
                start_index: int = 0) -> LazyCorpus:
    """The ``count`` graphs with graph indices start_index..start_index+count-1,
    as a lazy sequence: item k draws graph start_index + k when it is read,
    and nothing keeps it.  Iterating yields one graph at a time, and
    ``moments.compute_moments`` has each of its pool workers draw the graphs
    it reduces.

    ``model`` is an ``RpsbmModel``, an ``SbmParams`` or a sequence of them
    read as their uniform mixture: graph g is drawn from the component that
    the (g, MIX) stream picks.  An empty sequence raises ``ValueError``.
    """
    if not isinstance(model, (RpsbmModel, SbmParams)) and len(model) == 0:
        raise ValueError("empty mixture")
    return LazyCorpus(functools.partial(_draw, model, n, seed),
                      range(start_index, start_index + count))


def sample_corpus(model, n: int, count: int, seed: int,
                  start_index: int = 0) -> list[Graph]:
    """The graphs of ``iter_corpus``, as a list."""
    return list(iter_corpus(model, n, count, seed, start_index))


# ---------------------------------------------------------------------------
# Model spec files ({"format": 1, ...}); fixed SBMs carry p/q, RPSBMs a law.
# ---------------------------------------------------------------------------

def model_to_dict(model: RpsbmModel | SbmParams) -> dict:
    if isinstance(model, SbmParams):
        return {
            "format": 1,
            "omega": model.omega,
            "s": model.s.tolist(),
            "p": model.p.tolist(),
            "q": model.q,
        }
    return {
        "format": 1,
        "omega": model.omega,
        "s": model.s.tolist(),
        "law": law_to_dict(model.law),
        "epsilon": model.epsilon,
    }


def model_from_dict(d: dict) -> RpsbmModel | SbmParams:
    if isinstance(d, dict) and "law" in d:
        what, spec = "RPSBM model spec", {"law": dict, "epsilon": float}
    else:
        what, spec = "fixed SBM model spec", {"p": list, "q": float}
    m = _read(what, d, format=int, omega=float, s=list, **spec)
    if m["format"] != 1:
        raise ValueError(f"{what} 'format' must be 1, not {m['format']}")
    if "law" in m:
        return RpsbmModel(m["omega"], law_from_dict(m["law"]), m["epsilon"],
                          m["s"])
    return SbmParams(m["omega"], m["s"], m["p"], m["q"])


def load_model(path) -> RpsbmModel | SbmParams:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
