"""Stochastic block models, random-parameter SBMs, and graph sampling.

An SBM kernel is piecewise constant on the blocks cut out of [0,1) by the
cumulative community-size vector s; node i sits at x = i/n.  Edge (i,j)
appears independently with probability omega * f(i/n, j/n).  The
random-parameter variant redraws the within-community density vector p from
a law J per sampled graph and couples blocks through q = epsilon * min(p).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

from . import rng as rngmod
from .spectral import Graph

_PAIR_CHUNK = 1 << 22


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


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
        s = _as_vector(self.s, "s")
        p = _as_vector(self.p, "p")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", p)
        s.setflags(write=False)
        p.setflags(write=False)
        if len(s) != len(p):
            raise ValueError("s and p must have equal length")
        if len(s) < 1:
            raise ValueError("need at least one community")
        if np.any(s <= 0):
            raise ValueError("community sizes must be positive")
        if abs(s.sum() - 1.0) > 1e-12:
            raise ValueError("community sizes must sum to 1")
        if not 0 < self.omega <= 1:
            raise ValueError("omega must lie in (0, 1]")
        if self.q < 0 or np.any(p < 0):
            raise ValueError("densities must be non-negative")
        if self.omega * max(p.max(), self.q) > 1 + 1e-12:
            raise ValueError("edge probability omega*max(p, q) exceeds 1")

    @property
    def c(self) -> int:
        return len(self.s)


def canonical_kernel_value(params: SbmParams, x: float, y: float) -> float:
    """Piecewise-constant block kernel f(x, y) for x, y in [0, 1)."""
    if not (0 <= x < 1 and 0 <= y < 1):
        raise ValueError("kernel arguments must lie in [0, 1)")
    cum = np.cumsum(params.s)
    bx = int(np.searchsorted(cum, x, side="right"))
    by = int(np.searchsorted(cum, y, side="right"))
    return float(params.p[bx]) if bx == by else float(params.q)


def block_labels(s: np.ndarray, n: int) -> np.ndarray:
    """Block index of each node under the x = i/n embedding."""
    cum = np.cumsum(np.asarray(s, dtype=float))
    return np.searchsorted(cum, np.arange(n) / n, side="right").clip(0, len(cum) - 1)


# ---------------------------------------------------------------------------
# Parameter laws J
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracLaw:
    """Point mass at a fixed density vector."""

    center: np.ndarray
    kind = "dirac"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center, "center"))

    @property
    def c(self):
        return len(self.center)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        return self.center.copy()

    def mean(self):
        return self.center.copy()

    def var(self):
        return np.zeros(self.c)

    def support_upper(self):
        return self.center.copy()

    def params_dict(self):
        return {"center": self.center.tolist()}


@dataclass(frozen=True)
class UniformProductLaw:
    """Independent U[center_i - width_i/2, center_i + width_i/2] coordinates."""

    center: np.ndarray
    width: np.ndarray
    kind = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center, "center"))
        object.__setattr__(self, "width", _as_vector(self.width, "width"))
        if len(self.center) != len(self.width):
            raise ValueError("center and width must have equal length")
        if np.any(self.width < 0):
            raise ValueError("widths must be non-negative")

    @property
    def c(self):
        return len(self.center)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        u = gen.random(self.c)
        return self.center + (u - 0.5) * self.width

    def mean(self):
        return self.center.copy()

    def var(self):
        return self.width**2 / 12.0

    def support_upper(self):
        return self.center + self.width / 2.0

    def params_dict(self):
        return {"center": self.center.tolist(), "width": self.width.tolist()}


@dataclass(frozen=True)
class BetaProductLaw:
    """Independent shifted Beta(alpha_i, beta_i) on [a_i, b_i] coordinates.

    a_i == b_i is allowed as a degenerate (Dirac) coordinate.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kind = "beta"

    def __post_init__(self):
        for name in ("a", "b", "alpha", "beta"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), name))
        if not len(self.a) == len(self.b) == len(self.alpha) == len(self.beta):
            raise ValueError("beta parameter vectors must share length")
        if np.any(self.a > self.b):
            raise ValueError("need a_i <= b_i")
        if np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("shape parameters must be positive")

    @property
    def c(self):
        return len(self.a)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        z = gen.beta(self.alpha, self.beta)
        return self.a + (self.b - self.a) * z

    def mean(self):
        return self.a + (self.b - self.a) * self.alpha / (self.alpha + self.beta)

    def var(self):
        ab = self.alpha + self.beta
        return (self.b - self.a) ** 2 * self.alpha * self.beta / (ab**2 * (ab + 1))

    def support_upper(self):
        return self.b.copy()

    def params_dict(self):
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
        }


@dataclass(frozen=True)
class TruncGaussianProductLaw:
    """Independent Gaussian(mean_i, sd_i) coordinates truncated to [0, 1]."""

    mu: np.ndarray
    sd: np.ndarray
    kind = "gauss"

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_vector(self.mu, "mu"))
        object.__setattr__(self, "sd", _as_vector(self.sd, "sd"))
        if len(self.mu) != len(self.sd):
            raise ValueError("mu and sd must have equal length")
        if np.any(self.sd < 0):
            raise ValueError("sd must be non-negative")

    @property
    def c(self):
        return len(self.mu)

    def _dist(self):
        sd = np.where(self.sd > 0, self.sd, 1.0)
        lo = (0.0 - self.mu) / sd
        hi = (1.0 - self.mu) / sd
        return scipy.stats.truncnorm(lo, hi, loc=self.mu, scale=sd)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        out = self._dist().rvs(size=self.c, random_state=gen)
        return np.where(self.sd > 0, out, np.clip(self.mu, 0.0, 1.0))

    def mean(self):
        return np.where(self.sd > 0, self._dist().mean(), np.clip(self.mu, 0.0, 1.0))

    def var(self):
        return np.where(self.sd > 0, self._dist().var(), 0.0)

    def support_upper(self):
        return np.minimum(np.where(self.sd > 0, 1.0, self.mu), 1.0)

    def params_dict(self):
        return {"mu": self.mu.tolist(), "sd": self.sd.tolist()}


ParamLaw = DiracLaw | UniformProductLaw | BetaProductLaw | TruncGaussianProductLaw

_LAW_KINDS = {
    "dirac": lambda d: DiracLaw(np.asarray(d["center"])),
    "uniform": lambda d: UniformProductLaw(np.asarray(d["center"]), np.asarray(d["width"])),
    "beta": lambda d: BetaProductLaw(
        np.asarray(d["a"]), np.asarray(d["b"]),
        np.asarray(d["alpha"]), np.asarray(d["beta"]),
    ),
    "gauss": lambda d: TruncGaussianProductLaw(np.asarray(d["mu"]), np.asarray(d["sd"])),
}


def law_from_dict(d: dict) -> ParamLaw:
    if not isinstance(d, dict):
        raise ValueError("law must be a JSON object")
    kind = d.get("kind")
    if kind not in _LAW_KINDS:
        raise ValueError(f"unknown law kind {kind!r}")
    return _LAW_KINDS[kind]({k: v for k, v in d.items() if k != "kind"})


def law_to_dict(law: ParamLaw) -> dict:
    return {"kind": law.kind, **law.params_dict()}


@dataclass(frozen=True)
class RpsbmModel:
    """Random-parameter SBM: p ~ J per sampled graph, q = epsilon * min(p)."""

    omega: float
    law: ParamLaw
    epsilon: float
    s: np.ndarray

    def __post_init__(self):
        s = _as_vector(self.s, "s")
        object.__setattr__(self, "s", s)
        s.setflags(write=False)
        if len(s) != self.law.c:
            raise ValueError("geometry length must match the law dimension")
        if np.any(s <= 0) or abs(s.sum() - 1.0) > 1e-12:
            raise ValueError("community sizes must be positive and sum to 1")
        if not 0 < self.omega <= 1:
            raise ValueError("omega must lie in (0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    @property
    def c(self) -> int:
        return len(self.s)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _pair_uniforms(gen: np.random.Generator, n_pairs: int):
    """Yield (start, uniforms) chunks of the per-pair counter stream."""
    for start in range(0, n_pairs, _PAIR_CHUNK):
        yield start, gen.random(min(_PAIR_CHUNK, n_pairs - start))


def sample_sbm(params: SbmParams, n: int, seed: int, graph_index: int = 0) -> Graph:
    """Draw one SBM graph; pair (i,j) is an edge w.p. omega * f(i/n, j/n).

    Deterministic given (seed, graph_index): pair t of the i<j lexicographic
    order consumes the t-th value of the derived Philox stream.
    """
    if n < params.c:
        raise ValueError("graph size smaller than community count")
    labels = block_labels(params.s, n)
    prob_table = np.full((params.c, params.c), params.omega * params.q)
    np.fill_diagonal(prob_table, params.omega * params.p)
    if prob_table.max() > 1 + 1e-12:
        raise ValueError("edge probability exceeds 1")
    gen = rngmod.pair_stream(seed, graph_index)
    n_pairs = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)
    edges = []
    for start, u in _pair_uniforms(gen, n_pairs):
        sl = slice(start, start + len(u))
        probs = prob_table[labels[iu[sl]], labels[ju[sl]]]
        hit = u < probs
        if hit.any():
            edges.append(np.column_stack((iu[sl][hit], ju[sl][hit])))
    if edges:
        return Graph(n, np.concatenate(edges))
    return Graph.empty(n)


def draw_params(model: RpsbmModel, seed: int, graph_index: int = 0,
                clamp_counter: list | None = None) -> SbmParams:
    """Draw p ~ J and build the SBM parameters for one graph.

    Draws are clamped to [0, 1/omega] so that edge probabilities stay valid;
    each clamped draw appends an entry to ``clamp_counter`` when given.
    """
    gen = rngmod.param_stream(seed, graph_index)
    p = model.law.draw(gen)
    hi = 1.0 / model.omega
    clipped = np.clip(p, 0.0, hi)
    if np.any(clipped != p):
        if clamp_counter is not None:
            clamp_counter.append(graph_index)
        warnings.warn("parameter draw clamped to the valid probability range")
        p = clipped
    if np.all(p <= 0):
        raise ValueError("empty support after clamping")
    q = model.epsilon * float(p.min())
    q = min(q, hi)
    return SbmParams(model.omega, model.s, p, q)


def sample_rpsbm(model: RpsbmModel, n: int, seed: int, graph_index: int = 0) -> Graph:
    """Draw one RPSBM graph: p ~ J, q = epsilon*min(p), then the SBM draw.

    The pair stream is independent of the parameter stream, so a Dirac law
    reproduces ``sample_sbm`` with the same seed exactly.
    """
    params = draw_params(model, seed, graph_index)
    return sample_sbm(params, n, seed, graph_index)


def sample_corpus(model: RpsbmModel | SbmParams, n: int, count: int, seed: int,
                  start_index: int = 0) -> list[Graph]:
    """Sample ``count`` graphs with graph indices start_index..start_index+count-1."""
    out = []
    for k in range(start_index, start_index + count):
        if isinstance(model, SbmParams):
            out.append(sample_sbm(model, n, seed, k))
        else:
            out.append(sample_rpsbm(model, n, seed, k))
    return out


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
    if not isinstance(d, dict):
        raise ValueError("model spec must be a JSON object")
    if d.get("format") != 1:
        raise ValueError("unsupported model spec format")
    s = np.asarray(d["s"], dtype=float)
    if "law" in d:
        return RpsbmModel(_json_float(d, "omega"), law_from_dict(d["law"]),
                          _json_float(d, "epsilon"), s)
    return SbmParams(_json_float(d, "omega"), s, np.asarray(d["p"], dtype=float),
                     _json_float(d, "q"))


def _json_float(d: dict, key: str) -> float:
    """d[key] as a float; a list, object or null there is malformed input."""
    try:
        return float(d[key])
    except TypeError:
        raise ValueError(f"model spec {key!r} must be a number") from None


def save_model(model: RpsbmModel | SbmParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> RpsbmModel | SbmParams:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
