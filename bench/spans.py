"""Span tracing around the layer functions of ``rpsbm``.

The tracer replaces each traced function with a wrapper wherever a module of
the package holds it by name, because the scenario modules import layer
functions with ``from .x import f`` and look them up in their own namespace.
Each call records a span (name, start, end, parent) in memory; counters are
updated at the same boundaries.  ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref
from collections import Counter

import numpy as np

# (module, function) pairs wrapped as spans.  theory and rng are not on any
# scenario's hot path and are not traced.
TRACED = (
    ("models", "sample_sbm"),
    ("models", "sample_rpsbm"),
    ("models", "sample_corpus"),
    ("models", "draw_params"),
    ("spectral", "spectrum"),
    ("spectral", "eigenpairs"),
    ("geometry", "detect_geometry"),
    ("moments", "compute_moments"),
    ("moments", "classify_regimes"),
    ("fitting", "fit_parametric"),
    ("fitting", "fit_nonparametric"),
    ("fitting", "sample_mixture"),
    ("fitting", "critical_sample_size"),
    ("fitting", "run_er_mixture_pipeline"),
    ("contacts", "load_contacts"),
    ("contacts", "window_contacts"),
    ("replicate", "run_recoverability"),
    ("replicate", "run_mixture_beta"),
    ("replicate", "run_critical_n"),
    ("replicate", "run_contacts"),
)

GRAPH_SPAN = "spectral.Graph"
CLI_SPAN = "cli.main"
EIG_SPANS = ("spectral.spectrum", "spectral.eigenpairs")

# Library eigensolvers, counted when called from inside a spectral span.
LAPACK = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
          ("scipy.linalg", "eigvalsh"), ("scipy.linalg", "eigh"))
ARPACK = (("scipy.sparse.linalg", "eigsh"),)

# Per-layer metrics and the spans or counters each is computed from.
SELF_TIMES = {
    "models.sample_s": ("models.sample_sbm",),
    "spectral.graph_s": (GRAPH_SPAN,),
    "spectral.eig_s": ("spectral.spectrum",),
    "spectral.eigenpairs_s": ("spectral.eigenpairs",),
    "geometry.detect_s": ("geometry.detect_geometry",),
    "moments.compute_s": ("moments.compute_moments",),
    "fitting.fit_parametric_s": ("fitting.fit_parametric",),
    "fitting.fit_nonparametric_s": ("fitting.fit_nonparametric",),
    "fitting.critical_s": ("fitting.critical_sample_size",),
    "fitting.er_pipeline_s": ("fitting.run_er_mixture_pipeline",),
    "fitting.sample_mixture_s": ("fitting.sample_mixture",),
    "contacts.load_s": ("contacts.load_contacts",),
    "contacts.window_s": ("contacts.window_contacts",),
    "replicate.self_s": tuple(f"replicate.{f}" for m, f in TRACED if m == "replicate"),
    "cli.self_s": (CLI_SPAN,),
}
COUNTS = {
    "models.graphs": "graphs",
    "models.pairs": "pairs",
    "models.edges": "edges",
    "spectral.lapack_calls": "lapack_calls",
    "spectral.arpack_calls": "arpack_calls",
    "geometry.calls": "detect_calls",
    "contacts.windows": "windows",
    "contacts.records": "records",
}
RATIOS = {
    "models.distinct_draw_ratio": ("distinct_draws", "graphs"),
    "spectral.graph_dup_ratio": ("pairs_in", "edges_kept"),
    "spectral.eig_per_graph": ("eig_calls", "distinct_graphs"),
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced run reports."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({"process.cpu_s": "s", "trace.overhead_s": "s"})
    return units


class Tracer:
    """In-memory spans and counters for one traced invocation."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._draws: set = set()
        self._graphs: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns fn's result."""
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            name_, start, _, parent_ = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_)

    def _current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_times(self) -> Counter:
        """Self time per span name: duration minus direct children."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    # -- counters ----------------------------------------------------------

    def _note_graph(self, g) -> None:
        ref = self._graphs.get(id(g))
        if ref is not None and ref() is g:
            return
        self._graphs[id(g)] = weakref.ref(g)
        self.counts["distinct_graphs"] += 1

    def _on_sample(self, bound, graph) -> None:
        params, n = bound.arguments["params"], bound.arguments["n"]
        self.counts["graphs"] += 1
        self.counts["pairs"] += n * (n - 1) // 2
        self.counts["edges"] += graph.m
        key = (bound.arguments["seed"], bound.arguments.get("graph_index", 0), n,
               params.omega, params.q, params.p.tobytes(), params.s.tobytes())
        if key not in self._draws:
            self._draws.add(key)
            self.counts["distinct_draws"] += 1

    def _on_eig(self, bound, result) -> None:
        self.counts["eig_calls"] += 1
        self._note_graph(bound.arguments["g"])

    def _on_detect(self, bound, result) -> None:
        self.counts["detect_calls"] += 1

    def _on_window(self, bound, graphs) -> None:
        self.counts["windows"] += len(graphs)

    def _on_load(self, bound, stream) -> None:
        self.counts["records"] += len(stream.records)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_wrapper(self, name: str, fn, hook=None):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                hook(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _solver_wrapper(self, counter: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._current() in EIG_SPANS:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every rpsbm module that holds it."""
        from rpsbm import spectral

        modules = [m for k, m in sys.modules.items()
                   if (k == "rpsbm" or k.startswith("rpsbm.")) and m is not None]
        hooks = {"models.sample_sbm": self._on_sample,
                 "spectral.spectrum": self._on_eig,
                 "spectral.eigenpairs": self._on_eig,
                 "geometry.detect_geometry": self._on_detect,
                 "contacts.window_contacts": self._on_window,
                 "contacts.load_contacts": self._on_load}
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"rpsbm.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._span_wrapper(name, original, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        graph_init = spectral.Graph.__post_init__
        tracer = self

        def post_init(g):
            pairs = np.asarray(g.edges).reshape(-1, 2).shape[0]
            tracer.call(GRAPH_SPAN, graph_init, g)
            tracer.counts["pairs_in"] += pairs
            tracer.counts["edges_kept"] += g.m

        self._patch(spectral.Graph, "__post_init__", post_init)

        for counter, targets in (("lapack_calls", LAPACK), ("arpack_calls", ARPACK)):
            for mod_name, fn_name in targets:
                mod = importlib.import_module(mod_name)
                self._patch(mod, fn_name,
                            self._solver_wrapper(counter, getattr(mod, fn_name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two whole-run ones."""
        selfs = self.self_times()
        out = {name: float(sum(selfs[s] for s in spans))
               for name, spans in SELF_TIMES.items()}
        out.update({name: self.counts[key] for name, key in COUNTS.items()})
        for name, (num, den) in RATIOS.items():
            d = self.counts[den]
            out[name] = self.counts[num] / d if d else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent index)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
