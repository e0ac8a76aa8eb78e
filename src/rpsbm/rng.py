"""Deterministic random stream derivation.

Every randomized operation in the package draws from a counter-based Philox
generator keyed by (master seed, purpose-specific spawn key).  A derived
stream is a pure function of (seed, spawn key), so each graph is the same
whichever other graphs are sampled, in whatever order or process.

Substream conventions, per graph index g:
    (g, PAIRS)  -- the SBM edge draw for graph g: for each block (a, b),
                   a <= b in row-major order, one Binomial(K_ab, omega*f_ab)
                   edge count, then one draw of that many distinct cells
                   (see ``models.sample_sbm``)
    (g, PARAMS) -- parameter draws (p ~ J) for graph g
    (g, MIX)    -- mixture component choice for graph g

How the edge draw turns stream values into a count and cells is numpy's
``Generator.binomial`` and ``Generator.choice``, so the graphs depend on the
numpy version as well as on the package version; ``manifest.json`` records
both.  This edge-draw contract holds from rpsbm 0.2.0; 0.1.0 drew one uniform
per node pair, so its graphs differ for the same seed.
"""

from __future__ import annotations

import numpy as np

PAIRS = 0
PARAMS = 1
MIX = 2


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for a (seed, spawn-key) pair."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def pair_stream(seed: int, graph_index: int) -> np.random.Generator:
    return stream(seed, graph_index, PAIRS)


def param_stream(seed: int, graph_index: int) -> np.random.Generator:
    return stream(seed, graph_index, PARAMS)


def mix_stream(seed: int, graph_index: int) -> np.random.Generator:
    return stream(seed, graph_index, MIX)
