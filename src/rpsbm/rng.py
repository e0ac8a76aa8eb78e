"""Deterministic random stream derivation.

Every randomized operation in the package draws from a counter-based Philox
generator keyed by (master seed, purpose-specific spawn key).  A derived
stream is a pure function of (seed, spawn key), so each graph is the same
whichever other graphs are sampled, in whatever order or process.

Substream conventions, per graph index g:
    (g, PAIRS)  -- the SBM edge draw for graph g: for each block (a, b),
                   a <= b in row-major order, the cumulative Geometric(P)
                   gaps, P = min(omega*f_ab, 1), that pick the block's
                   edges among its K cells (see ``models.sample_sbm``)
    (g, PARAMS) -- parameter draws (p ~ J) for graph g
    (g, MIX)    -- mixture component choice for graph g

The gap draws are part of the contract.  A block with K = 0 or P = 0 draws
nothing.  Otherwise gaps are drawn in chunks, ``Generator.geometric(P, size)``
with size = floor(R P + 4 sqrt(R P)) + 16 where R cells remain after the last
edge drawn (R = K at first), until a cumulative gap passes the block's end;
the unused rest of the last chunk is dropped, and the next block continues
the same stream.  How the stream values become gaps is numpy's
``Generator.geometric``, so the graphs depend on the numpy version as well
as on the package version; ``manifest.json`` records both.  This edge-draw
contract holds from rpsbm 0.3.0.  0.2.0 drew a Binomial(K, P) edge count and
then that many distinct cells (``Generator.choice``), and 0.1.0 one uniform
per node pair, so their graphs differ for the same seed.
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
