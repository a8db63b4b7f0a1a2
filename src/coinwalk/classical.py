"""Classical random walk oracle on port-labeled graphs."""

from __future__ import annotations

import numpy as np

from .errors import StructureError, _as_floats, _check_count
from .graph import PortGraph

__all__ = [
    "classical_run",
    "classical_step",
    "uniform_distribution",
]


def uniform_distribution(num_vertices: int) -> np.ndarray:
    return np.full(num_vertices, 1.0 / num_vertices)


def _chain(graph: PortGraph):
    """classical_step on this graph as a function of p, with its arrays built once.

    The step divides p by each vertex's degree, gathers the quotient at
    the source vertex of every half-edge, and adds the shares into their
    target vertices with a sequential bincount in half_edges order, so
    repeated targets accumulate in a fixed order and the result is
    reproducible bit for bit. An isolated walker has nowhere to go: it
    takes a loop v -> v of degree 1, after every half-edge, so it keeps
    0.0 + p[v].
    """
    n, d = graph.partner.shape
    src, dst = graph.half_edges
    degrees = np.bincount(src // d, minlength=n)
    isolated = np.flatnonzero(degrees == 0)
    j = np.concatenate([src // d, isolated])
    targets = np.concatenate([dst // d, isolated])
    degree = np.maximum(degrees, 1).astype(float)

    def step(p: np.ndarray) -> np.ndarray:
        return np.bincount(targets, weights=(p / degree)[j], minlength=n)

    return step


def classical_step(p: np.ndarray, graph: PortGraph) -> np.ndarray:
    """One step of the unbiased walk: leave each vertex along a uniformly
    random edge. p'(v) collects p(j)/d_j over all neighbors j of v."""
    return classical_run(p, graph, 1)


def classical_run(p0: np.ndarray, graph: PortGraph, steps: int) -> np.ndarray:
    """Apply classical_step steps times, with the chain's arrays built once;
    steps=0 returns the input unchanged."""
    _check_count(steps)
    p = _as_floats(p0, "a distribution").copy()
    n = graph.num_vertices
    if p.size != n:
        raise StructureError(f"distribution length {p.size} does not match {n} vertices")
    step = _chain(graph)
    for _ in range(steps):
        p = step(p)
    return p
