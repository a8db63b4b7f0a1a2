"""Classical random walk oracle on port-labeled graphs."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, StructureError
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

    The step gathers p at the source vertex of every half-edge, divides
    by that vertex's degree, and adds the shares into their target
    vertices with a sequential bincount in half_edges order, so repeated
    targets accumulate in a fixed order and the result is reproducible
    bit for bit.
    """
    n, d = graph.partner.shape
    src, dst = graph.half_edges
    j, targets = src // d, dst // d
    degrees = np.bincount(j, minlength=n)
    source_degree = degrees[j].astype(float)
    isolated = np.flatnonzero(degrees == 0)  # an isolated walker has nowhere to go

    def step(p: np.ndarray) -> np.ndarray:
        out = np.bincount(targets, weights=p[j] / source_degree, minlength=n)
        out[isolated] += p[isolated]
        return out

    return step


def classical_step(p: np.ndarray, graph: PortGraph) -> np.ndarray:
    """One step of the unbiased walk: leave each vertex along a uniformly
    random edge. p'(v) collects p(j)/d_j over all neighbors j of v."""
    return classical_run(p, graph, 1)


def classical_run(p0: np.ndarray, graph: PortGraph, steps: int) -> np.ndarray:
    """Apply classical_step steps times, with the chain's arrays built once;
    steps=0 returns the input unchanged."""
    if steps < 0:
        raise ConfigError(f"step count must be nonnegative, got {steps}")
    p = np.asarray(p0, dtype=float).copy()
    n = graph.num_vertices
    if p.size != n:
        raise StructureError(f"distribution length {p.size} does not match {n} vertices")
    step = _chain(graph)
    for _ in range(steps):
        p = step(p)
    return p
