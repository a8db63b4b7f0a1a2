"""Classical random walk oracle on port-labeled graphs."""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .graph import PortGraph

__all__ = [
    "classical_run",
    "classical_step",
    "half_edge_run",
    "half_edge_step",
    "uniform_distribution",
    "validate_distribution",
]

SIMPLEX_TOL = 1e-12


def validate_distribution(p: np.ndarray) -> None:
    p = np.asarray(p)
    # written so that NaN entries fail both checks
    if not p.min() >= -SIMPLEX_TOL:
        raise StructureError(f"distribution has negative entry {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= SIMPLEX_TOL:
        raise StructureError(f"distribution sums to {p.sum()!r}, not 1")


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
        raise StructureError(f"step count must be nonnegative, got {steps}")
    p = np.asarray(p0, dtype=float).copy()
    if steps:
        n = graph.num_vertices
        if p.size != n:
            raise StructureError(f"distribution length {p.size} does not match {n} vertices")
        step = _chain(graph)
        for _ in range(steps):
            p = step(p)
    return p


def half_edge_step(
    q: np.ndarray, graph: PortGraph, transitions: list[np.ndarray]
) -> np.ndarray:
    """One step of the port-resolved chain that a fully measured walk follows.

    q holds one occupation per (vertex, port), flattened vertex-major.
    The coin toss redistributes over ports with the given transition
    matrices, entry (k, k2) being |coin[k, k2]|^2 for a measured coin,
    then the walker crosses its chosen edge. Marginalizing the unbiased
    version over ports gives classical_step.
    """
    n, d = graph.num_vertices, graph.degree
    q = np.asarray(q, dtype=float).reshape(n, d)
    if len(transitions) != n:
        raise StructureError(
            f"need one transition matrix per vertex, got {len(transitions)} for {n}"
        )
    tossed = np.zeros_like(q)
    for j in range(n):
        m = transitions[j].shape[0]  # reduced-degree matrices are embedded
        tossed[j, :m] = transitions[j] @ q[j, :m]
    src, dst = graph.half_edges
    out = np.zeros(n * d)
    out[dst] = tossed.flat[src]
    return out


def half_edge_run(
    q0: np.ndarray, graph: PortGraph, transitions: list[np.ndarray], steps: int
) -> np.ndarray:
    q = np.asarray(q0, dtype=float).copy()
    for _ in range(steps):
        q = half_edge_step(q, graph, transitions)
    return q
