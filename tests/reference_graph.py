"""The dict-based port graph that coinwalk.graph replaced, kept as an oracle.

ReferencePortGraph stores the pairing as a dict of (vertex, port) tuples
beside its vertex count, degree and vertex degrees, and validates it
with a loop over the half-edges. build_cycle, from_edge_list,
build_shift and build_cycle_shift are the loops that built it and its
shifts. Tests hold the array-based coinwalk.graph and coinwalk.shift to
this code, so it must not be rewritten in terms of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from coinwalk import Edge, StructureError

# the most entries an intp array can have; an edge end must lie below it
MAX_PORTS = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize


@dataclass(frozen=True, eq=False)
class ReferencePortGraph:
    num_vertices: int
    degree: int
    vertex_degrees: tuple[int, ...]
    pairing: dict[tuple[int, int], tuple[int, int]] = field(repr=False)

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise StructureError("graph must have at least one vertex")
        if len(self.vertex_degrees) != self.num_vertices:
            raise StructureError("vertex_degrees length must equal num_vertices")
        if self.degree != max(self.vertex_degrees, default=0) or self.degree < 1:
            raise StructureError(
                f"degree {self.degree} must be the maximum vertex degree (>= 1)"
            )
        seen_edges: set[tuple[int, int]] = set()
        for (j, k), (j2, k2) in self.pairing.items():
            if not (0 <= j < self.num_vertices and 0 <= k < self.vertex_degrees[j]):
                raise StructureError(f"half-edge ({j},{k}) outside the used port range")
            if j == j2:
                raise StructureError(f"self-loop at vertex {j} is not supported")
            if self.pairing.get((j2, k2)) != (j, k):
                raise StructureError(
                    f"pairing is not an involution at ({j},{k}) <-> ({j2},{k2})"
                )
            pair = (min(j, j2), max(j, j2))
            if pair in seen_edges and j < j2:
                raise StructureError(f"parallel edge between vertices {j} and {j2}")
            if j < j2:
                seen_edges.add(pair)
        used = sum(self.vertex_degrees)
        if len(self.pairing) != used:
            raise StructureError(
                f"pairing covers {len(self.pairing)} half-edges, expected {used}"
            )

    @property
    def half_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of every used half-edge and of its partner, in pairing order."""
        d = self.degree
        src = np.array([j * d + k for j, k in self.pairing], dtype=np.intp)
        dst = np.array([j * d + k for j, k in self.pairing.values()], dtype=np.intp)
        return src, dst

    def to_edge_list(self) -> list[Edge]:
        edges = []
        for (j, k), (j2, k2) in self.pairing.items():
            if (j, k) < (j2, k2):
                edges.append(Edge(j, k, j2, k2))
        edges.sort(key=lambda e: (e.u, e.pu))
        return edges

    def with_isolated_vertices(self, count: int) -> "ReferencePortGraph":
        return ReferencePortGraph(self.num_vertices + count, self.degree,
                                  self.vertex_degrees + (0,) * count, self.pairing)


def build_cycle(num_vertices: int) -> ReferencePortGraph:
    if num_vertices < 3:
        raise StructureError(
            f"cycle needs at least 3 vertices (got {num_vertices}); "
            "N=2 would duplicate the edge between the two vertices"
        )
    n = num_vertices
    pairing: dict[tuple[int, int], tuple[int, int]] = {}
    for j in range(n):
        pairing[(j, 0)] = ((j + 1) % n, 1)
        pairing[(j, 1)] = ((j - 1) % n, 0)
    return ReferencePortGraph(n, 2, (2,) * n, pairing)


def from_edge_list(edges) -> ReferencePortGraph:
    normalized = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
    if not normalized:
        raise StructureError("edge list is empty")
    problems: list[str] = []
    seen_ports: set[tuple[int, int]] = set()
    seen_pairs: set[tuple[int, int]] = set()
    for e in normalized:
        if min(e.u, e.pu, e.v, e.pv) < 0:
            problems.append(f"negative vertex or port in {e}")
            continue
        if max(e.u, e.pu, e.v, e.pv) >= MAX_PORTS:
            problems.append(f"oversized vertex or port in {e}")
            continue
        if e.u == e.v:
            problems.append(f"self-loop at vertex {e.u}")
        for endpoint in [(e.u, e.pu), (e.v, e.pv)]:
            if endpoint in seen_ports:
                problems.append(f"duplicate half-edge {endpoint}")
            seen_ports.add(endpoint)
        pair = (min(e.u, e.v), max(e.u, e.v))
        if pair in seen_pairs and e.u != e.v:
            problems.append(f"parallel edge between vertices {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
    if problems:
        raise StructureError("invalid edge list: " + "; ".join(problems))

    num_vertices = 1 + max(max(e.u, e.v) for e in normalized)
    counts = [0] * num_vertices
    for j, k in seen_ports:
        counts[j] += 1
    degree = max(counts)
    for e in normalized:
        for j, k in [(e.u, e.pu), (e.v, e.pv)]:
            if k >= counts[j]:
                problems.append(
                    f"vertex {j} has degree {counts[j]} but uses port {k}; "
                    f"ports must be 0..{counts[j] - 1}"
                )
    if problems:
        raise StructureError("invalid edge list: " + "; ".join(problems))

    pairing: dict[tuple[int, int], tuple[int, int]] = {}
    for e in normalized:
        pairing[(e.u, e.pu)] = (e.v, e.pv)
        pairing[(e.v, e.pv)] = (e.u, e.pu)
    return ReferencePortGraph(num_vertices, degree, tuple(counts), pairing)


def build_shift(graph: ReferencePortGraph) -> np.ndarray:
    """The port-swap permutation, one pairing entry at a time."""
    n, d = graph.num_vertices, graph.degree
    perm = np.arange(n * d)
    for (j, k), (j2, k2) in graph.pairing.items():
        perm[j * d + k] = j2 * d + k2
    return perm


def build_cycle_shift(num_vertices: int, direction: int = 1) -> np.ndarray:
    """The direction-preserving cycle permutation, one vertex at a time."""
    n, d = num_vertices, 2
    perm = np.arange(n * d)
    for j in range(n):
        perm[j * d + 0] = ((j + direction) % n) * d + 0
        perm[j * d + 1] = ((j - direction) % n) * d + 1
    return perm


def partner_array(graph: ReferencePortGraph) -> np.ndarray:
    """The pairing as an (N, d) array of partner flat indices, -1 on unused ports."""
    d = graph.degree
    partner = np.full((graph.num_vertices, d), -1, dtype=np.intp)
    for (j, k), (j2, k2) in graph.pairing.items():
        partner[j, k] = j2 * d + k2
    return partner
