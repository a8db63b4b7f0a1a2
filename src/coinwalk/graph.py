"""Undirected graphs with port-labeled edge ends.

A walker on a graph needs more than adjacency: at each vertex the edge
ends are numbered by local *ports* 0..d_j-1, and each edge pairs exactly
two (vertex, port) half-edges. The pairing is an involution with no
fixed points, so following an edge and following it back are the same
operation. The port numbering is what the coin register indexes into,
which makes the labeling part of the model, not a display detail.

Structural rules enforced here:

* the pairing is a fixed-point-free involution on the used half-edges,
* no self-loops,
* at most one edge between any pair of vertices,
* vertex j uses exactly ports 0..d_j-1, and d is the maximum d_j.

Vertices with d_j < d simply leave their high ports unused; querying an
unused port is an error rather than silently undefined.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, StructureError

__all__ = [
    "Edge",
    "PortGraph",
    "assign_ports",
    "build_cycle",
    "from_edge_list",
    "load_graph",
    "read_json",
    "save_graph",
]


@dataclass(frozen=True)
class Edge:
    """One undirected edge given by its two (vertex, port) endpoints."""

    u: int
    pu: int
    v: int
    pv: int


@dataclass(frozen=True, eq=False)
class PortGraph:
    """Immutable port-labeled graph.

    Attributes
    ----------
    num_vertices : int
        Number of vertices N; vertices are 0..N-1.
    degree : int
        Graph degree d, the maximum vertex degree. Coin blocks are d x d.
    vertex_degrees : tuple of int
        Per-vertex degree d_j; vertex j uses ports 0..d_j-1.
    pairing : dict
        Maps each used (vertex, port) to the (vertex, port) at the other
        end of its edge. Treat as read-only.
    """

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
        if any(dj == 0 for dj in self.vertex_degrees):
            warnings.warn(
                "graph has isolated vertices; a walker starting there never moves",
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # queries

    def opposite_end(self, vertex: int, port: int) -> tuple[int, int]:
        """Return the (vertex, port) at the other end of a half-edge.

        Raises
        ------
        StructureError
            If (vertex, port) is not a used half-edge of the graph.
        """
        try:
            return self.pairing[(vertex, port)]
        except KeyError:
            raise StructureError(
                f"({vertex},{port}) is not a used half-edge of this graph"
            ) from None

    def has_port(self, vertex: int, port: int) -> bool:
        return (vertex, port) in self.pairing

    @cached_property
    def half_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairing as two read-only index arrays, in pairing order.

        The first holds the flat index j*d + k of every used half-edge,
        the second the flat index of the half-edge at its other end.
        """
        d = self.degree
        src = np.array([j * d + k for j, k in self.pairing], dtype=np.intp)
        dst = np.array([j * d + k for j, k in self.pairing.values()], dtype=np.intp)
        src.flags.writeable = dst.flags.writeable = False
        return src, dst

    @property
    def num_edges(self) -> int:
        return len(self.pairing) // 2

    def to_edge_list(self) -> list[Edge]:
        """Serialize as a deterministic list of edges, sorted by endpoints."""
        edges = []
        for (j, k), (j2, k2) in self.pairing.items():
            if (j, k) < (j2, k2):
                edges.append(Edge(j, k, j2, k2))
        edges.sort(key=lambda e: (e.u, e.pu))
        return edges


def build_cycle(num_vertices: int) -> PortGraph:
    """Build the cycle graph on N >= 3 vertices with the standard labeling.

    Port 0 at vertex j pairs with port 1 at vertex j+1 (mod N), so coin
    state 0 points along increasing vertex index. N=2 would need two
    edges between the same vertex pair and is rejected.

    Parameters
    ----------
    num_vertices : int
        Cycle length N, at least 3.
    """
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
    return PortGraph(n, 2, (2,) * n, pairing)


def from_edge_list(edges: list[Edge] | list[tuple[int, int, int, int]]) -> PortGraph:
    """Build a PortGraph from explicit (vertex, port) edge endpoints.

    Every violated rule is reported, not just the first one found, so a
    bad input file can be fixed in one pass.
    """
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
    for j, k in seen_ports:
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
    return PortGraph(num_vertices, degree, tuple(counts), pairing)


def assign_ports(adjacency: list[tuple[int, int]]) -> list[Edge]:
    """Choose a deterministic port labeling for a plain adjacency list.

    Edges are processed in sorted (min, max) order and each endpoint
    receives the smallest port not yet used at its vertex. Any labeling
    would do for the dynamics on a fixed graph, but results can depend
    on the choice, so this one is reproducible and is recorded in run
    metadata.
    """
    canon = []
    for u, v in adjacency:
        if u == v:
            raise StructureError(f"self-loop at vertex {u}")
        canon.append((min(u, v), max(u, v)))
    if len(set(canon)) != len(canon):
        raise StructureError("adjacency contains a repeated edge")
    next_port: dict[int, int] = {}
    edges = []
    for u, v in sorted(canon):
        pu = next_port.get(u, 0)
        next_port[u] = pu + 1
        pv = next_port.get(v, 0)
        next_port[v] = pv + 1
        edges.append(Edge(u, pu, v, pv))
    return edges


def read_json(path: str, what: str):
    """Parse a JSON file; ConfigError, naming its role `what`, if that fails."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what} file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON (line {exc.lineno}): {exc.msg}") from None


def load_graph(path: str) -> PortGraph:
    """Read a graph from the JSON file format.

    Expected shape::

        {"vertices": N, "degree": d,
         "edges": [{"u": j, "pu": k, "v": j2, "pv": k2}, ...]}

    The vertices and degree fields are checked against the edge list.
    A file that cannot be read, or that does not have this shape, raises
    ConfigError.
    """
    raw = read_json(path, "graph")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    for key in ("vertices", "degree", "edges"):
        if key not in raw:
            raise ConfigError(f"{path}: missing field '{key}'")
    for key in ("vertices", "degree"):
        if not isinstance(raw[key], int) or isinstance(raw[key], bool):
            raise ConfigError(f"{path}: '{key}' must be an integer, got {raw[key]!r}")
    if not isinstance(raw["edges"], list):
        raise ConfigError(f"{path}: 'edges' must be a list")
    edges = []
    for i, entry in enumerate(raw["edges"]):
        try:
            edges.append(Edge(int(entry["u"]), int(entry["pu"]),
                              int(entry["v"]), int(entry["pv"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: edges[{i}]: {exc!r}") from None
    graph = from_edge_list(edges)
    if graph.num_vertices != raw["vertices"]:
        # allow trailing isolated vertices declared but not touched by edges
        if raw["vertices"] < graph.num_vertices:
            raise ConfigError(
                f"{path}: 'vertices' is {raw['vertices']} but edges reference "
                f"vertex {graph.num_vertices - 1}"
            )
        extra = raw["vertices"] - graph.num_vertices
        graph = PortGraph(
            raw["vertices"],
            graph.degree,
            graph.vertex_degrees + (0,) * extra,
            graph.pairing,
        )
    if graph.degree != raw["degree"]:
        raise ConfigError(
            f"{path}: 'degree' is {raw['degree']} but the edge list gives {graph.degree}"
        )
    return graph


def save_graph(graph: PortGraph, path: str) -> None:
    """Write a graph in the JSON file format read by load_graph."""
    payload = {
        "vertices": graph.num_vertices,
        "degree": graph.degree,
        "edges": [
            {"u": e.u, "pu": e.pu, "v": e.v, "pv": e.pv}
            for e in graph.to_edge_list()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
