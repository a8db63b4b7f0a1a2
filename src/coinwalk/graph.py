"""Undirected graphs with port-labeled edge ends.

A walker on a graph needs more than adjacency: at each vertex the edge
ends are numbered by local *ports* 0..d_j-1, and each edge pairs exactly
two (vertex, port) half-edges. The port numbering is what the coin
register indexes into, which makes the labeling part of the model, not
a display detail.

A PortGraph stores the pairing once, as an (N, d) partner array of the
flat indices j*d + k of the walker-coin space, and derives everything
else from it; two files listing the same edges in different orders give
the same graph and the same results. The pairing must be a
fixed-point-free involution on the used half-edges, with no self-loops
and at most one edge per vertex pair; vertex j uses exactly ports
0..d_j-1, and d is the maximum d_j. Querying an unused port, or an
index outside the graph, is an error.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

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
    """Immutable port-labeled graph on N vertices of degree at most d.

    partner, a read-only (N, d) intp copy of the integer array passed in,
    holds at [j, k] the flat index j2*d + k2 of the half-edge at the other
    end of (j, k)'s edge, or -1 if port k of vertex j is unused.
    """

    partner: np.ndarray

    def __post_init__(self) -> None:
        partner = np.asarray(self.partner)
        if partner.ndim != 2 or partner.dtype.kind not in "iu":
            raise StructureError(
                f"partner must be an (N, d) integer array, got {partner.dtype} {partner.shape}"
            )
        n, d = partner.shape
        if n < 1:
            raise StructureError("graph must have at least one vertex")
        outside = np.flatnonzero((partner < -1) | (partner >= n * d))
        if outside.size:
            j, k = divmod(int(outside[0]), d)
            raise StructureError(
                f"half-edge ({j},{k}) has partner {partner[j, k]}, outside -1..{n * d - 1}"
            )
        partner = partner.astype(np.intp)  # a copy, which the graph owns
        partner.flags.writeable = False
        object.__setattr__(self, "partner", partner)
        degrees = np.count_nonzero(partner >= 0, axis=1)
        if d != degrees.max() or d < 1:
            raise StructureError(f"degree {d} must be the maximum vertex degree (>= 1)")
        _check_half_edges(partner, degrees)
        if not degrees.all():
            # level 2 is the dataclass-generated __init__, level 3 its caller
            warnings.warn("graph has isolated vertices; a walker starting there never moves",
                          stacklevel=3)

    @property
    def num_vertices(self) -> int:
        return self.partner.shape[0]

    @property
    def degree(self) -> int:
        return self.partner.shape[1]

    @cached_property
    def vertex_degrees(self) -> tuple[int, ...]:
        """Per-vertex degree d_j; vertex j uses ports 0..d_j-1."""
        return tuple(np.count_nonzero(self.partner >= 0, axis=1).tolist())

    @cached_property
    def half_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of every used half-edge and of its partner, read-only, in
        edge order: by ascending lower end lo, lo -> partner[lo] and then back.
        That is how from_edge_list reads a file save_graph wrote, and it makes
        sums over half-edges independent of the order of a file's edges."""
        flat = self.partner.ravel()
        lo = np.flatnonzero(flat > np.arange(flat.size))
        src = np.stack([lo, flat[lo]], axis=1).ravel()
        dst = np.stack([flat[lo], lo], axis=1).ravel()
        src.flags.writeable = dst.flags.writeable = False
        return src, dst

    @property
    def num_edges(self) -> int:
        return self.half_edges[0].size // 2

    def has_port(self, vertex: int, port: int) -> bool:
        """Whether (vertex, port) is a used half-edge; False for indices outside the graph."""
        n, d = self.partner.shape
        return 0 <= vertex < n and 0 <= port < d and bool(self.partner[vertex, port] >= 0)

    def opposite_end(self, vertex: int, port: int) -> tuple[int, int]:
        """The (vertex, port) at the other end of a used half-edge, else StructureError."""
        if not self.has_port(vertex, port):
            raise StructureError(f"({vertex},{port}) is not a used half-edge of this graph")
        return divmod(int(self.partner[vertex, port]), self.degree)

    @property
    def pairing(self) -> Mapping[tuple[int, int], tuple[int, int]]:
        """Read-only dict (vertex, port) -> (vertex, port) in half_edges order, built per access."""
        src, dst = self.half_edges
        return MappingProxyType(dict(zip(_ends(src, self.degree), _ends(dst, self.degree))))

    def to_edge_list(self) -> list[Edge]:
        """The edges from their lower ends (so u < v), sorted by (u, pu)."""
        src, dst = self.half_edges
        return [Edge(*a, *b) for a, b in zip(_ends(src[::2], self.degree),
                                             _ends(dst[::2], self.degree))]


# an edge's keys in the order json.dumps(sort_keys=True) writes them
_EDGE_KEYS = ("pu", "pv", "u", "v")
_EDGE_BLOCK = 4096  # edges per %-format in _edges_json


def _edges_json(graph: PortGraph, level: int) -> str:
    """graph.to_edge_list() as json.dumps(indent=1, sort_keys=True) writes it,
    as a value whose key sits at the given nesting level, with no Edge built.

    Each block of edges is one %-format of a template that repeats the
    edge's text, so the template and its values stay small, and the
    blocks are joined once.
    """
    src, dst = graph.half_edges
    u, pu = np.divmod(src[::2], graph.degree)
    v, pv = np.divmod(dst[::2], graph.degree)
    outer, inner = " " * (level + 1), " " * (level + 2)
    fields = ",\n".join(f'{inner}"{key}": %d' for key in _EDGE_KEYS)
    edge = f"{outer}{{\n{fields}\n{outer}}}"
    values = np.stack([pu, pv, u, v], axis=1)
    pieces = [",\n".join([edge] * len(b)) % tuple(b.ravel().tolist())
              for b in np.split(values, range(_EDGE_BLOCK, len(values), _EDGE_BLOCK))]
    pieces[0] = "[\n" + pieces[0]
    pieces[-1] += f"\n{' ' * level}]"
    return ",\n".join(pieces)


def _ends(flat: np.ndarray, d: int):
    """(vertex, port) tuples of flat indices, as Python ints."""
    j, k = np.divmod(flat, d)
    return zip(j.tolist(), k.tolist())


def _check_half_edges(partner: np.ndarray, degrees: np.ndarray) -> None:
    """StructureError for the first broken half-edge in flat order, by the first check it fails."""
    n, d = partner.shape
    flat = partner.ravel()
    index = np.arange(flat.size)
    j, k = np.divmod(index, d)
    used = flat >= 0
    target = np.where(used, flat, index)
    j2 = target // d
    # a forward (j < j2) half-edge is parallel unless it is its vertex pair's first
    forward = np.flatnonzero(used & (j < j2))
    first = np.unique(j[forward] * n + j2[forward], return_index=True)[1]
    parallel = np.zeros(flat.size, dtype=bool)
    parallel[np.delete(forward, first)] = True
    checks = [
        (used & (k >= degrees[j]), "half-edge ({j},{k}) outside the used port range"),
        (used & (j2 == j), "self-loop at vertex {j} is not supported"),
        (used & (flat[target] != index),
         "pairing is not an involution at ({j},{k}) <-> ({j2},{k2})"),
        (parallel, "parallel edge between vertices {j} and {j2}"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        x = int(np.argmax(bad))
        (j, k), (j2, k2) = divmod(x, d), divmod(int(target[x]), d)
        message = next(text for mask, text in checks if mask[x])
        raise StructureError(message.format(j=j, k=k, j2=j2, k2=k2))


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
    j = np.arange(n)
    return PortGraph(np.stack([(j + 1) % n * 2 + 1, (j - 1) % n * 2], axis=1))


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

    u, v = np.array([(e.u, e.v) for e in normalized], dtype=np.intp).T
    counts = np.bincount(np.concatenate([u, v])).tolist()
    degree = max(counts)
    problems += [f"vertex {j} has degree {counts[j]} but uses port {k}; "
                 f"ports must be 0..{counts[j] - 1}" for j, k in seen_ports if k >= counts[j]]
    if problems:
        raise StructureError("invalid edge list: " + "; ".join(problems))

    # every port is below its vertex's degree now, so it fits an intp
    pu, pv = np.array([(e.pu, e.pv) for e in normalized], dtype=np.intp).T
    partner = np.full((len(counts), degree), -1, dtype=np.intp)
    partner[u, pu] = v * degree + pv
    partner[v, pv] = u * degree + pu
    return PortGraph(partner)


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
    vertices = raw["vertices"]
    # every port (j, k) gets the flat index j*d + k, which must fit an intp
    if vertices > np.iinfo(np.intp).max // max(raw["degree"], 1):
        raise ConfigError(f"{path}: 'vertices' is {vertices}, too many to index their ports")
    edges = []
    for i, entry in enumerate(raw["edges"]):
        try:
            u, pu, v, pv = int(entry["u"]), int(entry["pu"]), int(entry["v"]), int(entry["pv"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: edges[{i}]: {exc!r}") from None
        # checked before from_edge_list, which sizes its arrays by the largest vertex
        if u >= vertices or v >= vertices:
            raise ConfigError(
                f"{path}: edges[{i}] references vertex {max(u, v)}, but 'vertices' is {vertices}"
            )
        edges.append(Edge(u, pu, v, pv))
    graph = from_edge_list(edges)
    if graph.degree != raw["degree"]:
        raise ConfigError(
            f"{path}: 'degree' is {raw['degree']} but the edge list gives {graph.degree}"
        )
    if graph.num_vertices < vertices:
        # trailing isolated vertices, declared but not touched by edges
        extra = np.full((vertices - graph.num_vertices, graph.degree), -1)
        graph = PortGraph(np.vstack([graph.partner, extra]))
    return graph


def save_graph(graph: PortGraph, path: str) -> None:
    """Write a graph in the JSON file format read by load_graph, as
    json.dump(indent=1, sort_keys=True) writes it, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "degree": {graph.degree},\n "edges": {_edges_json(graph, 1)},\n'
                 f' "vertices": {graph.num_vertices}\n}}\n')
