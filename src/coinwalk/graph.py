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
import os
import warnings
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
# the most entries an intp array can have, whose bytes numpy counts in an intp
_MAX_PORTS = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize


def _edges_json(graph: PortGraph) -> Iterator[str]:
    """graph.to_edge_list() as json.dump(indent=1, sort_keys=True) writes a graph
    file's "edges", with no Edge built, in pieces: brackets, separators, and
    blocks of edges, each one %-format of a template repeating an edge's text."""
    src, dst = graph.half_edges
    fields = ",\n".join(f'   "{key}": %d' for key in _EDGE_KEYS)
    edge = f"  {{\n{fields}\n  }}"
    yield "[\n"
    for start in range(0, src.size, 2 * _EDGE_BLOCK):
        block = slice(start, start + 2 * _EDGE_BLOCK, 2)
        (u, v), (pu, pv) = np.divmod(np.stack([src[block], dst[block]]), graph.degree)
        values = np.stack([pu, pv, u, v], axis=1).ravel().tolist()
        if start:
            yield ",\n"
        yield ",\n".join([edge] * len(u)) % tuple(values)
    yield "\n ]"


def _ends(flat: np.ndarray, d: int):
    """(vertex, port) tuples of flat indices, as Python ints."""
    j, k = np.divmod(flat, d)
    return zip(j.tolist(), k.tolist())


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Positions of the key tuples equal to one at an earlier position, by a stable sort."""
    order = np.lexsort(keys[::-1])
    same = np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])
    return order[1:][same]


def _check_half_edges(partner: np.ndarray, degrees: np.ndarray) -> None:
    """StructureError for the first broken half-edge in flat order, by the first check it fails.
    The checks run on the flat array: an (N, d) one against (N, 1) columns makes N loops."""
    n, d = partner.shape
    flat = partner.ravel()
    index = np.arange(flat.size)
    used = flat >= 0
    # a forward (j < j2) half-edge is parallel unless it is its vertex pair's first
    forward = np.flatnonzero(flat // d > index // d)
    # each check is cut to its first failing flat index, so one mask is alive at a time
    checks = [
        # a used port at or past the flat index that ends its vertex's used ports
        (np.flatnonzero(used & (index >= np.repeat(np.arange(n) * d + degrees, d)))[:1],
         "half-edge ({j},{k}) outside the used port range"),
        (np.flatnonzero(flat // d == index // d)[:1], "self-loop at vertex {j} is not supported"),
        (np.flatnonzero(used & (flat[flat] != index))[:1],
         "pairing is not an involution at ({j},{k}) <-> ({j2},{k2})"),
        (np.sort(forward[_repeats(forward // d * n + flat[forward] // d)])[:1],
         "parallel edge between vertices {j} and {j2}"),
    ]
    failures = [(int(hit[0]), text) for hit, text in checks if hit.size]
    if failures:
        # min keeps the earlier check on a tie
        x, text = min(failures, key=lambda failure: failure[0])
        (j, k), (j2, k2) = divmod(x, d), divmod(int(flat[x]), d)
        raise StructureError(text.format(j=j, k=k, j2=j2, k2=k2))


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
    if num_vertices > _MAX_PORTS // 2:
        raise StructureError(f"cycle of {num_vertices} vertices is too large for its port array")
    n = num_vertices
    j = np.arange(n)
    return PortGraph(np.stack([(j + 1) % n * 2 + 1, (j - 1) % n * 2], axis=1))


def _edge_array(values: list, dtype=np.intp) -> np.ndarray:
    """Edge ends, four to an edge, as the (E, 4) array _edge_partner takes: of intp,
    or of objects where an end is no integer or one too large for an intp."""
    try:
        return np.fromiter(values, dtype=dtype, count=len(values)).reshape(-1, 4)
    except OverflowError:
        return _edge_array(values, object)


def _edge_partner(ends: np.ndarray) -> np.ndarray:
    """The partner array of the edges in the (u, pu, v, pv) rows of ends, from
    _edge_array, with a row for each vertex up to the largest an edge names.

    Each rule is checked over all edges with array operations. Problems are
    listed by edge, then as: a non-integer, negative or oversized (_MAX_PORTS
    or more) end (no other rule then applies), a self-loop, a repeat of either
    half-edge or of the vertex pair. Port gaps, also by edge, only if none occur.
    """
    if not len(ends):
        raise StructureError("edge list is empty")
    is_integer = np.vectorize(lambda x: type(x) is int or isinstance(x, np.integer), otypes=[bool])
    # only an object array can hold a non-integer
    integer = is_integer(ends).all(axis=1) if ends.dtype == object else np.ones(len(ends), bool)
    skipped = ~integer
    skipped[integer] = ((ends[integer] < 0) | (ends[integer] >= _MAX_PORTS)).any(axis=1)
    kept = np.flatnonzero(~skipped)
    u, pu, v, pv = ends[kept].T
    # the half-edges u0, v0, u1, v1, ... of the kept edges: h is an end of edge kept[h // 2]
    vertex, port = np.stack([u, v], axis=1).ravel(), np.stack([pu, pv], axis=1).ravel()
    low, high = np.minimum(u, v), np.maximum(u, v)
    loops, repeated, parallel = np.flatnonzero(u == v), _repeats(vertex, port), _repeats(low, high)
    parallel = parallel[u[parallel] != v[parallel]]
    if skipped.any() or loops.size or repeated.size or parallel.size:
        problems = np.full((len(ends), 5), "", dtype=object)  # by edge, then by rule
        for i in np.flatnonzero(skipped):
            kind = ("non-integer" if not integer[i]
                    else "negative" if min(ends[i]) < 0 else "oversized")
            problems[i, 0] = f"{kind} vertex or port in {Edge(*ends[i].tolist())}"
        problems[kept[loops], 1] = [f"self-loop at vertex {j}" for j in u[loops]]
        problems[kept[repeated // 2], 2 + repeated % 2] = [
            f"duplicate half-edge ({j}, {k})" for j, k in zip(vertex[repeated], port[repeated])]
        problems[kept[parallel], 4] = [
            f"parallel edge between vertices {j} and {j2}"
            for j, j2 in zip(low[parallel], high[parallel])]
        raise StructureError("invalid edge list: " + "; ".join(filter(None, problems.ravel())))

    # every end is now an integer in 0.._MAX_PORTS - 1, so ends is an intp array;
    # the arrays below have a row for each vertex up to the largest
    try:
        counts = np.bincount(vertex)
        degree = counts.max()
        partner = np.full(len(counts) * degree, -1, dtype=np.intp)
    except MemoryError:
        n = int(vertex.max()) + 1
        raise StructureError(
            f"edge list names vertex {n - 1}: no memory for the partner array of {n} vertices"
        ) from None
    gaps = np.flatnonzero(port >= counts[vertex])
    if gaps.size:
        raise StructureError("invalid edge list: " + "; ".join(
            f"vertex {j} has degree {counts[j]} but uses port {k}; "
            f"ports must be 0..{counts[j] - 1}"
            for j, k in zip(vertex[gaps].tolist(), port[gaps].tolist())))
    flat = vertex * degree + port  # every port is below its vertex's degree now
    partner[flat] = flat.reshape(-1, 2)[:, ::-1].ravel()  # each edge's two ends swapped
    return partner.reshape(-1, degree)


def from_edge_list(edges: list[Edge] | list[tuple[int, int, int, int]]) -> PortGraph:
    """Build a PortGraph from explicit (vertex, port) edge endpoints.

    Every edge must have four ends, each a Python or numpy integer. Every
    violated rule is reported, not just the first one found, so a bad
    input file can be fixed in one pass.
    """
    try:
        values = [x for e in edges for x in vars(e if isinstance(e, Edge) else Edge(*e)).values()]
    except TypeError:  # an edge of other than four ends
        raise StructureError("invalid edge list: every edge needs four ends (u, pu, v, pv)") from None
    # numpy would convert a float, bool or string end to an intp; _edge_partner lists it
    exact = all(t is int or issubclass(t, np.integer) for t in set(map(type, values)))
    return PortGraph(_edge_partner(_edge_array(values, np.intp if exact else object)))


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


def _write_files(files: Mapping[str, Iterable[str]]) -> None:
    """Write every file whole, or none of them; ConfigError, naming the path, if that fails.

    Every destination is checked first. Each file's pieces then go, in
    order and never joined, to a new temp file beside its destination,
    and the temp files are renamed into place only once all of them are
    written; a failure on the way removes them. A temp file is created
    with mode 0666 as a plain open creates a file, so the kernel applies
    the process umask to it.
    """
    for path in files:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: Is a directory")
    pending: list[tuple[str, str]] = []
    try:
        for path, pieces in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".coinwalk-{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        for tmp, path in pending:
            os.replace(tmp, path)
    except OSError as exc:
        # e.g. a file stands where a directory should be
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for tmp, _ in pending:
            if os.path.exists(tmp):
                os.unlink(tmp)


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
    # numpy must be able to size the (N, d) intp partner array; then each j*d + k fits too
    if vertices > _MAX_PORTS // max(raw["degree"], 1):
        raise ConfigError(f"{path}: 'vertices' is {vertices}, too many for their port array")
    values: list[int] = []  # the ends of every edge, read in one pass with no Edge built
    for i, entry in enumerate(raw["edges"]):
        try:
            u, pu, v, pv = ends = entry["u"], entry["pu"], entry["v"], entry["pv"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: edges[{i}]: {exc!r}") from None
        # the one int subclass json gives is bool, so this rejects booleans too
        if not type(u) is type(pu) is type(v) is type(pv) is int:
            raise ConfigError(f"{path}: edges[{i}]: endpoints must be integers, got {entry!r}")
        # checked before _edge_partner, which sizes its arrays by the largest vertex
        if u >= vertices or v >= vertices:
            raise ConfigError(f"{path}: edges[{i}] references vertex {max(u, v)}, "
                              f"but 'vertices' is {vertices}")
        values += ends
    partner = _edge_partner(_edge_array(values))
    if partner.shape[1] != raw["degree"]:
        raise ConfigError(f"{path}: 'degree' is {raw['degree']} "
                          f"but the edge list gives {partner.shape[1]}")
    if len(partner) < vertices:
        # trailing isolated vertices, declared but not touched by edges
        partner = np.vstack([partner, np.full((vertices - len(partner), partner.shape[1]), -1)])
    return PortGraph(partner)


def save_graph(graph: PortGraph, path: str) -> None:
    """Write a graph in the JSON file format read by load_graph, as
    json.dump(indent=1, sort_keys=True) writes it, and a newline, whole or
    not at all and with the mode a plain open gives (see _write_files)."""
    head = f'{{\n "degree": {graph.degree},\n "edges": '
    tail = f',\n "vertices": {graph.num_vertices}\n}}\n'
    _write_files({path: chain([head], _edges_json(graph), [tail])})
