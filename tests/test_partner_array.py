"""PortGraph as one partner array, held to the dict-based reference code."""

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    PortGraph,
    ShiftOperator,
    StructureError,
    assign_ports,
    basis_state,
    build_cycle,
    build_cycle_shift,
    build_shift,
    from_edge_list,
)

import reference_graph as reference
from conftest import MULTI_ADJACENCY, port_permuted_torus_edges


def quietly(build, *args):
    """Call build, ignoring the isolated-vertex warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build(*args)


def outcome(build, *args):
    """("ok", result) or ("error", message) of a build that may raise StructureError."""
    try:
        return "ok", quietly(build, *args)
    except StructureError as exc:
        return "error", str(exc)


def drawn_edges(rng, kind):
    """An edge list of a cycle, the multi_graph fixture or a port-permuted torus."""
    if kind == "cycle":
        return reference.build_cycle(int(rng.integers(3, 10))).to_edge_list()
    if kind == "multi":
        return assign_ports(MULTI_ADJACENCY)
    return port_permuted_torus_edges(int(rng.integers(3, 6)), rng)


def mixed_up(edges, rng):
    """The same edges listed in another order, with some written end first."""
    out = []
    for i in rng.permutation(len(edges)):
        e = edges[i]
        out.append((e.v, e.pv, e.u, e.pu) if rng.random() < 0.5 else (e.u, e.pu, e.v, e.pv))
    return out


def with_isolated(graph, count):
    return quietly(PortGraph, np.vstack([graph.partner, np.full((count, graph.degree), -1)]))


def assert_same_graph(g, ref):
    assert np.array_equal(g.partner, reference.partner_array(ref))
    assert g.num_vertices == ref.num_vertices and g.degree == ref.degree
    assert g.vertex_degrees == ref.vertex_degrees
    assert g.num_edges == len(ref.pairing) // 2
    assert g.to_edge_list() == ref.to_edge_list()
    assert dict(g.pairing) == ref.pairing
    assert np.array_equal(build_shift(g).permutation, reference.build_shift(ref))
    # half_edges and the pairing view come in the order of the file that
    # save_graph writes, whatever order the graph was built in
    edges = ref.to_edge_list()
    trailing = ref.num_vertices - 1 - max(max(e.u, e.v) for e in edges)
    saved = reference.from_edge_list(edges).with_isolated_vertices(trailing)
    for mine, theirs in zip(g.half_edges, saved.half_edges):
        assert np.array_equal(mine, theirs)
    assert list(g.pairing.items()) == list(saved.pairing.items())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["cycle", "multi", "torus"]),
    isolated=st.integers(0, 3),
)
def test_builders_match_the_reference(seed, kind, isolated):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    assert_same_graph(build_cycle(n), reference.build_cycle(n))
    for direction in (1, -1):
        assert np.array_equal(build_cycle_shift(n, direction).permutation,
                              reference.build_cycle_shift(n, direction))

    edges = drawn_edges(rng, kind)
    shuffled = mixed_up(edges, rng)
    g, ref = from_edge_list(shuffled), reference.from_edge_list(shuffled)
    assert_same_graph(g, ref)
    assert np.array_equal(g.partner, from_edge_list(edges).partner)
    if isolated:
        assert_same_graph(with_isolated(g, isolated), ref.with_isolated_vertices(isolated))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["cycle", "multi", "torus", "random"]),
    isolated=st.integers(0, 3),
    mutations=st.integers(0, 3),
)
def test_validation_matches_the_reference(seed, kind, isolated, mutations):
    rng = np.random.default_rng(seed)
    if kind == "random":
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        partner = rng.integers(-1, n * d, size=(n, d))
    else:
        partner = from_edge_list(drawn_edges(rng, kind)).partner.copy()
        partner = np.vstack([partner, np.full((isolated, partner.shape[1]), -1)])
        n, d = partner.shape
        flat = partner.reshape(-1)
        for _ in range(mutations):
            if rng.random() < 0.5:
                flat[rng.integers(n * d)] = rng.integers(-1, n * d)
                continue
            # rewire two edges x-x2 and y-y2 into x-y and x2-y2, which keeps an
            # involution and can make self-loops and parallel edges
            x, y = rng.choice(np.flatnonzero(flat >= 0), 2, replace=False)
            x2, y2 = flat[x], flat[y]
            if x2 >= 0 and y2 >= 0 and len({x, y, x2, y2}) == 4:
                flat[[x, y, x2, y2]] = [y, x, y2, x2]
    pairing = {divmod(x, d): divmod(y, d)
               for x, y in enumerate(partner.ravel().tolist()) if y >= 0}
    degrees = tuple(np.count_nonzero(partner >= 0, axis=1).tolist())
    mine = outcome(PortGraph, partner)
    theirs = outcome(reference.ReferencePortGraph, n, d, degrees, pairing)
    assert mine[0] == theirs[0]
    if mine[0] == "error":
        assert mine[1] == theirs[1]
    else:
        assert_same_graph(mine[1], theirs[1])


# a port too large for an intp is reported as an oversized end
PORTS = st.integers(-1, 4) | st.just(2**70)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 4), PORTS, st.integers(-1, 4), PORTS), max_size=8))
def test_edge_list_problems_match_the_reference(edges):
    mine = outcome(from_edge_list, edges)
    theirs = outcome(reference.from_edge_list, edges)
    assert mine[0] == theirs[0]
    if mine[0] == "error":
        assert mine[1] == theirs[1]
    else:
        assert_same_graph(mine[1], theirs[1])


def test_port_graph_holds_only_the_partner_array(multi_graph):
    assert [f.name for f in dataclasses.fields(PortGraph)] == ["partner"]
    assert "num_vertices" not in [f.name for f in dataclasses.fields(ShiftOperator)]
    assert build_shift(multi_graph).num_vertices == multi_graph.num_vertices
    assert multi_graph.partner.dtype == np.intp
    assert not multi_graph.partner.flags.writeable
    with pytest.raises(TypeError):
        multi_graph.pairing[(0, 0)] = (1, 1)
    source = build_cycle(5).partner.copy()
    g = PortGraph(source)
    source[0, 0] = -1  # the graph keeps its own copy
    assert g.opposite_end(0, 0) == (1, 1)


def test_validation_peaks_below_eight_times_the_partner_array():
    partner = build_cycle(10**5).partner.copy()
    tracemalloc.start()
    try:
        PortGraph(partner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * partner.nbytes


def test_partner_arrays_out_of_range_or_of_the_wrong_kind_are_rejected():
    partner = build_cycle(4).partner.copy()
    for bad in (-2, 8):
        partner[2, 1] = bad
        with pytest.raises(StructureError, match=rf"\(2,1\) has partner {bad}, outside -1..7"):
            PortGraph(partner)
    for bad in (np.zeros(4, dtype=int), np.ones((2, 2)), [[1.0, 0.0]]):
        with pytest.raises(StructureError, match="integer array"):
            PortGraph(bad)
    with pytest.raises(StructureError, match="at least one vertex"):
        PortGraph(np.zeros((0, 2), dtype=int))
    with pytest.raises(StructureError, match="maximum vertex degree"):
        PortGraph(np.full((3, 2), -1))


def test_negative_and_out_of_range_indices_are_not_ports(multi_graph):
    # numpy would read partner[-1, 0] as the last vertex's port 0
    n, d = multi_graph.num_vertices, multi_graph.degree
    assert multi_graph.has_port(n - 1, 0)
    for vertex, port in [(-1, 0), (0, -1), (-n, 0), (0, d), (n, 0), (0, 9)]:
        assert not multi_graph.has_port(vertex, port)
        with pytest.raises(StructureError, match="not a used half-edge"):
            multi_graph.opposite_end(vertex, port)
        with pytest.raises(StructureError, match="not a used"):
            basis_state(multi_graph, vertex, port)


def test_graph_pickles_after_its_views_are_built(multi_graph):
    # a process pool pickles the graph; the cached views must not stop it
    multi_graph.pairing, multi_graph.half_edges, multi_graph.vertex_degrees
    copy = pickle.loads(pickle.dumps(multi_graph))
    assert np.array_equal(copy.partner, multi_graph.partner)
    assert dict(copy.pairing) == dict(multi_graph.pairing)
