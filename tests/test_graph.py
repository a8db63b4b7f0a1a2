import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    ConfigError,
    Edge,
    PortGraph,
    StructureError,
    assign_ports,
    build_cycle,
    from_edge_list,
)
from coinwalk import graph as graph_module
from coinwalk.graph import load_graph, save_graph

import reference_graph as reference
from conftest import MULTI_ADJACENCY, port_permuted_torus_edges


def test_cycle_basic_counts():
    g = build_cycle(7)
    assert g.num_vertices == 7
    assert g.num_edges == 7
    assert g.degree == 2
    assert g.vertex_degrees == (2,) * 7


def test_cycle_pairing_follows_the_ring():
    g = build_cycle(3)
    assert g.opposite_end(0, 0) == (1, 1)
    assert g.opposite_end(1, 1) == (0, 0)
    assert g.opposite_end(2, 0) == (0, 1)


def test_cycle_rejects_tiny_rings():
    with pytest.raises(StructureError):
        build_cycle(2)
    with pytest.raises(StructureError):
        build_cycle(1)


@pytest.mark.parametrize("n", range(3, 10))
def test_pairing_is_a_fixed_point_free_involution(n):
    g = build_cycle(n)
    for (j, k) in g.pairing:
        assert g.opposite_end(*g.opposite_end(j, k)) == (j, k)
        assert g.opposite_end(j, k) != (j, k)
        assert g.opposite_end(j, k)[0] != j


def test_multi_graph_shape(multi_graph):
    assert multi_graph.num_vertices == 6
    assert multi_graph.num_edges == 8
    assert multi_graph.degree == 4
    assert multi_graph.vertex_degrees == (4, 2, 3, 3, 3, 1)
    for (j, k) in multi_graph.pairing:
        assert multi_graph.opposite_end(*multi_graph.opposite_end(j, k)) == (j, k)


def test_half_edge_count_is_twice_the_edges(multi_graph):
    assert len(multi_graph.pairing) == 2 * multi_graph.num_edges
    assert sum(multi_graph.vertex_degrees) == 2 * multi_graph.num_edges


def test_single_edge_graph():
    g = from_edge_list([(0, 0, 1, 0)])
    assert g.num_vertices == 2
    assert g.degree == 1
    assert g.opposite_end(0, 0) == (1, 0)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(StructureError, match="self-loop"):
        from_edge_list([(0, 0, 0, 1)])


def test_from_edge_list_rejects_duplicate_half_edge():
    with pytest.raises(StructureError, match="duplicate"):
        from_edge_list([(0, 0, 1, 0), (0, 0, 2, 0)])


def test_from_edge_list_rejects_parallel_edges():
    with pytest.raises(StructureError, match="parallel"):
        from_edge_list([(0, 0, 1, 0), (0, 1, 1, 1)])


def test_from_edge_list_rejects_port_gaps():
    # vertex 0 has degree 1 but uses port 1
    with pytest.raises(StructureError, match="port"):
        from_edge_list([(0, 1, 1, 0)])


def test_from_edge_list_lists_port_gaps_in_edge_order():
    edges = [(3, 5, 4, 0), (0, 2, 1, 0), (1, 1, 2, 0)]
    with pytest.raises(StructureError) as err:
        from_edge_list(edges)
    assert str(err.value) == (
        "invalid edge list: vertex 3 has degree 1 but uses port 5; ports must be 0..0; "
        "vertex 0 has degree 1 but uses port 2; ports must be 0..0"
    )


@pytest.mark.parametrize("edge", [(2**70, 0, 1, 0), (0, 0, 1, 2**70)])
def test_from_edge_list_rejects_an_end_too_large_for_a_port_array(edge):
    # listed with the edge list's other problems, as a negative end is
    edges = [edge, (0, 0, 0, 1)]
    with pytest.raises(StructureError) as err:
        from_edge_list(edges)
    assert str(err.value) == (
        f"invalid edge list: oversized vertex or port in {Edge(*edge)}; self-loop at vertex 0"
    )
    with pytest.raises(StructureError, match="oversized vertex or port"):
        from_edge_list([(0, 0, 1, graph_module._MAX_PORTS)])


def test_from_edge_list_names_a_vertex_count_it_cannot_allocate():
    # 10**12 + 1 vertices: a count array of 8 TB, far beyond any memory
    with pytest.raises(StructureError) as err:
        from_edge_list([(10**12, 0, 1, 0)])
    assert str(err.value) == (
        "edge list names vertex 1000000000000: "
        "no memory for the partner array of 1000000000001 vertices"
    )


def test_from_edge_list_reports_every_problem_at_once():
    with pytest.raises(StructureError) as err:
        from_edge_list([(0, 0, 0, 1), (1, 0, 2, 0), (1, 0, 3, 0)])
    message = str(err.value)
    assert "self-loop" in message and "duplicate" in message


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 0.5, 1, 0)],
        [(0, 0, 1, 0), (1, 1, 2, 0.9)],
        [(0, 0, 1.0, 0)],
        [(0, 0, True, 0)],
        [(0, 0, 1, False)],
        [("0", 0, 1, 0)],
    ],
)
def test_from_edge_list_rejects_non_integer_endpoints(edges):
    bad = Edge(*next(e for e in edges if any(type(x) is not int for x in e)))
    with pytest.raises(StructureError, match=re.escape(f"non-integer vertex or port in {bad}")):
        from_edge_list(edges)


def test_from_edge_list_reports_non_integer_and_negative_endpoints_together():
    with pytest.raises(StructureError) as err:
        from_edge_list([(0, 0.5, 1, 0), (-1, 0, 2, 0)])
    assert "non-integer" in str(err.value) and "negative" in str(err.value)


def test_from_edge_list_accepts_numpy_integers():
    edges = [(0, 0, 1, 0), (1, 1, 2, 0)]
    graph = from_edge_list([tuple(np.int64(x) for x in e) for e in edges])
    assert graph.to_edge_list() == [Edge(*e) for e in edges]


def test_edge_list_round_trip(multi_graph):
    rebuilt = from_edge_list(multi_graph.to_edge_list())
    assert rebuilt.pairing == multi_graph.pairing
    assert rebuilt.vertex_degrees == multi_graph.vertex_degrees


def test_unused_port_query_is_an_error(multi_graph):
    # vertex 5 has degree 1, port 1 exists nowhere
    with pytest.raises(StructureError):
        multi_graph.opposite_end(5, 1)


def test_assign_ports_triangle_is_greedy():
    edges = assign_ports([(0, 1), (0, 2), (1, 2)])
    assert edges == [Edge(0, 0, 1, 0), Edge(0, 1, 2, 0), Edge(1, 1, 2, 1)]


def test_assign_ports_path():
    edges = assign_ports([(1, 2), (0, 1)])
    # sorted processing: (0,1) first, so vertex 1 faces 0 through port 0
    assert Edge(0, 0, 1, 0) in edges
    assert Edge(1, 1, 2, 0) in edges


def test_assign_ports_cycle_round_trips():
    adjacency = [(j, (j + 1) % 5) for j in range(5)]
    g = from_edge_list(assign_ports(adjacency))
    assert g.num_vertices == 5
    assert g.vertex_degrees == (2,) * 5
    assert g.num_edges == 5


def test_assign_ports_rejects_bad_adjacency():
    with pytest.raises(StructureError):
        assign_ports([(0, 0)])
    with pytest.raises(StructureError):
        assign_ports([(0, 1), (1, 0)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_adjacency_builds_valid_graphs(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = data.draw(
        st.lists(st.sampled_from(possible), min_size=1, unique=True)
    )
    touched = sorted({v for e in chosen for v in e})
    relabel = {v: i for i, v in enumerate(touched)}
    adjacency = [(relabel[a], relabel[b]) for a, b in chosen]

    g = from_edge_list(assign_ports(adjacency))
    assert g.num_edges == len(adjacency)
    assert sum(g.vertex_degrees) == 2 * len(adjacency)
    for (j, k) in g.pairing:
        assert g.opposite_end(*g.opposite_end(j, k)) == (j, k)
        assert g.opposite_end(j, k) != (j, k)


def test_graph_json_round_trip(tmp_path, multi_graph):
    path = tmp_path / "graph.json"
    save_graph(multi_graph, str(path))
    loaded = load_graph(str(path))
    assert loaded.pairing == multi_graph.pairing
    assert loaded.degree == multi_graph.degree


@pytest.mark.filterwarnings("ignore:graph has isolated vertices")
@pytest.mark.parametrize("isolated", [0, 1, 3])
@pytest.mark.parametrize("block", [1, 3, 4096])
def test_edge_list_text_is_the_json_dump_of_the_edge_dicts(monkeypatch, multi_graph, isolated,
                                                           block):
    monkeypatch.setattr(graph_module, "_EDGE_BLOCK", block)
    graph = PortGraph(np.vstack([multi_graph.partner, np.full((isolated, 4), -1)]))
    edges = [vars(e) for e in multi_graph.to_edge_list()]
    # the value of a graph file's "edges" key, one level deep, is indented
    # one more space on every line after its first; isolated vertices add nothing
    expected = json.dumps(edges, indent=1, sort_keys=True).replace("\n", "\n ")
    assert "".join(graph_module._edges_json(graph)) == expected


@pytest.mark.filterwarnings("ignore:graph has isolated vertices")
@pytest.mark.parametrize("isolated", [0, 2])
@pytest.mark.parametrize("n", [3, 5000])
def test_save_graph_writes_the_json_dump_of_the_graph(tmp_path, n, isolated):
    """The file text json.dump(indent=1, sort_keys=True) gives, also past one block of edges."""
    graph = build_cycle(n)
    if isolated:
        with pytest.warns(UserWarning, match="isolated"):
            graph = PortGraph(np.vstack([graph.partner, np.full((isolated, 2), -1)]))
    path = tmp_path / "graph.json"
    save_graph(graph, str(path))
    payload = {"vertices": n + isolated, "degree": 2,
               "edges": [vars(e) for e in graph.to_edge_list()]}
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert np.array_equal(load_graph(str(path)).partner, graph.partner)


@pytest.mark.parametrize("target", ["a-directory", "a-file/graph.json"])
def test_save_graph_that_cannot_write_raises_config_error_naming_the_path(tmp_path, target):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-file").write_text("x")
    path = str(tmp_path / target)
    with pytest.raises(ConfigError, match=f"cannot write {re.escape(path)}: "):
        save_graph(build_cycle(5), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "a-file"]
    assert not list((tmp_path / "a-directory").iterdir())


def test_load_graph_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_graph(str(path))


def test_load_graph_rejects_missing_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"vertices": 2, "edges": []}))
    with pytest.raises(ValueError, match="degree"):
        load_graph(str(path))


def test_load_graph_checks_declared_counts(tmp_path):
    path = tmp_path / "wrong.json"
    payload = {
        "vertices": 2,
        "degree": 3,
        "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="degree"):
        load_graph(str(path))


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_load_graph_rejects_more_vertices_than_an_intp_can_index(tmp_path, degree):
    path = tmp_path / "huge.json"
    vertices = np.iinfo(np.intp).max // degree + 1
    path.write_text(json.dumps({"vertices": vertices, "degree": degree, "edges": [
        {"u": 0, "pu": 0, "v": 1, "pv": 0}]}))
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: 'vertices' is {vertices}, too many")):
        load_graph(str(path))


def test_load_graph_allows_declared_isolated_vertices(tmp_path):
    path = tmp_path / "isolated.json"
    payload = {
        "vertices": 3,
        "degree": 1,
        "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}],
    }
    path.write_text(json.dumps(payload))
    with pytest.warns(UserWarning, match="isolated") as records:
        g = load_graph(str(path))
    assert g.num_vertices == 3
    assert g.vertex_degrees == (1, 1, 0)
    # the warning names load_graph, which built the graph, and not the
    # dataclass-generated __init__
    (record,) = records
    assert record.filename != "<string>"
    assert record.filename == graph_module.__file__


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["multi", "torus"]),
    isolated=st.integers(0, 2),
)
def test_load_graph_reads_the_partner_of_from_edge_list(tmp_path_factory, seed, kind, isolated):
    # a file save_graph wrote, and the same edges shuffled with about half
    # of them written end first, both load to from_edge_list's partner
    rng = np.random.default_rng(seed)
    if kind == "multi":
        edges = assign_ports(MULTI_ADJACENCY)
    else:
        edges = port_permuted_torus_edges(int(rng.integers(3, 6)), rng)
    built = from_edge_list(edges).partner
    expected = np.vstack([built, np.full((isolated, built.shape[1]), -1)])
    saved = tmp_path_factory.mktemp("load") / "saved.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        save_graph(PortGraph(expected), str(saved))
    raw = json.loads(saved.read_text())
    raw["edges"] = [raw["edges"][i] for i in rng.permutation(len(raw["edges"]))]
    for e in raw["edges"]:
        if rng.random() < 0.5:
            e["u"], e["pu"], e["v"], e["pv"] = e["v"], e["pv"], e["u"], e["pu"]
    shuffled = saved.with_name("shuffled.json")
    shuffled.write_text(json.dumps(raw))
    for path in (saved, shuffled):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert np.array_equal(load_graph(str(path)).partner, expected)


def test_load_graph_builds_no_edge(tmp_path, monkeypatch, multi_graph):
    path = tmp_path / "multi.json"
    save_graph(multi_graph, str(path))

    def no_edge(*args, **kwargs):
        raise AssertionError("load_graph built an Edge")

    monkeypatch.setattr(graph_module, "Edge", no_edge)
    assert np.array_equal(load_graph(str(path)).partner, multi_graph.partner)


def test_load_graph_reports_every_problem_of_its_edge_list(tmp_path):
    # a self-loop, a repeated half-edge, a parallel edge and a negative port,
    # reported as from_edge_list reported them when it checked one edge at a time
    edges = [(0, 0, 0, 1), (1, 0, 2, 0), (1, 0, 3, 0), (2, 1, 3, 1), (3, 2, 2, 2), (4, 0, 1, -1)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 5, "degree": 3, "edges": [
        dict(zip(("u", "pu", "v", "pv"), e)) for e in edges]}))
    with pytest.raises(StructureError) as expected:
        reference.from_edge_list(edges)
    assert str(expected.value).count(";") == 3  # four problems
    with pytest.raises(StructureError) as err:
        load_graph(str(path))
    assert str(err.value) == str(expected.value)


def test_load_graph_checks_and_warns_once(tmp_path, monkeypatch):
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(
        {"vertices": 4, "degree": 1, "edges": [{"u": 0, "pu": 0, "v": 2, "pv": 0}]}))
    calls = []
    check = graph_module._check_half_edges
    monkeypatch.setattr(graph_module, "_check_half_edges",
                        lambda *args: calls.append(args) or check(*args))
    with pytest.warns(UserWarning, match="isolated") as records:
        g = load_graph(str(path))
    assert g.vertex_degrees == (1, 0, 1, 0)
    assert len(records) == 1
    assert len(calls) == 1


def test_isolated_vertex_warning_points_at_the_constructor_call(multi_graph):
    with pytest.warns(UserWarning, match="isolated") as records:
        PortGraph(np.vstack([multi_graph.partner, np.full((1, multi_graph.degree), -1)]))
    (record,) = records
    assert record.filename == __file__


def test_multi_adjacency_matches_fixture(multi_graph):
    # the fixture is built from this exact adjacency; the degrees above
    # pin the instance so other tests can rely on it
    assert len(MULTI_ADJACENCY) == multi_graph.num_edges
