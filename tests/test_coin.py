import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    PortGraph,
    StructureError,
    assign_ports,
    build_cycle,
    default_coin_spec,
    dft_coin,
    from_edge_list,
    hadamard_phi,
    pure_position_marginal,
)
from coinwalk import coin
from coinwalk.coin import coin_spec_from_config, default_coin_type, embedded_blocks
from coinwalk.errors import ConfigError

from conftest import MULTI_ADJACENCY, port_permuted_torus, random_pure_state
from oracles import build_coin_operator

ATOL = 1e-12


def test_hadamard_at_quarter_turn_is_real():
    h = hadamard_phi(np.pi / 2)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=ATOL)


def test_hadamard_at_zero_phase():
    h = hadamard_phi(0.0)
    np.testing.assert_allclose(h, np.array([[1, -1j], [1j, -1]]) / np.sqrt(2), atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_hadamard_unitary_for_any_phase(phi):
    h = hadamard_phi(phi)
    np.testing.assert_allclose(h @ h.conj().T, np.eye(2), atol=ATOL)


def test_dft_small_cases():
    np.testing.assert_allclose(
        dft_coin(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=ATOL
    )
    np.testing.assert_allclose(dft_coin(1), [[1.0]], atol=ATOL)


def test_dft_columns_orthogonal():
    f = dft_coin(4)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(4), atol=ATOL)


def test_dft_rejects_nonpositive_dimension():
    with pytest.raises(ConfigError):
        dft_coin(0)


def test_shared_coin_on_small_cycle():
    g = build_cycle(3)
    op = build_coin_operator(g, hadamard_phi(np.pi / 2))
    assert op.shape == (6, 6)
    block = hadamard_phi(np.pi / 2)
    for j in range(3):
        np.testing.assert_allclose(op[2 * j: 2 * j + 2, 2 * j: 2 * j + 2], block)
    np.testing.assert_allclose(op.conj().T @ op, np.eye(6), atol=ATOL)


def test_shared_and_per_vertex_builds_agree():
    g = build_cycle(5)
    block = hadamard_phi(1.2)
    shared = build_coin_operator(g, block)
    listed = build_coin_operator(g, [block] * 5)
    np.testing.assert_allclose(shared, listed, atol=0)
    # a shared block is validated once and held once, as one read-only
    # (d, d) block, so no vertex's block can be changed through it
    blocks = embedded_blocks(g, block)
    assert blocks.shape == (2, 2)
    assert np.array_equal(_as_stack(g, blocks), embedded_blocks(g, [block] * 5))
    with pytest.raises(ValueError):
        blocks[0, 0] = 7.0


def test_default_coin_on_irregular_graph_uses_vertex_degrees(multi_graph):
    op = build_coin_operator(multi_graph, default_coin_spec(multi_graph))
    d = multi_graph.degree
    # operator must be unitary exactly on the used subspace
    used = np.zeros(multi_graph.num_vertices * d)
    for j, dj in enumerate(multi_graph.vertex_degrees):
        used[j * d: j * d + dj] = 1.0
    np.testing.assert_allclose(op.conj().T @ op, np.diag(used), atol=1e-10)


def test_unused_port_rows_and_columns_are_zero(multi_graph):
    op = build_coin_operator(multi_graph, default_coin_spec(multi_graph))
    d = multi_graph.degree
    for j, dj in enumerate(multi_graph.vertex_degrees):
        for k in range(dj, d):
            assert np.all(op[j * d + k, :] == 0)
            assert np.all(op[:, j * d + k] == 0)


def test_full_block_on_reduced_vertex_is_rejected():
    path = from_edge_list([(0, 0, 1, 0), (1, 1, 2, 0)])
    blocks = [hadamard_phi(np.pi / 2)] * 3  # vertices 0 and 2 have degree 1
    with pytest.raises(StructureError, match="unused ports"):
        build_coin_operator(path, blocks)


def test_reduced_vertex_takes_small_unitary():
    path = from_edge_list([(0, 0, 1, 0), (1, 1, 2, 0)])
    blocks = [np.eye(1), hadamard_phi(np.pi / 2), np.eye(1)]
    op = build_coin_operator(path, blocks)
    assert op[0, 0] == 1.0
    assert np.all(op[1, :] == 0) and np.all(op[:, 1] == 0)


def test_padded_full_size_block_is_accepted():
    path = from_edge_list([(0, 0, 1, 0), (1, 1, 2, 0)])
    padded = np.zeros((2, 2), dtype=complex)
    padded[0, 0] = 1.0
    blocks = [padded, hadamard_phi(np.pi / 2), np.eye(1)]
    op = build_coin_operator(path, blocks)
    assert op[0, 0] == 1.0


def test_non_unitary_block_is_rejected():
    g = build_cycle(3)
    with pytest.raises(StructureError, match="unitary"):
        build_coin_operator(g, np.ones((2, 2)))
    # the block a phase of NaN or Inf gave, before hadamard_phi refused such a phase
    nan_block = np.array([[1, np.nan], [np.nan, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(StructureError, match="unitary"):
        embedded_blocks(g, nan_block)
    # an Inf entry too, refused before its product could warn of an invalid value
    inf_block = np.array([[1, np.inf], [1, -1]], dtype=complex)
    with pytest.raises(StructureError, match="unitary"):
        embedded_blocks(g, inf_block)


def test_block_of_neither_size_is_rejected(multi_graph):
    with pytest.raises(StructureError, match=r"^coin block shared by every vertex has shape \(3, 3\); "
                       r"expected \(2,2\) or \(2,2\)$"):
        embedded_blocks(build_cycle(5), dft_coin(3))
    # vertex 1 of the multi graph has degree 2, inside a graph of degree 4
    blocks = [dft_coin(dj) for dj in multi_graph.vertex_degrees]
    blocks[1] = dft_coin(3)
    with pytest.raises(StructureError, match=r"^coin block at vertex 1 has shape \(3, 3\); "
                       r"expected \(2,2\) or \(4,4\)$"):
        embedded_blocks(multi_graph, blocks)


def test_shared_spec_requires_regular_graph(multi_graph):
    with pytest.raises(StructureError, match="full degree"):
        embedded_blocks(multi_graph, dft_coin(4))


def test_default_coin_checks_each_distinct_block_once():
    path = from_edge_list(assign_ports([(j, j + 1) for j in range(999)]))
    with mock.patch.object(coin, "_check_block_unitary",
                           wraps=coin._check_block_unitary) as check:
        blocks = embedded_blocks(path, default_coin_spec(path))
    assert check.call_count <= path.degree + 1
    assert np.array_equal(blocks, _reference_coin("dft", path))


def test_stacked_coin_names_its_non_unitary_vertex():
    g = build_cycle(6)
    stack = np.repeat(hadamard_phi(0.4)[None], 6, axis=0)
    assert np.array_equal(embedded_blocks(g, stack), stack)
    # every vertex is a new view of the stack, and each is checked
    stack[-1] = np.ones((2, 2))
    with pytest.raises(StructureError, match="^coin block at vertex 5 is not unitary"):
        embedded_blocks(g, stack)


def test_block_count_must_match_vertices():
    g = build_cycle(4)
    with pytest.raises(StructureError, match="blocks"):
        build_coin_operator(g, [hadamard_phi(0.0)] * 3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_coin_never_moves_the_walker(cycle7, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, 14)
    op = build_coin_operator(cycle7, default_coin_spec(cycle7))
    np.testing.assert_allclose(
        pure_position_marginal(op @ psi, 2),
        pure_position_marginal(psi, 2),
        atol=ATOL,
    )


def test_coin_config_parsing(cycle7):
    h = coin_spec_from_config({"type": "hadamard", "phi": 0.0}, cycle7)
    np.testing.assert_allclose(h, hadamard_phi(0.0), atol=0)
    f = coin_spec_from_config({"type": "dft"}, cycle7)
    assert f.ndim == 2
    custom = coin_spec_from_config(
        {
            "type": "custom",
            "blocks": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 3,
        },
        build_cycle(3),
    )
    np.testing.assert_allclose(custom[0], np.eye(2), atol=0)


def test_default_and_dft_coins_give_isolated_vertices_an_empty_block(multi_graph):
    with pytest.warns(UserWarning, match="isolated"):
        g = PortGraph(np.vstack([multi_graph.partner, np.full((1, multi_graph.degree), -1)]))
    assert default_coin_type(g) == "dft"
    assert default_coin_type(build_cycle(5)) == "hadamard"
    for spec in (default_coin_spec(g), coin_spec_from_config({"type": "dft"}, g)):
        blocks = embedded_blocks(g, spec)
        assert blocks[6].shape == (4, 4) and not blocks[6].any()
        expected = embedded_blocks(multi_graph, default_coin_spec(multi_graph))
        assert np.array_equal(blocks[:6], expected)


def test_coin_config_errors(cycle7, multi_graph):
    for config in (5, [1, 2], "dft", None):
        with pytest.raises(ConfigError, match="JSON object"):
            coin_spec_from_config(config, cycle7)
    with pytest.raises(ConfigError, match="'blocks' list"):
        coin_spec_from_config({"type": "custom", "blocks": 5}, cycle7)
    for phi in ("x", [1], None):
        with pytest.raises(ConfigError, match="phi"):
            coin_spec_from_config({"type": "hadamard", "phi": phi}, cycle7)
    # finite JSON numbers a float holds only: a boolean, a string, a huge integer or
    # Infinity, -Infinity and NaN, which Python's json reads as floats, is not one
    for phi in (True, "0.3", 10**400, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="phi"):
            coin_spec_from_config({"type": "hadamard", "phi": phi}, cycle7)
    identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    for entry in ([True, 0], [1, False], ["1", 0], [1, "0"], [10**400, 0], [0, -10**400],
                  [math.inf, 0], [0, -math.inf], [math.nan, 0]):
        blocks = [identity, [[entry, [0, 0]], [[0, 0], [1, 0]]]]
        with pytest.raises(ConfigError, match=r"blocks\[1\]"):
            coin_spec_from_config({"type": "custom", "blocks": blocks}, cycle7)
    with pytest.raises(ConfigError, match="degree 2"):
        coin_spec_from_config({"type": "hadamard"}, multi_graph)
    with pytest.raises(ConfigError, match="unknown coin type"):
        coin_spec_from_config({"type": "fourier"}, cycle7)
    with pytest.raises(ConfigError, match="blocks"):
        coin_spec_from_config({"type": "custom"}, cycle7)
    with pytest.raises(ConfigError, match="re, im"):
        coin_spec_from_config({"type": "custom", "blocks": [[[1, 2], [3]]]}, cycle7)


def test_coin_spec_validation():
    with pytest.raises(StructureError, match="need 7 coin blocks"):
        embedded_blocks(build_cycle(7), [])


def _as_stack(graph, blocks):
    """An embedded_blocks result as the (N, d, d) stack, a shared block broadcast."""
    return np.broadcast_to(blocks, (graph.num_vertices, graph.degree, graph.degree))


def _reference_coin(kind, graph):
    """The coin stack, or the error message, of the per-vertex degree checks."""
    degrees = graph.vertex_degrees
    if kind == "hadamard" and any(dj != 2 for dj in degrees):
        return "the hadamard coin needs every vertex to have degree 2"
    if kind == "hadamard" or all(dj == graph.degree for dj in degrees):
        block = hadamard_phi(np.pi / 2) if kind == "hadamard" else dft_coin(graph.degree)
        return np.repeat(block[None], graph.num_vertices, axis=0)
    # a vertex of degree dj gets the dj x dj DFT coin, zero-padded to d x d
    return np.stack([np.pad(dft_coin(dj) if dj else np.zeros((0, 0), dtype=complex),
                            (0, graph.degree - dj)) for dj in degrees])


def _coin_graphs():
    """Cycles, tori, multi_graph and a path, and copies with isolated vertices."""
    rng = np.random.default_rng(2)
    graphs = [build_cycle(3), build_cycle(8), port_permuted_torus(3, rng),
              port_permuted_torus(4, rng), from_edge_list(assign_ports(MULTI_ADJACENCY)),
              from_edge_list(assign_ports([(0, 1), (1, 2), (2, 3)]))]  # a path: ends of degree 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        graphs += [PortGraph(np.vstack([g.partner, np.full((count, g.degree), -1)]))
                   for g in graphs[:5:2] for count in (1, 3)]
    return graphs


@pytest.mark.parametrize("index", range(12))
def test_degree_checks_keep_their_coins_and_messages(index):
    graph = _coin_graphs()[index]
    full = all(dj == graph.degree for dj in graph.vertex_degrees)
    assert default_coin_type(graph) == (
        "hadamard" if all(dj == 2 for dj in graph.vertex_degrees) else "dft"
    )
    for kind in ("hadamard", "dft"):
        expected = _reference_coin(kind, graph)
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as err:
                coin_spec_from_config({"type": kind}, graph)
            assert str(err.value) == expected
            continue
        spec = coin_spec_from_config({"type": kind}, graph)
        assert isinstance(spec, np.ndarray) == full
        blocks = embedded_blocks(graph, spec)
        assert blocks.ndim == (2 if full else 3)
        assert np.array_equal(_as_stack(graph, blocks), expected)
    shared = dft_coin(graph.degree)
    if full:
        blocks = embedded_blocks(graph, shared)
        assert blocks.shape == (graph.degree, graph.degree)
        assert np.array_equal(_as_stack(graph, blocks), _reference_coin("dft", graph))
    else:
        with pytest.raises(StructureError, match="^shared coin block requires every vertex "
                           "to have full degree$"):
            embedded_blocks(graph, shared)
