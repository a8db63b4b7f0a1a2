import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    ConfigError,
    PortGraph,
    StructureError,
    build_cycle,
    build_shift,
    classical_run,
    assign_ports,
    classical_step,
    from_edge_list,
    hadamard_phi,
    tvd,
    uniform_distribution,
)
from coinwalk.coin import default_coin_spec

import reference_graph as reference
from conftest import MULTI_ADJACENCY, port_permuted_torus_edges
from oracles import half_edge_step


def delta(n, j):
    p = np.zeros(n)
    p[j] = 1.0
    return p


def test_single_step_splits_evenly_on_cycle():
    g = build_cycle(5)
    out = classical_step(delta(5, 0), g)
    np.testing.assert_allclose(out, [0.0, 0.5, 0.0, 0.0, 0.5], atol=0)


def test_two_steps_on_cycle():
    g = build_cycle(5)
    out = classical_run(delta(5, 0), g, 2)
    np.testing.assert_allclose(out, [0.5, 0.0, 0.25, 0.25, 0.0], atol=1e-15)


def test_uniform_is_stationary_on_regular_graphs():
    for n in (3, 4, 7):
        g = build_cycle(n)
        u = uniform_distribution(n)
        np.testing.assert_allclose(classical_step(u, g), u, atol=1e-15)


def test_degree_weighted_distribution_is_stationary(multi_graph):
    degrees = np.array(multi_graph.vertex_degrees, dtype=float)
    pi = degrees / degrees.sum()
    np.testing.assert_allclose(classical_step(pi, multi_graph), pi, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=7, max_size=7
    ).filter(lambda w: sum(w) > 1e-6)
)
def test_step_preserves_the_simplex(weights, cycle7):
    p = np.asarray(weights) / sum(weights)
    out = classical_run(p, cycle7, 3)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_walk_matches_binomial_before_wraparound():
    # on a long cycle the first steps cannot feel the topology, so the
    # occupation is the symmetric binomial of net displacement
    n, t = 25, 10
    g = build_cycle(n)
    out = classical_run(delta(n, 0), g, t)
    for j in range(n):
        disp = j if j <= n // 2 else j - n
        if (t + disp) % 2 == 0 and abs(disp) <= t:
            expected = math.comb(t, (t + disp) // 2) / 2.0**t
        else:
            expected = 0.0
        assert out[j] == pytest.approx(expected, abs=1e-14)


def test_odd_cycle_mixes_to_uniform():
    g = build_cycle(7)
    out = classical_run(delta(7, 0), g, 200)
    assert tvd(out, uniform_distribution(7)) < 0.01


def test_even_cycle_never_mixes():
    g = build_cycle(6)
    p = delta(6, 0)
    u = uniform_distribution(6)
    for _ in range(50):
        p = classical_step(p, g)
        assert tvd(p, u) >= 0.5 - 1e-12


def test_isolated_vertex_keeps_its_mass():
    from coinwalk.graph import load_graph
    import json
    import tempfile

    payload = {
        "vertices": 3,
        "degree": 1,
        "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(payload, fh)
        path = fh.name
    with pytest.warns(UserWarning):
        g = load_graph(path)
    out = classical_step(np.array([0.5, 0.0, 0.5]), g)
    assert out[2] == 0.5


def test_hadamard_squares_to_fair_toss():
    g = build_cycle(3)
    transitions = [np.abs(hadamard_phi(np.pi / 2)) ** 2] * 3
    np.testing.assert_allclose(transitions[0], np.full((2, 2), 0.5), atol=1e-15)
    # a walker on (0, 0) leaves through either port with probability 1/2
    q1 = half_edge_step(np.eye(6)[0], g, transitions)
    np.testing.assert_allclose(q1, [0.0, 0.0, 0.0, 0.5, 0.5, 0.0], atol=1e-15)


def test_port_chain_marginal_equals_vertex_chain(cycle7, multi_graph):
    rng = np.random.default_rng(17)
    for g in (cycle7, multi_graph):
        n, d = g.num_vertices, g.degree
        spec = default_coin_spec(g)
        blocks = [spec] * n if isinstance(spec, np.ndarray) else spec
        transitions = [np.abs(b) ** 2 for b in blocks]
        # start from port-uniform occupation within each vertex
        p0 = rng.random(n)
        p0 /= p0.sum()
        q = np.zeros((n, d))
        for j in range(n):
            dj = g.vertex_degrees[j]
            q[j, :dj] = p0[j] / dj
        q = q.reshape(n * d)
        for t in range(1, 6):
            q = half_edge_step(q, g, transitions)
            np.testing.assert_allclose(
                q.reshape(n, d).sum(axis=1),
                classical_run(p0, g, t),
                atol=1e-13,
            )


def test_biased_toss_changes_the_chain():
    g = build_cycle(5)
    theta = 0.3
    block = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    transitions = [np.abs(block) ** 2] * 5
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    q0 = np.zeros(10)
    q0[0] = 1.0  # at vertex 0, port 0
    q1 = half_edge_step(q0, g, transitions)
    # toss keeps port 0 with prob cos^2 then crosses to (1, 1), else (4, 0)
    assert q1[2 * 1 + 1] == pytest.approx(c2, abs=1e-15)
    assert q1[2 * 4 + 0] == pytest.approx(s2, abs=1e-15)


def test_validation_rejects_bad_inputs(cycle7):
    with pytest.raises(StructureError, match="length"):
        classical_step(np.ones(3) / 3, cycle7)
    with pytest.raises(StructureError, match="length"):
        classical_run(np.ones(3) / 3, cycle7, 0)
    with pytest.raises(ConfigError, match="nonnegative"):
        classical_run(uniform_distribution(7), cycle7, -1)


# ----------------------------------------------------------------------
# the loop over the pairing dict that the half-edge arrays replaced, kept
# as the oracle for classical_step (build_shift is held to
# reference_graph.build_shift). It reads a ReferencePortGraph's own dict,
# never the pairing view that PortGraph derives from the arrays under test.

def pairing_loop_classical_step(p, graph):
    out = np.zeros_like(p)
    for (j, _k), (j2, _k2) in graph.pairing.items():
        out[j2] += p[j] / graph.vertex_degrees[j]
    for j, dj in enumerate(graph.vertex_degrees):
        if dj == 0:
            out[j] += p[j]
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["cycle", "multi", "torus"]),
    isolated=st.integers(0, 3),
)
def test_half_edge_arrays_match_the_pairing_loops(multi_graph, seed, kind, isolated):
    rng = np.random.default_rng(seed)
    if kind == "cycle":
        n = int(rng.integers(3, 10))
        g, ref = build_cycle(n), reference.build_cycle(n)
    elif kind == "multi":
        g, ref = multi_graph, reference.from_edge_list(assign_ports(MULTI_ADJACENCY))
    else:
        edges = port_permuted_torus_edges(int(rng.integers(3, 6)), rng)
        g, ref = from_edge_list(edges), reference.from_edge_list(edges)
    # the dict in the order of the file save_graph writes, which is the
    # order np.add.at sums in
    ref = reference.from_edge_list(ref.to_edge_list())
    if isolated:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            g = PortGraph(np.vstack([g.partner, np.full((isolated, g.degree), -1)]))
        ref = ref.with_isolated_vertices(isolated)
    n = g.num_vertices
    assert np.array_equal(build_shift(g).permutation, reference.build_shift(ref))

    p = rng.random(n)
    p /= p.sum()
    assert np.array_equal(classical_step(p, g), pairing_loop_classical_step(p, ref))
