"""The sides of a light cone: where a bipartite cone splits, and that the split keeps every bit.

A walk on a cone with two sides holds only the side it stands on. Each
test below runs a walk as it is and once more with evolution._light_cone
patched to give every cone as one side, and asks for the same bits.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    ShiftOperator,
    assign_ports,
    basis_state,
    build_cycle,
    build_cycle_shift,
    compare_mixing,
    enumerate_branches,
    from_edge_list,
    make_step,
    marginal_history,
    run,
    sample_trajectories,
)
from coinwalk import evolution

from conftest import port_permuted_torus
from test_light_cone import cone_cases


_light_cone = evolution._light_cone


def _one_side(psi0, step, steps):
    """_light_cone as if no cone had two sides."""
    return evolution._Sides(step, (np.sort(np.concatenate(_light_cone(psi0, step, steps).sides)),))


def _sides(psi0, step, steps):
    return list(_light_cone(psi0, step, steps).sides)


def _path(n):
    return from_edge_list(assign_ports([(j, j + 1) for j in range(n - 1)]))


def test_the_256_cycle_cone_of_20_steps_has_sides_of_21_and_20():
    graph = build_cycle(256)
    step = make_step(graph, shift=build_cycle_shift(256), beta=0.5, vertex_p=0.1)
    even, odd = _sides(basis_state(graph, 100, 0), step, 20)
    assert even.tolist() == list(range(80, 121, 2))
    assert odd.tolist() == list(range(81, 120, 2))


def test_the_8x8_torus_cone_of_40_steps_has_sides_of_32_and_32():
    graph = port_permuted_torus(8, np.random.default_rng(1))
    even, odd = _sides(basis_state(graph, 27, 1), make_step(graph, beta=0.5), 40)
    rows, cols = np.divmod(even, 8)
    assert even.size == odd.size == 32
    assert np.all((rows + cols) % 2 == (27 // 8 + 27 % 8) % 2)


def _reflecting_cycle(n):
    """The direction-preserving n-cycle with the moves across the edge (0, 1) sent back.

    Port 0 of vertex 0 and port 1 of vertex 1 each move to their own vertex,
    as a self-loop would, and the walk is a line with a reflecting end."""
    perm = build_cycle_shift(n).permutation.copy()
    perm[0], perm[3] = 1, 2
    return ShiftOperator(perm, "reflecting", 2)


def _both_parities(graph):
    psi0 = basis_state(graph, 0, 0) + basis_state(graph, 1, 0)
    return psi0 / np.linalg.norm(psi0)


@pytest.mark.parametrize("case", ["15x15 torus", "7-cycle", "self-loop", "unused port",
                                  "both parities", "one-vertex side"])
def test_these_cones_are_one_side(case):
    if case == "15x15 torus":
        graph = port_permuted_torus(15, np.random.default_rng(5))
        psi0, step, steps = basis_state(graph, 7, 2), make_step(graph), 1000
    elif case == "7-cycle":
        graph = build_cycle(7)
        psi0, step, steps = basis_state(graph, 0, 0), make_step(graph, beta=0.5), 10
    elif case == "self-loop":
        graph = build_cycle(8)
        step = make_step(graph, shift=_reflecting_cycle(8), beta=0.5)
        psi0, steps = basis_state(graph, 4, 0), 12
    elif case == "unused port":
        graph = _path(9)
        psi0, step, steps = basis_state(graph, 4, 0), make_step(graph, beta=0.5), 4
    elif case == "both parities":
        graph = build_cycle(16)
        psi0, step, steps = _both_parities(graph), make_step(graph, beta=0.5), 3
    else:
        graph = build_cycle(16)
        psi0, step, steps = basis_state(graph, 0, 0), make_step(graph, beta=0.5), 1
    (side,) = _sides(psi0, step, steps)
    assert side.size > 1


def test_a_cone_short_of_the_path_ends_has_two_sides():
    """The path's ends have an unused port each; a cone of 3 steps from its middle misses them."""
    graph = _path(9)
    even, odd = _sides(basis_state(graph, 4, 0), make_step(graph, beta=0.5), 3)
    assert even.tolist() == [2, 4, 6] and odd.tolist() == [1, 3, 5, 7]


@st.composite
def side_cases(draw, multi_graph):
    """A graph, a shift for it, a start on one or two vertices and 0 to 3 steps.

    Cycles of either parity with both shifts, port-permuted 3x3 and 4x4
    tori and paths are bipartite or not; the MULTI_ADJACENCY graph has a
    triangle and unused ports. Short cones on the larger graphs have not
    wrapped, and a walk of 0 or 1 steps from one vertex has a one-vertex
    side 0, so it is one side.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cycle", "torus", "path", "multi"]))
    shift = None
    if kind == "cycle":
        graph = build_cycle(draw(st.integers(3, 12)))
        direction = draw(st.sampled_from([None, 1, -1]))
        if direction is not None:
            shift = build_cycle_shift(graph.num_vertices, direction)
    elif kind == "torus":
        graph = port_permuted_torus(draw(st.integers(3, 4)), rng)
    elif kind == "path":
        graph = _path(draw(st.integers(3, 10)))
    else:
        graph = multi_graph
    starts = draw(st.lists(st.integers(0, graph.num_vertices - 1), min_size=1, max_size=2,
                           unique=True))
    psi0 = np.zeros(graph.num_vertices * graph.degree, dtype=complex)
    for j in starts:
        ports = j * graph.degree + np.arange(graph.vertex_degrees[j])
        psi0[ports] = rng.normal(size=ports.size) + 1j * rng.normal(size=ports.size)
    psi0 /= np.linalg.norm(psi0)
    return graph, shift, psi0, draw(st.integers(0, 3))


def _twice(walk):
    """walk() as it is, and with every cone one side."""
    sided = walk()
    with mock.patch.object(evolution, "_light_cone", _one_side):
        return sided, walk()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), coin=st.sampled_from(["shared", "stacked", "unitary"]),
       p=st.sampled_from([0.0, 0.3, 1.0]),
       placement=st.sampled_from(["before-shift", "after-shift"]))
def test_density_and_unitary_walks_on_two_sides_are_the_one_sided_walk(
    multi_graph, data, coin, p, placement
):
    graph, shift, psi0, steps = data.draw(side_cases(multi_graph))
    if coin == "unitary":
        step = make_step(graph, shift=shift)
    else:
        step = make_step(graph, shift=shift, beta=0.5, vertex_p=p, placement=placement)
    if coin == "stacked":
        rng = np.random.default_rng(steps)
        phases = np.exp(2j * np.pi * rng.random(graph.num_vertices))[:, None, None]
        stack = np.broadcast_to(step.coin, (graph.num_vertices,) + step.coin.shape[-2:])
        step = replace(step, coin=stack * phases)
    history, one_sided = _twice(lambda: marginal_history(psi0, step, steps))
    assert np.array_equal(history, one_sided)
    rho, one_sided = _twice(lambda: run(psi0, step, steps))
    assert np.array_equal(rho, one_sided)
    mixing, one_sided = _twice(lambda: compare_mixing(graph, step, psi0, max(steps, 1), 0.05))
    assert mixing == one_sided


@settings(max_examples=80, deadline=None)
@given(data=st.data(), beta=st.floats(0.0, 1.0, exclude_min=True),
       p=st.sampled_from([0.0, 1.0]),
       placement=st.sampled_from(["before-shift", "after-shift"]),
       samples=st.sampled_from([1, 7]))
def test_trajectories_and_branches_on_two_sides_are_the_one_sided_walk(
    multi_graph, data, beta, p, placement, samples
):
    graph, shift, psi0, steps = data.draw(side_cases(multi_graph))
    step = make_step(graph, shift=shift, beta=beta, vertex_p=p, placement=placement)
    seeds = list(range(samples))
    sampled, one_sided = _twice(lambda: list(sample_trajectories(psi0, step, steps, seeds)))
    for (cone, final, record), (one_cone, one_final, one_record) in zip(sampled, one_sided,
                                                                         strict=True):
        assert record == one_record
        assert np.array_equal(cone, one_cone) and np.array_equal(final, one_final)
    if p == 0.0:
        branches, one_sided = _twice(lambda: list(enumerate_branches(psi0, step, steps)))
        assert [(w, h) for w, _, h in branches] == [(w, h) for w, _, h in one_sided]
        for (_, state, _), (_, one_state, _) in zip(branches, one_sided, strict=True):
            assert np.array_equal(state, one_state)


def reference_sides(psi0, shift, steps):
    """The sides of the light cone of psi0, found with sets of vertices.

    Each vertex is labelled by the parity of the step that first reaches
    it, every vertex of psi0's support by 0. The cone is two sides, its
    sorted vertices of each parity, when every move between two cone
    vertices joins two parities, a move to its own vertex never does, and
    each side holds two vertices or more; else one side, all of them.
    """
    d = shift.degree
    perm = shift.permutation.tolist()
    parity = {i // d: 0 for i in np.flatnonzero(psi0).tolist()}
    frontier = set(parity)
    for t in range(1, steps + 1):
        frontier = {perm[v * d + k] // d for v in frontier for k in range(d)} - parity.keys()
        parity.update((v, t % 2) for v in frontier)
    moves = [(v, perm[v * d + k] // d) for v in parity for k in range(d)]
    sides = [sorted(v for v, p in parity.items() if p == side) for side in (0, 1)]
    joined = all(parity[v] != parity[w] for v, w in moves if w in parity)
    if joined and min(len(sides[0]), len(sides[1])) >= 2:
        return sides
    return [sorted(parity)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), cases=st.sampled_from(["cone", "side"]),
       few_moves=st.sampled_from([evolution._FEW_MOVES, 0, 10**9]))
def test_the_cone_has_the_sides_of_the_set_based_reference(multi_graph, data, cases, few_moves):
    """At its own crossover, and with every level walked by numpy (0) or in Python (10**9)."""
    if cases == "cone":
        _graph, psi0, step, steps = data.draw(cone_cases(multi_graph))
    else:
        graph, shift, psi0, steps = data.draw(side_cases(multi_graph))
        step = make_step(graph, shift=shift)
    with mock.patch.object(evolution, "_FEW_MOVES", few_moves):
        sides = _light_cone(psi0, step, steps).sides
    assert [side.tolist() for side in sides] == reference_sides(psi0, step.shift, steps)


def test_a_one_sided_cone_reads_the_zero_row_exactly_at_its_boundary():
    """Both parities from vertices 0 and 1 of the 16-cycle, 3 steps: vertices 13 to 4, unwrapped.

    _toss_blocks ends the side's half layout with a row of zeros, and the
    gather index reads it for exactly the block entries of a port whose
    source lies off the side, as an entry of either port of the pair.
    """
    graph = build_cycle(16)
    step = make_step(graph, beta=0.5, vertex_p=0.3)
    psi0 = _both_parities(graph)
    sides = _light_cone(psi0, step, 3)
    (side,) = sides.sides
    assert side.tolist() == [0, 1, 2, 3, 4, 13, 14, 15]
    m, d = side.size, 2
    rows = m * (m + 1) // 2
    ((sources, (vertex, port)),) = sides.moves
    off = np.zeros((m, d), dtype=bool)
    off[vertex, port] = True
    assert off.sum() == 2 and side[off.any(axis=1)].tolist() == [4, 13]  # a port at each end
    ((index, conjugate),) = sides.block_indices
    # the rows: the same-vertex blocks, then the pairs i < j in row-major order
    pairs = [(i, i) for i in range(m)] + [(i, j) for i in range(m) for j in range(i + 1, m)]
    i, j = np.array(pairs).T
    reads_zero = (off[i][:, :, None] | off[j][:, None, :]).reshape(rows, d * d)
    assert np.array_equal(index >= rows * d * d, reads_zero)
    assert (index[reads_zero] // (d * d) == rows).all()
    # every other entry reads its port pair's sources, below the diagonal
    # from the mirror entry, whose imaginary part the gather then negates
    # unless the entry lies below the diagonal of a same-vertex block
    pair_row = {pair: r for r, pair in enumerate(pairs)}
    want, negated = [], []
    for r, (i2, j2) in enumerate(zip(i.tolist(), j.tolist())):
        for a2 in range(d):
            for b2 in range(d):
                (v, a), (w, b) = divmod(sources[i2 * d + a2], d), divmod(sources[j2 * d + b2], d)
                if v > w:
                    (v, a), (w, b) = (w, b), (v, a)
                    if not reads_zero[r, a2 * d + b2] and not (i2 == j2 and a2 > b2):
                        negated.append(2 * (r * d * d + a2 * d + b2) + 1)
                want.append(pair_row[v, w] * d * d + a * d + b)
    want = np.array(want).reshape(rows, d * d)
    assert np.array_equal(index[~reads_zero], want[~reads_zero])
    assert conjugate.tolist() == negated and negated

    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(rows, d * d)) + 1j * rng.normal(size=(rows, d * d))
    tossed = evolution._toss_blocks(blocks, sides, 0)
    assert tossed.shape == (rows + 1, d * d) and not tossed[-1].any()
    shifted = evolution._shift_blocks(tossed, sides, 0)
    assert np.array_equal(shifted[reads_zero], np.zeros(reads_zero.sum()))
    assert not np.signbit(shifted[reads_zero].view(float)).any()
