"""The light-cone restriction of the deterministic paths against the whole walk.

The reference is the unrestricted evolution: the position distribution of
every state evolve yields on the full StepMap. The restricted path may
differ from it in the last bit, because the batched coin product rounds
differently on a different number of columns, so the general comparison
allows 1e-15; entries outside the cone must be exactly 0 on both sides.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    PortGraph,
    basis_state,
    build_cycle,
    build_cycle_shift,
    compare_mixing,
    enumerate_branches,
    evolve,
    hadamard_phi,
    make_step,
    marginal_history,
    pure_position_marginal,
    run,
    sample_trajectories,
    to_density,
    tvd,
)
from coinwalk import evolution
from coinwalk.classical import uniform_distribution
from coinwalk.coin import default_coin_type
from coinwalk.evolution import _light_cone, _marginal

from conftest import in_place, port_permuted_torus


def with_isolated_vertices(graph, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return PortGraph(np.vstack([graph.partner, np.full((count, graph.degree), -1)]))


def reachable(psi0, shift, steps):
    """Vertices within steps shifts of psi0's support, and when the set stops growing."""
    d = shift.degree
    perm = shift.permutation.tolist()
    cone = {i // d for i in np.flatnonzero(psi0).tolist()}
    for t in range(steps):
        grown = cone | {perm[v * d + k] // d for v in cone for k in range(d)}
        if grown == cone:
            return cone, t
        cone = grown
    return cone, None


def saturation_time(psi0, shift):
    """Steps after which the cone from psi0 holds every vertex or stops growing."""
    return reachable(psi0, shift, shift.num_vertices)[1]


@st.composite
def cone_cases(draw, multi_graph):
    """A graph, a shift, a one- or two-vertex start, a step count and a StepMap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cycle", "multi", "torus"]))
    shift, phi = None, math.pi / 2
    if kind == "cycle":
        graph = build_cycle(draw(st.integers(3, 24)))
        direction = draw(st.sampled_from([None, 1, -1]))
        if direction is not None:
            shift = build_cycle_shift(graph.num_vertices, direction)
        phi = draw(st.floats(0.0, 2 * math.pi))
    elif kind == "multi":
        graph = multi_graph
    else:
        graph = port_permuted_torus(draw(st.integers(3, 6)), rng)
    if shift is None:
        graph = with_isolated_vertices(graph, draw(st.integers(0, 3)))

    starts = draw(st.lists(
        st.sampled_from([j for j, dj in enumerate(graph.vertex_degrees) if dj]),
        min_size=1, max_size=2, unique=True,
    ))
    amplitudes = rng.normal(size=len(starts)) + 1j * rng.normal(size=len(starts))
    psi0 = sum(a * basis_state(graph, j, int(rng.integers(graph.vertex_degrees[j])))
               for a, j in zip(amplitudes, starts))
    psi0 /= np.linalg.norm(psi0)

    x = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    beta = draw(st.sampled_from([0.0, x, 1.0]))
    p = draw(st.sampled_from([0.0, x, 1.0]))
    placement = draw(st.sampled_from(["before-shift", "after-shift"]))
    coin = hadamard_phi(phi) if default_coin_type(graph) == "hadamard" else None
    step = make_step(graph, coin_spec=coin, shift=shift, beta=beta,
                     vertex_p=p, placement=placement)

    saturation = saturation_time(psi0, step.shift)
    when = draw(st.sampled_from(["below", "at", "above"]))
    if when == "below":
        steps = draw(st.integers(0, max(saturation - 1, 0)))
    elif when == "at":
        steps = saturation
    else:
        steps = saturation + draw(st.integers(1, 3))
    return graph, psi0, step, steps


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_light_cone_path_matches_the_whole_walk(multi_graph, data):
    graph, psi0, step, steps = data.draw(cone_cases(multi_graph))
    n, d = graph.num_vertices, graph.degree
    cone, _ = reachable(psi0, step.shift, steps)
    outside = np.array(sorted(set(range(n)) - cone), dtype=int)
    outside_ports = (outside[:, None] * d + np.arange(d)).ravel()

    cone_psi0, cone_step, vertices = _light_cone(psi0, step, steps)
    assert vertices.tolist() == sorted(cone)
    perm = cone_step.shift.permutation
    assert np.array_equal(np.sort(perm), np.arange(len(cone) * d))
    if not outside.size:
        assert cone_psi0 is psi0 and cone_step is step

    states = list(evolve(psi0, step, steps))
    reference = np.array([_marginal(state, step) for state in states])
    hist = marginal_history(psi0, step, steps)
    assert hist.shape == reference.shape == (steps + 1, n)
    assert not reference[:, outside].any() and not hist[:, outside].any()
    np.testing.assert_allclose(hist, reference, rtol=0, atol=1e-15)

    final = to_density(states[-1]) if step.is_unitary else states[-1]
    rho = run(psi0, step, steps)
    assert rho.shape == final.shape
    assert not rho[outside_ports].any() and not rho[:, outside_ports].any()
    assert not final[outside_ports].any() and not final[:, outside_ports].any()
    np.testing.assert_allclose(rho, final, rtol=0, atol=1e-15)

    t_max = max(steps, 1)
    result = compare_mixing(graph, step, psi0, t_max, 0.05)
    uniform = uniform_distribution(n)
    running = np.zeros(n)
    for t, state in enumerate(evolve(psi0, step, t_max)):
        running += _marginal(state, step)
        # a TVD sums n entries, each within 1e-15 of the reference's
        expected = tvd(running / (t + 1), uniform)
        assert abs(result.quantum.tvd_to_uniform[t] - expected) <= n * 1e-15


def test_cycle_density_configuration_is_bit_identical():
    """The real-Hadamard 256-cycle at beta 0.5, p 0.1, from both sides of the wrap."""
    graph = build_cycle(256)
    step = make_step(graph, shift=build_cycle_shift(256), beta=0.5, vertex_p=0.1)
    for start in [(0, 0), (128, 1), (250, 0)]:
        psi0 = basis_state(graph, *start)
        reference = np.array([_marginal(s, step) for s in evolve(psi0, step, 20)])
        assert np.array_equal(marginal_history(psi0, step, 20), reference)


def test_quincunx_on_a_4096_cycle_matches_the_64_cycle_window():
    """The paper's line walk at a size whose dense density matrix needs 1 GiB."""
    histories = []
    for n in (4096, 64):
        graph = build_cycle(n)
        step = make_step(graph, shift=build_cycle_shift(n), beta=0.5, vertex_p=0.1)
        histories.append(marginal_history(basis_state(graph, n // 2, 0), step, 20))
    big, small = histories
    assert big.shape == (21, 4096) and small.shape == (21, 64)
    assert np.array_equal(big[:, 2028:2069], small[:, 12:53])
    assert not big[:, :2028].any() and not big[:, 2069:].any()
    assert not small[:, :12].any() and not small[:, 53:].any()
    np.testing.assert_allclose(big.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_light_cone_stops_when_full_or_closed(cycle7, multi_graph):
    step = make_step(cycle7, shift=build_cycle_shift(7), beta=0.5)
    psi0 = basis_state(cycle7, 0, 0)
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, 10**12)
    assert cone_psi0 is psi0 and cone_step is step
    assert vertices.tolist() == list(range(7))
    _, _, vertices = _light_cone(psi0, step, 2)
    assert vertices.tolist() == [0, 1, 2, 5, 6]

    # vertices that no edge reaches end the growth long before 10**12 steps
    graph = with_isolated_vertices(multi_graph, 2)
    step = make_step(graph, beta=0.5)
    psi0 = basis_state(graph, 5, 0)
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, 10**12)
    assert vertices.tolist() == list(range(6))
    assert cone_step.shift.num_vertices == 6 and cone_step.coin.shape == (6, 4, 4)
    assert np.array_equal(cone_psi0, psi0[:24])
    # a closed cone keeps the graph's own moves: no port leaves it
    assert np.array_equal(cone_step.shift.permutation, step.shift.permutation[:24])


def whole_graph(psi0, step, steps):
    """_light_cone as if every walk reached every vertex."""
    return psi0, step, np.arange(step.shift.num_vertices)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), beta=st.floats(0.0, 1.0, exclude_min=True),
       p=st.sampled_from([0.0, 1.0]),
       placement=st.sampled_from(["before-shift", "after-shift"]))
def test_trajectories_on_the_cone_are_those_of_the_whole_graph(
    multi_graph, data, beta, p, placement
):
    graph, psi0, step, steps = data.draw(cone_cases(multi_graph))
    kraus = make_step(graph, beta=beta).coin_kraus
    step = replace(step, coin_kraus=kraus, vertex_dephasing=p, placement=placement)
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    cone = list(sample_trajectories(psi0, step, steps, seeds))
    with mock.patch.object(evolution, "_light_cone", whole_graph):
        whole = list(sample_trajectories(psi0, step, steps, seeds))
    assert len(cone) == len(whole) == len(seeds)
    for (vertices, final, record), (every, whole_final, whole_record) in zip(cone, whole):
        assert record == whole_record
        assert np.array_equal(every, np.arange(graph.num_vertices))
        assert final.shape == (vertices.size * graph.degree,) and whole_final.shape == psi0.shape
        assert np.array_equal(in_place(vertices, final, psi0.size), whole_final)

    if p == 0.0 and steps <= 4:
        branches = list(enumerate_branches(psi0, step, steps))
        with mock.patch.object(evolution, "_light_cone", whole_graph):
            whole = list(enumerate_branches(psi0, step, steps))
        assert [(w, h) for w, _, h in branches] == [(w, h) for w, _, h in whole]
        for (_, state, _), (_, whole_state, _) in zip(branches, whole):
            assert np.array_equal(state, whole_state)


def test_sampler_walks_only_the_cone_of_a_4096_cycle():
    """Records and final states of a cycle far larger than the cone, against a 64-cycle."""
    seeds = list(range(40))
    results = []
    for n in (4096, 64):
        graph = build_cycle(n)
        step = make_step(graph, shift=build_cycle_shift(n), beta=0.5, vertex_p=1.0)
        with mock.patch.object(evolution, "SAMPLE_BLOCK_AMPLITUDES", 64 * 2 * 3):
            results.append(list(sample_trajectories(basis_state(graph, n // 2, 0), step, 20, seeds)))
    for (big_cone, big, big_record), (small_cone, small, small_record) in zip(*results, strict=True):
        assert big_record.outcomes == small_record.outcomes
        assert big_record.outcome_probabilities == small_record.outcome_probabilities
        assert [v - 2016 for v in big_record.vertex_outcomes] == list(small_record.vertex_outcomes)
        # the cones of 20 steps from vertex n // 2, shifted by 4096 // 2 - 64 // 2
        assert np.array_equal(big_cone - 2016, small_cone)
        assert np.array_equal(small_cone, np.arange(12, 53))
        assert np.array_equal(big, small)


def test_folded_branches_of_a_4096_cycle_hold_one_full_state_at_a_time():
    """1024 branches of 10 measured steps live on a cone of 21 vertices; a
    list of them over all 8192 ports held 135 MB."""
    n = 4096
    graph = build_cycle(n)
    step = make_step(graph, beta=0.5)
    psi0 = basis_state(graph, n // 2, 0)
    tracemalloc.start()
    try:
        mixture, count = np.zeros(n), 0
        for p, psi, _outcomes in enumerate_branches(psi0, step, 10):
            mixture += p * pure_position_marginal(psi, 2)
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 ** 10
    assert np.flatnonzero(mixture).tolist() == list(range(n // 2 - 10, n // 2 + 11, 2))
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"

