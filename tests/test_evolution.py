import copy
import dataclasses
import math
import pickle
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    ConfigError,
    InvariantViolation,
    PortGraph,
    StructureError,
    assembled_step_operators,
    basis_state,
    build_cycle,
    build_cycle_shift,
    classical_run,
    compare_mixing,
    cp_step,
    dephasing_kraus,
    dft_coin,
    enumerate_branches,
    evolve,
    hadamard_phi,
    make_step,
    marginal_history,
    position_marginal,
    pure_position_marginal,
    run,
    sample_trajectories,
    sample_trajectory,
    to_density,
    tvd,
    unitary_step,
    vertex_dephasing,
    walker_paths,
)
from coinwalk import evolution
from coinwalk.evolution import StepMap

from conftest import in_place, port_permuted_torus, random_density, random_pure_state
from oracles import (
    block_diagonal,
    build_coin_operator,
    check_density,
    coherence_l1,
    half_edge_run,
    loop_enumerate_branches,
    per_vertex_apply_coin,
    scatter_cp_step,
)


def hadamard_walk_step(graph, **kwargs):
    return make_step(
        graph, shift=build_cycle_shift(graph.num_vertices), **kwargs
    )


def test_first_steps_worked_by_hand(cycle7):
    step = hadamard_walk_step(cycle7)
    hist = marginal_history(basis_state(cycle7, 0, 0), step, 3)
    np.testing.assert_allclose(hist[0], [1, 0, 0, 0, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(hist[1], [0, 0.5, 0, 0, 0, 0, 0.5], atol=1e-14)
    np.testing.assert_allclose(hist[2], [0.5, 0, 0.25, 0, 0, 0.25, 0], atol=1e-14)
    # third step is where interference departs from the fair chain
    assert hist[3][1] == pytest.approx(0.625, abs=1e-14)
    classical = classical_run(np.eye(7)[0], cycle7, 3)
    assert classical[1] == pytest.approx(0.375, abs=1e-14)


def test_identity_coin_circulates_deterministically():
    g = build_cycle(5)
    step = make_step(
        g, coin_spec=np.eye(2, dtype=complex),
        shift=build_cycle_shift(5),
    )
    psi = basis_state(g, 0, 0)
    for t in range(1, 11):
        psi = unitary_step(psi, step)
        np.testing.assert_allclose(
            pure_position_marginal(psi, 2), np.eye(5)[t % 5], atol=1e-14
        )


def test_unitary_step_refuses_measured_maps(cycle7):
    step = hadamard_walk_step(cycle7, beta=0.5)
    with pytest.raises(StructureError, match="cp_step"):
        unitary_step(basis_state(cycle7, 0, 0), step)


def test_density_run_matches_pure_run_when_unitary(cycle7):
    step = hadamard_walk_step(cycle7)
    rng = np.random.default_rng(31)
    psi = random_pure_state(rng, 14)
    rho = run(psi, step, 12)
    for _ in range(12):
        psi = unitary_step(psi, step)
    np.testing.assert_allclose(rho, to_density(psi), atol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_evolve_yields_every_state_from_time_zero(cycle7, beta):
    step = make_step(cycle7, beta=beta)
    psi0 = basis_state(cycle7, 0, 0)
    states = list(evolve(psi0, step, 6))
    assert len(states) == 7
    if beta == 0.0:
        assert np.array_equal(states[0], psi0)
        assert np.array_equal(states[3], unitary_step(states[2], step))
    else:
        assert np.array_equal(states[0], to_density(psi0))
        assert np.array_equal(states[3], cp_step(states[2], step))
    assert np.array_equal(run(psi0, step, 6), states[-1] if beta else to_density(states[-1]))
    assert len(list(evolve(psi0, step, 0))) == 1
    for bad in (-1, -5):
        with pytest.raises(ConfigError, match="nonnegative"):
            list(evolve(psi0, step, bad))
        with pytest.raises(ConfigError, match="nonnegative"):
            marginal_history(psi0, step, bad)


def test_zero_steps_returns_initial_projector(cycle7):
    psi = basis_state(cycle7, 2, 1)
    step = hadamard_walk_step(cycle7, beta=0.3)
    np.testing.assert_allclose(run(psi, step, 0), to_density(psi), atol=0)


def test_one_measured_step_scales_coherence_by_visibility(cycle7):
    psi = basis_state(cycle7, 0, 0)
    reference = coherence_l1(run(psi, hadamard_walk_step(cycle7), 1))
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = run(psi, hadamard_walk_step(cycle7, beta=beta), 1)
        expected = math.cos(beta * math.pi / 2) * reference
        assert coherence_l1(rho) == pytest.approx(expected, abs=1e-12)


def test_vertex_dephasing_scales_cross_vertex_blocks_only():
    rng = np.random.default_rng(13)
    psi = random_pure_state(rng, 8)
    rho = to_density(psi)
    out = vertex_dephasing(rho, 0.3, 2)
    for a in range(8):
        for b in range(8):
            factor = 1.0 if a // 2 == b // 2 else 0.7
            assert out[a, b] == pytest.approx(rho[a, b] * factor, abs=1e-15)
    np.testing.assert_allclose(vertex_dephasing(rho, 0.0, 2), rho, atol=0)
    killed = vertex_dephasing(rho, 1.0, 2)
    assert killed[0, 3] == 0.0
    assert np.trace(killed) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ConfigError):
        vertex_dephasing(rho, 1.5, 2)


@pytest.mark.parametrize("shift_kind", ["port-swap", "direction-preserving"])
def test_projective_coin_reading_walks_classically(cycle7, shift_kind):
    shift = None if shift_kind == "port-swap" else build_cycle_shift(7)
    step = make_step(cycle7, shift=shift, beta=1.0)
    hist = marginal_history(basis_state(cycle7, 0, 0), step, 30)
    p = np.eye(7)[0]
    for t in range(31):
        assert tvd(hist[t], p) < 1e-10
        p = classical_run(p, cycle7, 1)


@pytest.mark.parametrize("placement", ["before-shift", "after-shift"])
def test_full_position_dephasing_also_walks_classically(cycle7, placement):
    step = make_step(
        cycle7, shift=build_cycle_shift(7), vertex_p=1.0, placement=placement
    )
    hist = marginal_history(basis_state(cycle7, 0, 0), step, 30)
    p = np.eye(7)[0]
    for t in range(31):
        assert tvd(hist[t], p) < 1e-10
        p = classical_run(p, cycle7, 1)


def test_irregular_graph_reduces_to_its_classical_chain(multi_graph):
    step = make_step(multi_graph, beta=1.0)
    hist = marginal_history(basis_state(multi_graph, 0, 0), step, 20)
    p = np.eye(6)[0]
    for t in range(21):
        assert tvd(hist[t], p) < 1e-10
        p = classical_run(p, multi_graph, 1)


def test_biased_coin_measured_walk_matches_port_chain():
    g = build_cycle(5)
    theta = 0.4
    block = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    step = make_step(g, coin_spec=block, beta=1.0)
    transitions = [np.abs(block) ** 2] * 5
    q0 = np.zeros(10)
    q0[0] = 1.0
    for t in range(1, 9):
        quantum = position_marginal(run(basis_state(g, 0, 0), step, t), 2)
        q = half_edge_run(q0, g, transitions, t)
        np.testing.assert_allclose(quantum, q.reshape(5, 2).sum(axis=1), atol=1e-10)


def test_assembled_operators_are_complete(cycle7, multi_graph):
    step = make_step(cycle7, beta=0.5)
    total = sum(a.conj().T @ a for a in assembled_step_operators(step))
    np.testing.assert_allclose(total, np.eye(14), atol=1e-12)

    step = make_step(multi_graph, beta=0.5)
    total = sum(a.conj().T @ a for a in assembled_step_operators(step))
    used = np.zeros(24)
    for j, dj in enumerate(multi_graph.vertex_degrees):
        used[j * 4: j * 4 + dj] = 1.0
    np.testing.assert_allclose(total, np.diag(used), atol=1e-12)

    ops = assembled_step_operators(make_step(cycle7))
    assert len(ops) == 1


def test_assembled_operators_are_shift_kraus_coin_products(cycle7):
    # per-vertex coins that are not symmetric, so a transposed or
    # misplaced block shows
    spec = [hadamard_phi(0.3 * j) for j in range(7)]
    coin = build_coin_operator(cycle7, spec)
    for shift in (build_cycle_shift(7), None):
        step = make_step(cycle7, coin_spec=spec, shift=shift, beta=0.6)
        s = step.shift.matrix()
        expected = [s @ block_diagonal([np.diag(k)] * 7) @ coin for k in step.coin_kraus]
        ops = assembled_step_operators(step)
        assert len(ops) == 2
        for op, want in zip(ops, expected):
            np.testing.assert_array_equal(op, want)
        (unitary,) = assembled_step_operators(make_step(cycle7, coin_spec=spec, shift=shift))
        np.testing.assert_array_equal(unitary, s @ coin)


def test_branch_enumeration_reproduces_density_evolution():
    g = build_cycle(5)
    step = make_step(g, shift=build_cycle_shift(5), beta=0.6)
    psi0 = basis_state(g, 0, 0)
    branches = list(enumerate_branches(psi0, step, 6))
    weights = np.array([w for w, _, _ in branches])
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    mixture = sum(w * to_density(psi) for w, psi, _ in branches)
    np.testing.assert_allclose(mixture, run(psi0, step, 6), atol=1e-10)
    assert all(len(h) == 6 for _, _, h in branches)


def test_enumeration_requires_pure_coin_measurement(cycle7):
    psi = basis_state(cycle7, 0, 0)
    with pytest.raises(ConfigError, match="beta > 0"):
        enumerate_branches(psi, make_step(cycle7), 2)
    with pytest.raises(ConfigError, match="coin measurement only"):
        enumerate_branches(psi, make_step(cycle7, beta=1.0, vertex_p=1.0), 2)


def test_enumeration_rejects_a_negative_step_count(cycle7):
    psi = basis_state(cycle7, 0, 0)
    with pytest.raises(ConfigError, match="step count must be nonnegative"):
        enumerate_branches(psi, make_step(cycle7, beta=0.5), -1)


def test_enumeration_that_prunes_every_branch_returns_none(cycle7):
    psi = basis_state(cycle7, 0, 0)
    step = make_step(cycle7, beta=0.5)
    assert list(enumerate_branches(psi, step, 3, prune=2.0)) == []
    assert loop_enumerate_branches(psi, step, 3, prune=2.0) == []


@pytest.mark.parametrize("prune", [0.0, -1e-3, math.nan])
def test_enumeration_rejects_a_prune_that_is_not_positive(prune):
    # at prune 0 a branch of probability 0 would be renormalized into NaNs
    g = build_cycle(5)
    step = make_step(g, coin_spec=np.eye(2), beta=1.0)
    with pytest.raises(ConfigError, match="prune"):
        enumerate_branches(basis_state(g, 0, 0), step, 2, prune=prune)


def test_enumeration_keeps_a_branch_whose_probability_equals_prune(cycle7):
    psi = basis_state(cycle7, 0, 0)
    step = make_step(cycle7, beta=0.5)
    branches = list(enumerate_branches(psi, step, 3))
    least = min(p for p, _, _ in branches)
    # earlier steps carry larger probabilities, so nothing is pruned
    for kept in (enumerate_branches(psi, step, 3, prune=least),
                 loop_enumerate_branches(psi, step, 3, prune=least)):
        assert [(p, h) for p, _, h in kept] == [(p, h) for p, _, h in branches]


def _whole_graph(psi0, step, steps):
    """_light_cone as if every walk reached every vertex."""
    return psi0, step, np.arange(step.shift.num_vertices)


@st.composite
def enumeration_cases(draw, multi_graph):
    """A graph, a measured StepMap, a one- or two-vertex start, steps and prune."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cycle", "multi", "torus"]))
    shift = None
    if kind == "cycle":
        graph = build_cycle(draw(st.integers(3, 12)))
        direction = draw(st.sampled_from([None, 1, -1]))
        if direction is not None:
            shift = build_cycle_shift(graph.num_vertices, direction)
        steps = draw(st.integers(0, 6))
    else:
        graph = multi_graph if kind == "multi" else port_permuted_torus(draw(st.integers(3, 5)), rng)
        steps = draw(st.integers(0, 3))
    if shift is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            extra = np.full((draw(st.integers(0, 3)), graph.degree), -1)
            graph = PortGraph(np.vstack([graph.partner, extra]))
    starts = draw(st.lists(
        st.sampled_from([j for j, dj in enumerate(graph.vertex_degrees) if dj]),
        min_size=1, max_size=2, unique=True,
    ))
    amplitudes = rng.normal(size=len(starts)) + 1j * rng.normal(size=len(starts))
    psi0 = sum(a * basis_state(graph, j, int(rng.integers(graph.vertex_degrees[j])))
               for a, j in zip(amplitudes, starts))
    psi0 /= np.linalg.norm(psi0)
    beta = draw(st.floats(0.0, 1.0, exclude_min=True))
    step = make_step(graph, shift=shift, beta=beta)
    prune = draw(st.sampled_from([{}, {"prune": 1e-4}]))
    return psi0, step, steps, prune


@settings(max_examples=120, deadline=None)
@given(data=st.data(), whole=st.booleans())
def test_enumeration_equals_the_loop_oracle(multi_graph, data, whole):
    """Same branches in the same order, equal probabilities, histories and states."""
    psi0, step, steps, prune = data.draw(enumeration_cases(multi_graph))
    with mock.patch.object(evolution, "_light_cone", _whole_graph if whole else evolution._light_cone):
        branches = list(enumerate_branches(psi0, step, steps, **prune))
        expected = loop_enumerate_branches(psi0, step, steps, **prune)
    assert [(p, h) for p, _, h in branches] == [(p, h) for p, _, h in expected]
    assert all(type(p) is float and all(type(i) is int for i in h) for p, _, h in branches)
    for (_, state, _), (_, expected_state, _) in zip(branches, expected):
        assert state.shape == psi0.shape
        assert np.array_equal(state, expected_state)


def test_sampling_is_reproducible_and_honest(cycle7):
    step = make_step(cycle7, shift=build_cycle_shift(7), beta=1.0)
    psi0 = basis_state(cycle7, 0, 0)
    final_a, rec_a = sample_trajectory(psi0, step, 25, seed=424242)
    final_b, rec_b = sample_trajectory(psi0, step, 25, seed=424242)
    assert rec_a == rec_b
    np.testing.assert_allclose(final_a, final_b, atol=0)
    # a fair coin read projectively gives every outcome probability 1/2
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in rec_a.outcome_probabilities)
    # the record retraces the walk exactly at full strength
    (path,) = walker_paths(step, 0, [rec_a.outcomes])
    marg = pure_position_marginal(final_a, 2)
    assert int(np.argmax(marg)) == path[-1]
    assert marg[path[-1]] == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_branches_are_never_drawn(cycle7):
    # beta=0 gives a second Kraus operator that is exactly zero; the
    # sampler must keep drawing the only viable branch
    from coinwalk.coin import default_coin_spec
    from coinwalk.coin import embedded_blocks
    from coinwalk.shift import build_shift

    coin = np.stack(embedded_blocks(cycle7, default_coin_spec(cycle7)))
    step = StepMap(coin, build_shift(cycle7), dephasing_kraus(0.0), 0.0)
    final, rec = sample_trajectory(basis_state(cycle7, 0, 0), step, 10, seed=1)
    assert rec.outcomes == (0,) * 10
    assert all(p == pytest.approx(1.0, abs=1e-12) for p in rec.outcome_probabilities)
    unitary = basis_state(cycle7, 0, 0)
    ref = make_step(cycle7)
    for _ in range(10):
        unitary = unitary_step(unitary, ref)
    np.testing.assert_allclose(final, unitary, atol=1e-12)


@pytest.mark.parametrize("placement", ["before-shift", "after-shift"])
def test_position_record_accompanies_full_dephasing(cycle7, placement):
    step = make_step(
        cycle7, shift=build_cycle_shift(7), beta=1.0, vertex_p=1.0,
        placement=placement,
    )
    final, rec = sample_trajectory(basis_state(cycle7, 0, 0), step, 15, seed=99)
    assert rec.vertex_outcomes is not None and len(rec.vertex_outcomes) == 15
    if placement == "after-shift":
        # measured after the move, so the last record is the final position
        marg = pure_position_marginal(final, 2)
        assert int(np.argmax(marg)) == rec.vertex_outcomes[-1]
    seq = (0,) + rec.vertex_outcomes if placement == "after-shift" else rec.vertex_outcomes
    for a, b in zip(seq, seq[1:]):
        assert (b - a) % 7 in (1, 6)


def test_sampling_requires_projective_or_absent_vertex_noise(cycle7):
    psi = basis_state(cycle7, 0, 0)
    with pytest.raises(ConfigError, match="beta > 0"):
        sample_trajectory(psi, make_step(cycle7), 3, seed=0)
    with pytest.raises(ConfigError, match="projective"):
        sample_trajectory(psi, make_step(cycle7, beta=0.5, vertex_p=0.5), 3, seed=0)


def test_sampled_ensemble_approximates_the_density_marginal(cycle7):
    step = make_step(cycle7, shift=build_cycle_shift(7), beta=0.7)
    psi0 = basis_state(cycle7, 0, 0)
    acc = np.zeros(7)
    samples = 500
    for s in range(samples):
        final, _ = sample_trajectory(psi0, step, 6, seed=1000 + s)
        acc += pure_position_marginal(final, 2)
    exact = position_marginal(run(psi0, step, 6), 2)
    assert tvd(acc / samples, exact) < 0.1


def test_walker_paths_follow_the_certified_coins_and_reject_the_rest():
    cycle5 = build_cycle(5)
    forward, backward = (make_step(cycle5, shift=build_cycle_shift(5, direction), beta=1.0)
                         for direction in (1, -1))
    assert walker_paths(forward, 0, [[0, 0, 1, 0]]).tolist() == [[0, 1, 2, 1, 2]]
    assert walker_paths(backward, 0, [[0, 0]]).tolist() == [[0, 4, 3]]
    assert walker_paths(forward, 3, [[1], [0]]).tolist() == [[3, 2], [3, 4]]
    assert walker_paths(forward, 0, np.empty((2, 0), dtype=int)).tolist() == [[0], [0]]
    for outcome in (2, -1):
        with pytest.raises(ConfigError, match=f"sample 1 step 2: outcome {outcome} "):
            walker_paths(forward, 0, [[0, 0], [1, outcome]])
    # at beta = 0.5 only outcome 1 certifies a coin; outcome 0 leaves both
    partial = make_step(cycle5, shift=build_cycle_shift(5), beta=0.5)
    assert walker_paths(partial, 0, [[1, 1]]).tolist() == [[0, 4, 3]]
    with pytest.raises(ConfigError, match="sample 0 step 2: outcome 0 certifies no"):
        walker_paths(partial, 0, [[1, 0]])
    with pytest.raises(ConfigError, match="sample 0 step 1: outcome 0 "):
        walker_paths(make_step(cycle5), 0, [[0]])
    for start in (-1, 5):
        with pytest.raises(ConfigError, match=f"start vertex {start} "):
            walker_paths(forward, start, [[0]])
    # the uniform family keeps outcome 0 as 7.8e-9 (1, ..., 1) at beta = 1
    uniform = make_step(port_permuted_torus(3, np.random.default_rng(2)), beta=1.0)
    assert walker_paths(uniform, 0, [[1, 2, 3, 4]]).shape == (1, 5)
    with pytest.raises(ConfigError, match="sample 0 step 3: outcome 0 certifies no"):
        walker_paths(uniform, 0, [[1, 2, 0, 4]])


def test_walker_paths_reject_malformed_outcomes_and_starts():
    forward = make_step(build_cycle(5), shift=build_cycle_shift(5), beta=1.0)
    for outcomes in ([0, 1], [[0.0, 1.0]], np.zeros((2, 3, 1), dtype=int), [[True, False]]):
        with pytest.raises(StructureError, match="2-D integer array"):
            walker_paths(forward, 0, outcomes)
    for start in (1.5, True, np.True_, "1"):
        with pytest.raises(ConfigError, match="start vertex must be an integer"):
            walker_paths(forward, start, [[0]])
    # a numpy integer start and unsigned outcomes are integers; an unsigned
    # outcome beyond 0..m-1 is named, as a signed one is
    unsigned = np.array([[0, 1]], dtype=np.uint8)
    assert walker_paths(forward, np.int64(1), unsigned).tolist() == [[1, 2, 1]]
    with pytest.raises(ConfigError, match="sample 0 step 1: outcome 7 "):
        walker_paths(forward, 0, np.array([[7]], dtype=np.uint8))


def _torus_samples(step, psi0, steps, seeds):
    """The (S, steps) outcomes, final cone marginals and cone of a sampled walk."""
    outcomes, marginals, vertices = [], [], []
    for cone, final, record in sample_trajectories(psi0, step, steps, seeds):
        outcomes.append(record.outcomes)
        marginals.append(pure_position_marginal(final, step.shift.degree))
        vertices.append(record.vertex_outcomes)
    return np.array(outcomes), np.array(marginals), cone, vertices


def test_walker_paths_end_where_a_torus_walker_is_found():
    torus = port_permuted_torus(6, np.random.default_rng(4))
    step = make_step(torus, beta=1.0)
    psi0 = basis_state(torus, 14, 1)
    outcomes, marginals, cone, _ = _torus_samples(step, psi0, 15, range(200))
    paths = walker_paths(step, 14, outcomes)
    ends = np.searchsorted(cone, paths[:, -1])
    assert np.array_equal(cone[ends], paths[:, -1])
    np.testing.assert_allclose(marginals[np.arange(200), ends], 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("placement", ["before-shift", "after-shift"])
def test_walker_paths_are_the_measured_vertices(placement):
    torus = port_permuted_torus(6, np.random.default_rng(5))
    step = make_step(torus, beta=1.0, vertex_p=1.0, placement=placement)
    outcomes, _, _, vertices = _torus_samples(step, basis_state(torus, 20, 3), 12, range(64))
    paths = walker_paths(step, 20, outcomes)
    measured = paths[:, :-1] if placement == "before-shift" else paths[:, 1:]
    assert np.array_equal(measured, np.array(vertices))


def test_step_configuration_validation(cycle7):
    with pytest.raises(ConfigError, match="placement"):
        make_step(cycle7, placement="mid-shift")
    with pytest.raises(ConfigError, match="dephasing"):
        make_step(cycle7, vertex_p=1.5)
    with pytest.raises(ConfigError, match="nonnegative"):
        run(basis_state(cycle7, 0, 0), make_step(cycle7), -2)


def test_every_intermediate_state_is_a_density_matrix(cycle7):
    step = make_step(
        cycle7, shift=build_cycle_shift(7), beta=0.4, vertex_p=0.2
    )
    rho = to_density(basis_state(cycle7, 0, 0))
    for _ in range(15):
        rho = cp_step(rho, step)
        check_density(rho)


# ----------------------------------------------------------------------
# the structured step engine against the dense reference operators

@st.composite
def walk_cases(draw, multi_graph):
    """A graph, a shift for it and a pure state on its used ports."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cycle", "multi", "torus"]))
    shift = None
    if kind == "cycle":
        graph = build_cycle(draw(st.integers(3, 9)))
        direction = draw(st.sampled_from([None, 1, -1]))
        if direction is not None:
            shift = build_cycle_shift(graph.num_vertices, direction)
    elif kind == "multi":
        graph = multi_graph
    else:
        graph = port_permuted_torus(draw(st.integers(3, 4)), rng)
    used = np.array([[k < dj for k in range(graph.degree)] for dj in graph.vertex_degrees])
    psi = random_pure_state(rng, graph.num_vertices * graph.degree) * used.ravel()
    return graph, shift, psi / np.linalg.norm(psi), rng


def _dense_channel(step, rho):
    """sum_i A_i rho A_i^dagger plus vertex dephasing, from dense operators only."""
    d, p = step.shift.degree, step.vertex_dephasing
    out = sum(a @ rho @ a.conj().T for a in assembled_step_operators(step))
    if step.placement == "after-shift":
        return vertex_dephasing(out, p, d)
    s = step.shift.matrix()
    return s @ vertex_dephasing(s.conj().T @ out @ s, p, d) @ s.conj().T


@settings(max_examples=60, deadline=None)
@given(data=st.data(), beta=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0),
       placement=st.sampled_from(["before-shift", "after-shift"]))
def test_structured_step_matches_dense_operators(multi_graph, data, beta, p, placement):
    from coinwalk.coin import default_coin_spec

    graph, shift, psi, rng = data.draw(walk_cases(multi_graph))
    dim = psi.size
    rho = random_density(rng, dim)
    step = make_step(graph, shift=shift, beta=beta, vertex_p=p, placement=placement)
    np.testing.assert_allclose(cp_step(rho, step), _dense_channel(step, rho), atol=1e-12)

    unitary = make_step(graph, shift=shift)
    dense = unitary.shift.matrix() @ build_coin_operator(graph, default_coin_spec(graph))
    np.testing.assert_allclose(unitary_step(psi, unitary), dense @ psi, atol=1e-12)

    if beta == 0.0:
        return
    measured = make_step(graph, shift=shift, beta=beta)
    ops = assembled_step_operators(measured)
    born = [float(np.vdot(a @ psi, a @ psi).real) for a in ops]
    _, record = sample_trajectory(psi, measured, 1, seed=data.draw(st.integers(0, 2**32 - 1)))
    (outcome,), (prob,) = record.outcomes, record.outcome_probabilities
    assert prob == pytest.approx(born[outcome], abs=1e-12)
    branches = list(enumerate_branches(psi, measured, 1))
    assert [h for _, _, h in branches] == [(i,) for i, w in enumerate(born) if w >= 1e-18]
    for w, state, (i,) in branches:
        assert w == pytest.approx(born[i], abs=1e-12)
        np.testing.assert_allclose(state, ops[i] @ psi / math.sqrt(born[i]), atol=1e-12)


# ----------------------------------------------------------------------
# the density step on vertex-pair blocks, against the matrix step it replaced

def _oracle_graph(kind):
    """(graph, shift) of a direction-preserving cycle, a port-swap cycle or a port-permuted torus."""
    if kind == "cycle":
        return build_cycle(31), build_cycle_shift(31)
    if kind == "port-swap-cycle":
        return build_cycle(12), None
    return port_permuted_torus(5, np.random.default_rng(3)), None


@pytest.mark.parametrize("kind", ["cycle", "port-swap-cycle", "torus"])
@pytest.mark.parametrize("coin", ["shared", "per-vertex"])
def test_cp_step_stays_within_64_ulp_of_the_scatter_step(kind, coin):
    """The block step sums each entry in another order than the matrix step, so the
    two walks part in the last bits; after 25 steps they are still within 64 eps."""
    graph, shift = _oracle_graph(kind)
    n, d = graph.num_vertices, graph.degree
    rng = np.random.default_rng(21)
    spec = None
    if coin == "per-vertex":
        spec = list(np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0])
    start = random_density(rng, n * d)
    eps = np.finfo(float).eps
    for beta in (0.0, 0.3, 1.0):
        for p in (0.0, 0.1, 1.0):
            for placement in ("before-shift", "after-shift"):
                step = make_step(graph, spec, shift, beta, p, placement)
                for rho in (np.ascontiguousarray(start), np.asfortranarray(start)):
                    want = rho
                    for t in range(25):
                        rho, want = cp_step(rho, step), scatter_cp_step(want, step)
                        gap = np.abs(rho - want).max()
                        assert gap <= 64 * eps * np.abs(want).max(), (beta, p, placement, t)


@pytest.mark.parametrize("placement", ["before-shift", "after-shift"])
def test_a_density_step_hands_back_the_c_ordered_matrix_of_its_blocks(cycle7, placement):
    n, d = 7, 2
    rng = np.random.default_rng(4)
    full = rng.normal(size=(28, 28)) + 1j * rng.normal(size=(28, 28))
    for rho in (np.ascontiguousarray(full[:14, :14]), np.asfortranarray(full[:14, :14]),
                full[::2, ::2]):
        blocks = evolution._to_blocks(rho, d)
        assert blocks.shape == (n * n, d * d) and blocks.flags.c_contiguous
        for i in range(n):
            for j in range(n):
                assert np.array_equal(blocks[i * n + j], rho[i * d:(i + 1) * d, j * d:(j + 1) * d].ravel())
        back = evolution._from_blocks(blocks)
        assert back.flags.c_contiguous and np.array_equal(back, rho)

    step = make_step(cycle7, shift=build_cycle_shift(7), beta=0.4, vertex_p=0.2,
                     placement=placement)
    psi0 = basis_state(cycle7, 0, 0)
    states = list(evolve(psi0, step, 3))
    walked = list(evolution._walk(psi0, step, 3))
    for t, (rho, blocks) in enumerate(zip(states, walked)):
        assert rho.flags.c_contiguous and np.array_equal(rho, evolution._from_blocks(blocks))
        if t:
            assert np.array_equal(cp_step(states[t - 1], step), rho)
    # a real or single-precision state is walked as its complex cast
    rho = np.diag(np.arange(1.0, 15.0)) / 105
    for cast in (rho, rho.astype(np.complex64)):
        assert np.array_equal(cp_step(cast, step), cp_step(cast.astype(complex), step))
    assert np.array_equal(marginal_history(psi0.real, step, 3), marginal_history(psi0, step, 3))
    assert np.array_equal(run(psi0.real, step, 3), run(psi0, step, 3))


@pytest.mark.parametrize("order", ["C", "F"])
def test_vertex_dephasing_scales_only_the_blocks_between_vertices(order):
    """On the blocks of a density matrix in either memory order, at either placement."""
    n = 9
    graph = build_cycle(n)
    rng = np.random.default_rng(8)
    blocks = evolution._to_blocks(np.asarray(random_density(rng, 2 * n), order=order), 2)
    same = np.arange(n) * (n + 1)
    other = np.setdiff1d(np.arange(n * n), same)
    for placement in ("before-shift", "after-shift"):

        def step_blocks(p):
            step = make_step(graph, beta=0.5, vertex_p=p, placement=placement)
            out = evolution._toss_blocks(blocks, step)
            return evolution._shift_blocks(out, step) if placement == "after-shift" else out

        want = step_blocks(0.0)
        for p in (0.3, 1.0):
            got = step_blocks(p)
            assert np.array_equal(got[same], want[same])
            if placement == "after-shift" or p == 1.0:
                assert np.array_equal(got[other].real, want[other].real * (1.0 - p))
                assert np.array_equal(got[other].imag, want[other].imag * (1.0 - p))
            else:
                # (1 - p) is folded into the factor, so the rows round once more
                gap = np.abs(got[other] - (1.0 - p) * want[other]).max()
                assert gap <= 4 * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("cycle", [41, 256])
def test_a_density_step_peaks_near_two_copies_of_its_input(cycle):
    """82 and 512 ports: the coin halves hold two arrays at once, and nothing else holds more."""
    graph = build_cycle(cycle)
    step = make_step(graph, shift=build_cycle_shift(cycle), beta=0.5, vertex_p=0.1)
    rho = cp_step(random_density(np.random.default_rng(2), 2 * cycle), step)  # builds the gather index
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = cp_step(rho, step)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == rho.shape
    assert peak <= 2.1 * rho.nbytes, peak / rho.nbytes


@pytest.mark.parametrize("beta", [-0.5, 1.5, float("nan")])
def test_make_step_rejects_a_beta_outside_the_unit_interval(cycle7, beta):
    with pytest.raises(ConfigError, match=r"beta must lie in \[0, 1\]"):
        make_step(cycle7, beta=beta)


def test_step_map_rejects_dense_coin_and_misshapen_kraus(cycle7):
    from coinwalk.coin import default_coin_spec, embedded_blocks
    from coinwalk.shift import build_shift

    blocks = np.stack(embedded_blocks(cycle7, default_coin_spec(cycle7)))
    shift = build_shift(cycle7)
    with pytest.raises(StructureError, match=r"\(7, 2, 2\) stack"):
        StepMap(build_coin_operator(cycle7, default_coin_spec(cycle7)), shift)
    # Kraus diagonals one entry too long, and the d x d operators themselves
    for kraus in (np.ones((2, 3)), np.array([np.eye(2), np.eye(2)])):
        with pytest.raises(StructureError, match=r"\(m, 2\) array"):
            StepMap(blocks, shift, kraus)


@pytest.mark.parametrize(
    "field, value",
    [("vertex_dephasing", -0.1), ("vertex_dephasing", 1.5), ("vertex_dephasing", math.nan),
     ("placement", "sideways")],
)
def test_step_map_checks_its_configuration_however_it_is_built(cycle7, field, value):
    step = make_step(cycle7, beta=0.5)
    name = {"vertex_dephasing": "vertex dephasing", "placement": "placement"}[field]
    with pytest.raises(ConfigError, match=name):
        StepMap(step.coin, step.shift, step.coin_kraus, **{field: value})
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(step, **{field: value})
    with pytest.raises(ConfigError, match=name):
        make_step(cycle7, beta=0.5, **{"vertex_p" if field == "vertex_dephasing" else field: value})


class _DrawFirst:
    """Stands in for the sampler's generator: every uniform it gives is 0.

    An inverse-CDF draw of 0 takes the first entry of positive weight.
    """

    def __init__(self, seed):
        pass

    def random(self, size):
        return np.zeros(size)


def test_sampler_invariants_still_fire(cycle7, monkeypatch):
    from coinwalk.coin import default_coin_spec, embedded_blocks
    from coinwalk.shift import build_shift

    blocks = np.stack(embedded_blocks(cycle7, default_coin_spec(cycle7)))
    shift = build_shift(cycle7)
    psi0 = basis_state(cycle7, 0, 0)
    leaky = 0.5 * dephasing_kraus(0.5)
    with pytest.raises(InvariantViolation, match="sum to"):
        sample_trajectory(psi0, StepMap(blocks, shift, leaky), 1, seed=0)
    with pytest.raises(InvariantViolation, match="sum to"):
        enumerate_branches(psi0, StepMap(blocks, shift, leaky), 1)

    monkeypatch.setattr(np.random, "default_rng", _DrawFirst)
    # the first branch is viable at weight 1e-16 and is drawn: its state is
    # too small to renormalize
    faint = np.array([[1e-8, 1e-8], [1.0, 1.0]], dtype=complex)
    with pytest.raises(InvariantViolation, match="negligible norm"):
        sample_trajectory(psi0, StepMap(blocks, shift, faint), 1, seed=0)
    # vertex 0 holds weight 1e-16 after the coin reading and is the first
    # vertex of positive weight, so the position reading lands there
    psi = np.sqrt(1e-16) * basis_state(cycle7, 0, 0) + np.sqrt(1 - 1e-16) * basis_state(cycle7, 3, 0)
    step = make_step(cycle7, beta=1.0, vertex_p=1.0)
    with pytest.raises(InvariantViolation, match="vertex projection"):
        sample_trajectory(psi, step, 1, seed=0)


def test_inverse_cdf_draws_what_generator_choice_draws():
    from coinwalk.evolution import _inverse_cdf

    for seed in range(300):
        rng = np.random.default_rng(seed)
        size = [1, 2, 5, 9, 64][seed % 5]
        w = rng.random(size) ** 3 * (rng.random(size) < 0.7)
        w[rng.integers(size)] += 0.1
        p = w / w.sum()
        chooser = np.random.default_rng(seed + 10**6)
        expected = [int(chooser.choice(size, p=p)) for _ in range(3)]
        uniforms = np.random.default_rng(seed + 10**6).random(4)
        drawn = _inverse_cdf(np.tile(p, (3, 1)), uniforms[:3])
        assert drawn.tolist() == expected
        # choice took one double per draw, as the inverse CDF does
        assert chooser.random() == uniforms[3]
        assert all(p[i] > 0 for i in drawn)
    # a uniform of 0 takes the first entry of positive weight, and one just
    # below 1 the last: the cumulative weights are read normalized, as
    # choice reads weights that sum to 1 only within sqrt(eps)
    p = np.array([[0.0, 0.3, 0.0, 0.7 - 1e-9, 0.0]])
    assert _inverse_cdf(p, np.array([0.0])).tolist() == [1]
    assert _inverse_cdf(p, np.array([1 - 1e-12])).tolist() == [3]


@pytest.mark.parametrize("weights", [
    [[0.5, -0.1, 0.6]],
    [[0.5, 0.5, 0.5]],
    [[0.5, 0.5], [0.5, np.nan]],
    [[np.inf, 0.0]],
])
def test_inverse_cdf_rejects_bad_draw_weights(weights):
    from coinwalk.evolution import _inverse_cdf

    p = np.array(weights)
    with pytest.raises(InvariantViolation, match="draw weights"):
        _inverse_cdf(p, np.zeros(len(p)))


def test_bad_draw_weights_exit_3(cycle7, monkeypatch, tmp_path, capsys):
    from coinwalk import evolution
    from coinwalk.cli import main

    monkeypatch.setattr(evolution, "_viable_weights", lambda w: -w)
    out = tmp_path / "traj.csv"
    argv = ["trajectory", "--cycle", "7", "--beta", "0.5", "--steps", "3",
            "--samples", "2", "--seed", "1", "--out", str(out)]
    assert main(argv) == 3
    assert "draw weights" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_viable_weights_renormalize_row_by_row_exactly():
    from coinwalk.evolution import _viable_weights

    rng = np.random.default_rng(7)
    for size in (2, 5, 8, 9, 17):
        w = rng.random((40, size)) ** 2
        w[rng.random(w.shape) < 0.3] = 1e-30
        w[:, 0] += 0.5
        w /= w.sum(axis=1, keepdims=True)
        got = _viable_weights(w)
        for row, out in zip(w, got):
            viable = row > 1e-28
            # numpy sums 8 or more terms pairwise, so a row sum over zeros
            # in place of the dropped entries could differ in the last bit
            assert np.array_equal(out[viable], row[viable] / row[viable].sum())
            assert not out[~viable].any()


def test_evolve_checks_every_step(cycle7):
    from coinwalk.coin import default_coin_spec, embedded_blocks
    from coinwalk.shift import build_shift

    blocks = np.stack(embedded_blocks(cycle7, default_coin_spec(cycle7)))
    shift = build_shift(cycle7)
    psi0 = basis_state(cycle7, 0, 0)
    growing = StepMap(1.01 * blocks, shift)
    states = evolve(psi0, growing, 3)
    next(states)
    with pytest.raises(InvariantViolation, match="norm"):
        next(states)
    with pytest.raises(InvariantViolation, match="trace"):
        run(psi0, StepMap(1.01 * blocks, shift, dephasing_kraus(0.5)), 3)
    with pytest.raises(InvariantViolation, match="non-finite"):
        marginal_history(psi0, StepMap(np.nan * blocks, shift, vertex_dephasing=0.5), 2)
    # unit-norm coins pass every step
    assert len(list(evolve(psi0, StepMap(blocks, shift, dephasing_kraus(0.5)), 5))) == 6


# ----------------------------------------------------------------------
# the batched sampler against the one-sample loop it replaced

def _sq(z):
    z = complex(z)
    return z.real * z.real + z.imag * z.imag


def _loop_masses(psi, degree):
    """Per coin index, re**2 + im**2 of psi added up vertex by vertex."""
    mass = [0.0] * degree
    for j in range(psi.size // degree):
        for a in range(degree):
            mass[a] += _sq(psi[j * degree + a])
    return mass


def _block(rows, degree):
    """The vertex-major (n, S, d) block of the (S, n*d) states rows."""
    return rows.reshape(len(rows), -1, degree).transpose(1, 0, 2).copy()


def _rows(block):
    """The (S, n*d) states of the vertex-major block."""
    return block.transpose(1, 0, 2).reshape(block.shape[1], -1)


def _loop_sum(values):
    total = 0.0
    for x in values:
        total += x
    return total


def reference_sample_trajectory(psi0, step, steps, seed):
    """One sample at a time on the whole graph, drawing with Generator.choice.

    Every Born weight, the vertex draw's normaliser and the vertex
    projection's norm come from explicit Python loops: the coin masses
    added up vertex by vertex, then summed over the coin in order.
    """
    from coinwalk.evolution import TrajectoryRecord, _apply_coin, _require_unravelable

    _require_unravelable(step, steps)
    rng = np.random.default_rng(seed)
    diagonals = step.coin_kraus
    n, d = step.shift.num_vertices, step.shift.degree
    measure_position = step.vertex_dephasing == 1.0

    psi = psi0.copy()
    outcomes, probs, vertices = [], [], []

    def measure_vertex(psi):
        pv = pure_position_marginal(psi, d)
        v = int(rng.choice(n, p=pv / _loop_sum(_loop_masses(psi, d))))
        vertices.append(v)
        ports = slice(v * d, v * d + d)
        norm = _loop_sum(_sq(z) for z in psi[ports])
        if not norm >= 1e-14:
            raise InvariantViolation("vertex projection left a state of negligible norm")
        out = np.zeros_like(psi)
        out[ports] = psi[ports] / math.sqrt(norm)
        return out

    for _ in range(steps):
        phi = _apply_coin(step.coin, psi)
        mass = _loop_masses(phi, d)
        raw = np.array([_loop_sum(m * _sq(k) for m, k in zip(mass, diag))
                        for diag in diagonals])
        w = raw / raw.sum()
        viable = np.flatnonzero(w > 1e-28)
        i = int(viable[rng.choice(viable.size, p=w[viable] / w[viable].sum())])
        if not raw[i] >= 1e-14:
            raise InvariantViolation("sampled branch has negligible norm")
        psi = np.tile(diagonals[i], n) * phi / math.sqrt(raw[i])
        outcomes.append(i)
        probs.append(float(w[i]))
        if measure_position and step.placement == "before-shift":
            psi = measure_vertex(psi)
        psi = step.shift.apply(psi)
        if measure_position and step.placement == "after-shift":
            psi = measure_vertex(psi)
    record = TrajectoryRecord(
        seed, tuple(outcomes), tuple(probs), tuple(vertices) if measure_position else None
    )
    return psi, record


def vdot_sample_trajectory(psi0, step, steps, seed):
    """The one-sample loop of the earlier weight rule: one np.vdot per branch.

    Its vertex draw is normalised by a numpy sum of the vertex marginal,
    and its vertex projection by a vdot of the projected state.
    """
    from coinwalk.evolution import TrajectoryRecord, _apply_coin

    rng = np.random.default_rng(seed)
    n, d = step.shift.num_vertices, step.shift.degree
    kraus = np.tile(step.coin_kraus, n)
    measure_position = step.vertex_dephasing == 1.0

    psi = psi0.copy()
    outcomes, probs, vertices = [], [], []

    def measure_vertex(psi):
        pv = pure_position_marginal(psi, d)
        v = int(rng.choice(n, p=pv / pv.sum()))
        vertices.append(v)
        out = np.zeros_like(psi)
        out[v * d: v * d + d] = psi[v * d: v * d + d]
        return out / math.sqrt(np.vdot(out, out).real)

    for _ in range(steps):
        children = kraus * _apply_coin(step.coin, psi)
        w = np.array([np.vdot(c, c).real for c in children])
        w = w / w.sum()
        viable = np.flatnonzero(w > 1e-28)
        i = int(viable[rng.choice(viable.size, p=w[viable] / w[viable].sum())])
        psi = children[i] / math.sqrt(np.vdot(children[i], children[i]).real)
        outcomes.append(i)
        probs.append(float(w[i]))
        if measure_position and step.placement == "before-shift":
            psi = measure_vertex(psi)
        psi = step.shift.apply(psi)
        if measure_position and step.placement == "after-shift":
            psi = measure_vertex(psi)
    record = TrajectoryRecord(
        seed, tuple(outcomes), tuple(probs), tuple(vertices) if measure_position else None
    )
    return psi, record


def _assert_matches_reference(psi0, step, steps, seeds):
    results = list(sample_trajectories(psi0, step, steps, seeds))
    assert len(results) == len(seeds)
    for (cone, final, record), seed in zip(results, seeds):
        ref_final, ref_record = reference_sample_trajectory(psi0, step, steps, seed)
        assert record == ref_record
        assert np.array_equal(in_place(cone, final, psi0.size), ref_final)


# the ulp of a probability in [0.5, 1), the coarsest spacing below 1
PROBABILITY_ULP = np.spacing(0.5)


def _assert_near_the_vdot_rule(psi0, step, steps, seeds):
    """Outcomes equal to the earlier rule's, and every probability within 4 ulp of [0.5, 1)."""
    for (cone, final, record), seed in zip(sample_trajectories(psi0, step, steps, seeds), seeds):
        final = in_place(cone, final, psi0.size)
        old_final, old = vdot_sample_trajectory(psi0, step, steps, seed)
        assert record.outcomes == old.outcomes
        assert record.vertex_outcomes == old.vertex_outcomes
        new_p, old_p = np.array(record.outcome_probabilities), np.array(old.outcome_probabilities)
        assert np.all(np.abs(new_p - old_p) <= 4 * PROBABILITY_ULP)
        np.testing.assert_allclose(final, old_final, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), beta=st.floats(0.0, 1.0, exclude_min=True),
       p=st.sampled_from([0.0, 1.0]),
       placement=st.sampled_from(["before-shift", "after-shift"]),
       block=st.integers(1, 4), steps=st.integers(0, 8))
def test_batched_sampler_matches_the_one_sample_loop(
    multi_graph, data, beta, p, placement, block, steps
):
    from unittest import mock

    from coinwalk import evolution

    graph, shift, psi, _rng = data.draw(walk_cases(multi_graph))
    step = make_step(graph, shift=shift, beta=beta, vertex_p=p, placement=placement)
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3 * block))
    # blocks of `block` samples, so that the seeds split over up to three
    with mock.patch.object(evolution, "SAMPLE_BLOCK_AMPLITUDES", block * psi.size):
        _assert_matches_reference(psi, step, steps, seeds)


def test_batched_sampler_splits_blocks_of_the_module_constant():
    from coinwalk.evolution import SAMPLE_BLOCK_AMPLITUDES, _light_cone

    graph = port_permuted_torus(8, np.random.default_rng(3))
    psi0 = basis_state(graph, 9, 2)
    # the sampler sizes its blocks by the light cone of 6 steps
    block = SAMPLE_BLOCK_AMPLITUDES // _light_cone(psi0, make_step(graph, beta=0.5), 6)[0].size
    assert block > 1
    seeds = [int(s) for s in np.random.SeedSequence(5).generate_state(2 * block + 3, np.uint64)]
    _assert_matches_reference(psi0, make_step(graph, beta=0.5), 6, seeds)
    _assert_matches_reference(psi0, make_step(graph, beta=1.0, vertex_p=1.0), 4, seeds)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), beta=st.floats(0.0, 1.0, exclude_min=True),
       p=st.sampled_from([0.0, 1.0]),
       placement=st.sampled_from(["before-shift", "after-shift"]), steps=st.integers(0, 8))
def test_sampler_stays_within_4_ulp_of_the_vdot_rule(multi_graph, data, beta, p, placement, steps):
    graph, shift, psi, _rng = data.draw(walk_cases(multi_graph))
    step = make_step(graph, shift=shift, beta=beta, vertex_p=p, placement=placement)
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    _assert_near_the_vdot_rule(psi, step, steps, seeds)


def test_torus_records_stay_within_4_ulp_of_the_vdot_rule():
    """The d = 4 torus of 64 vertices, with the measured steps of a benchmark run."""
    graph = port_permuted_torus(8, np.random.default_rng(1))
    seeds = [int(s) for s in np.random.SeedSequence(1).generate_state(6, np.uint64)]
    _assert_near_the_vdot_rule(basis_state(graph, 27, 1), make_step(graph, beta=0.5), 40, seeds)
    _assert_near_the_vdot_rule(
        basis_state(graph, 27, 1), make_step(graph, beta=0.5, vertex_p=1.0), 12, seeds
    )


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_a_shared_block_tosses_each_row_on_its_own(degree):
    """A pair of d amplitudes gets the same bits in any batch of two or more pairs."""
    from coinwalk.evolution import _apply_coin

    rng = np.random.default_rng(degree)
    block = np.linalg.qr(rng.normal(size=(degree, degree))
                         + 1j * rng.normal(size=(degree, degree)))[0]
    for _ in range(20):
        # at least 2 vertices: numpy hands a one-pair product to gemv, which rounds otherwise
        s, n = int(rng.integers(1, 20)), int(rng.integers(2, 80))
        extra = int(rng.integers(0, 40))
        x = rng.normal(size=(s, n * degree)) + 1j * rng.normal(size=(s, n * degree))
        x *= rng.random(x.shape) ** 6
        tossed = _apply_coin(block, x)
        # the cone's vertices at a random place in a whole graph with amplitude elsewhere too
        at = int(rng.integers(0, extra + 1)) * degree
        for row, got in zip(x, tossed):
            assert np.array_equal(_apply_coin(block, row), got)
            psi = rng.normal(size=(n + extra) * degree) + 0j
            psi[at: at + n * degree] = row
            assert np.array_equal(_apply_coin(block, psi)[at: at + n * degree], got)
        assert np.allclose(tossed, per_vertex_apply_coin(np.stack([block] * n), x), atol=1e-15)


def test_per_vertex_blocks_keep_the_batched_product():
    from coinwalk.evolution import _apply_coin

    rng = np.random.default_rng(8)
    for d, n in [(1, 5), (2, 7), (4, 16)]:
        blocks = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
        x = rng.normal(size=(3, n * d)) + 1j * rng.normal(size=(3, n * d))
        assert np.array_equal(_apply_coin(blocks, x), per_vertex_apply_coin(blocks, x))
        assert np.array_equal(_apply_coin(blocks, x[1]), per_vertex_apply_coin(blocks, x[1]))
        # equal blocks stacked per vertex are per-vertex blocks too
        same = np.stack([blocks[0]] * n)
        assert np.array_equal(_apply_coin(same, x), per_vertex_apply_coin(same, x))


def test_the_light_cone_keeps_a_shared_block_shared():
    from coinwalk.evolution import _light_cone

    graph = port_permuted_torus(8, np.random.default_rng(2))
    psi0 = basis_state(graph, 9, 2)
    shared = make_step(graph, beta=0.5)
    per_vertex = make_step(graph, coin_spec=[dft_coin(4)] * 64, beta=0.5)
    assert shared.coin.shape == (4, 4)
    assert np.array_equal(np.broadcast_to(shared.coin, (64, 4, 4)), per_vertex.coin)
    _, cone_step, cone = _light_cone(psi0, shared, 2)
    assert 1 < cone.size < 64
    assert cone_step.coin is shared.coin
    _, cone_step, _ = _light_cone(psi0, per_vertex, 2)
    assert cone_step.coin.shape == (cone.size, 4, 4)
    assert np.array_equal(cone_step.coin, per_vertex.coin[cone])


def _copied_step_cases():
    """(psi0, step) of a shared Hadamard, a shared DFT and a per-vertex coin."""
    cycle = build_cycle(64)
    torus = port_permuted_torus(8, np.random.default_rng(1))
    phases = [hadamard_phi(0.05 * j) for j in range(64)]
    return {
        "hadamard-cycle": (basis_state(cycle, 30, 0), make_step(cycle, beta=0.5)),
        "dft-torus": (basis_state(torus, 27, 1), make_step(torus, beta=0.5)),
        "per-vertex": (basis_state(cycle, 30, 1), make_step(cycle, coin_spec=phases, beta=0.5)),
    }


@pytest.mark.parametrize("case", ["hadamard-cycle", "dft-torus", "per-vertex"])
@pytest.mark.parametrize("duplicate", [lambda step: pickle.loads(pickle.dumps(step)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_pickled_or_copied_step_walks_as_the_original(case, duplicate):
    """A process pool pickles the step; the copy must keep the coin's form and every bit."""
    psi0, step = _copied_step_cases()[case]
    seeds = [int(s) for s in np.random.SeedSequence(19).generate_state(50, np.uint64)]
    copied = duplicate(step)
    assert copied.coin.shape == step.coin.shape
    old = list(sample_trajectories(psi0, step, 30, seeds))
    new = list(sample_trajectories(psi0, copied, 30, seeds))
    for (cone, final, record), (old_cone, old_final, old_record) in zip(new, old, strict=True):
        assert record == old_record
        assert np.array_equal(cone, old_cone)
        assert np.array_equal(final, old_final)
    for walk in (step, dataclasses.replace(step, coin_kraus=None)):
        assert np.array_equal(marginal_history(psi0, duplicate(walk), 30),
                              marginal_history(psi0, walk, 30))


def _assert_near_the_per_vertex_product(psi0, step, steps, seeds):
    """Outcomes equal to those of the per-vertex coin product, probabilities within 4 ulp.

    Returns how many probabilities the shared block's product moved.
    """
    with mock.patch.object(evolution, "_apply_coin", per_vertex_apply_coin):
        old = list(sample_trajectories(psi0, step, steps, seeds))
    new = list(sample_trajectories(psi0, step, steps, seeds))
    assert [r.seed for _, _, r in new] == seeds
    moved = 0
    for (cone, final, record), (old_cone, old_final, old_record) in zip(new, old, strict=True):
        assert np.array_equal(cone, old_cone)
        assert record.outcomes == old_record.outcomes
        assert record.vertex_outcomes == old_record.vertex_outcomes
        new_p = np.array(record.outcome_probabilities)
        old_p = np.array(old_record.outcome_probabilities)
        assert np.all(np.abs(new_p - old_p) <= 4 * PROBABILITY_ULP)
        np.testing.assert_allclose(final, old_final, rtol=0, atol=1e-12)
        moved += int(np.count_nonzero(new_p != old_p))
    return moved


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
def test_records_stay_within_4_ulp_of_the_per_vertex_product(beta):
    """The 8x8 DFT torus of a benchmark run, and a Hadamard cycle."""
    seeds = [int(s) for s in np.random.SeedSequence(18).generate_state(20, np.uint64)]
    torus = port_permuted_torus(8, np.random.default_rng(1))
    step = make_step(torus, beta=beta)
    assert step.coin.shape == (4, 4)
    _assert_near_the_per_vertex_product(basis_state(torus, 27, 1), step, 40, seeds)
    _assert_near_the_per_vertex_product(
        basis_state(torus, 27, 1), make_step(torus, beta=beta, vertex_p=1.0), 12, seeds[:6]
    )
    cycle = build_cycle(31)
    psi0 = (basis_state(cycle, 15, 0) + 1j * basis_state(cycle, 15, 1)) / math.sqrt(2)
    step = hadamard_walk_step(cycle, beta=beta)
    # the rounding did change, so the patched product is the other one
    assert _assert_near_the_per_vertex_product(psi0, step, 40, seeds) > 0


def test_unitary_walk_stays_near_the_per_vertex_product():
    torus = port_permuted_torus(8, np.random.default_rng(1))
    step, psi0 = make_step(torus), basis_state(torus, 27, 1)
    with mock.patch.object(evolution, "_apply_coin", per_vertex_apply_coin):
        old = marginal_history(psi0, step, 200)
    new = marginal_history(psi0, step, 200)
    assert not np.array_equal(new, old)  # the rounding did change
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6])
def test_coin_masses_add_up_vertex_by_vertex(degree):
    from coinwalk.evolution import _coin_masses

    rng = np.random.default_rng(degree)
    for _ in range(30):
        s, n = int(rng.integers(1, 4)), int(rng.integers(1, 200))
        x = rng.normal(size=(s, n * degree)) + 1j * rng.normal(size=(s, n * degree))
        # magnitudes over many decades, so that another order of the sums shows
        x *= rng.random(x.shape) ** 6
        masses = _coin_masses(_block(x, degree))
        assert masses.tolist() == [_loop_masses(row, degree) for row in x]
        # zero vertices put anywhere among them, as outside a light cone
        total = n + int(rng.integers(0, 50))
        at = np.sort(rng.choice(total, size=n, replace=False))
        padded = np.zeros((s, total, degree), dtype=complex)
        padded[:, at] = x.reshape(s, n, degree)
        assert np.array_equal(_coin_masses(_block(padded.reshape(s, -1), degree)), masses)


def test_numpy_sums_a_single_coin_index_in_another_order():
    """The trap the running sum avoids: at d = 1 numpy sums the vertices pairwise."""
    from coinwalk.evolution import _coin_masses

    rng = np.random.default_rng(11)
    differ = 0
    for _ in range(30):
        x = rng.normal(size=(2, 300)) * rng.random((2, 300)) ** 6 + 0j
        loop = [_loop_masses(row, 1) for row in x]
        assert _coin_masses(_block(x, 1)).tolist() == loop
        differ += (x.real ** 2).reshape(2, 300, 1).sum(axis=1).tolist() != loop
    assert differ


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_coin_masses_equal_a_running_sum_over_every_block_shape(degree):
    """One, two and three lanes (S d) take the running sum, four or more np.add.reduce:
    both add the vertices one at a time, in vertex order."""
    from coinwalk.evolution import _coin_masses

    rng = np.random.default_rng(40 + degree)
    shapes = [(s, n) for s in (1, 2, 3, 4, 5, 32) for n in (1, 2, 3, 7, 64, 301, 2000)
              if s * n <= 4000]
    # three draws of each shape: a pairwise sum matches the running one now and then
    for s, n in shapes * 3:
        x = rng.normal(size=(s, n * degree)) + 1j * rng.normal(size=(s, n * degree))
        x *= rng.random(x.shape) ** 6
        expected = [_loop_masses(row, degree) for row in x]
        block = _block(x, degree)
        assert _coin_masses(block).tolist() == expected


@pytest.mark.parametrize("vertex_p", [0.0, 1.0])
def test_a_sample_block_step_peaks_near_its_toss_and_gather_index(vertex_p):
    """32 samples of the 8x8 DFT torus, the benchmark's 8192-amplitude block.

    Beside the block a step holds its toss, the shift's gather index (half a
    block) and one broadcast buffer of numpy's (at most np.getbufsize() entries,
    a block here), or the squared moduli of the toss or of the vertex reading in
    its place; the shift gathers back into the block. The earlier layout, the
    (S, cone ports) rows with a new array per stage, peaked at 5.3 blocks here.
    """
    graph = port_permuted_torus(8, np.random.default_rng(1))
    step = make_step(graph, beta=0.5, vertex_p=vertex_p)
    cone_psi0, cone_step, cone = evolution._light_cone(basis_state(graph, 27, 1), step, 40)
    samples = np.arange(32)
    uniforms = np.random.default_rng(2).random((40, 32))

    def choose(_t, raw, _totals):
        i = raw.argmax(axis=1)
        return None, i, raw[samples, i]

    def read(t, psi):
        evolution._measure_vertices(psi, uniforms[t])

    block = np.empty((cone.size, 32, 4), dtype=complex)
    block[:] = cone_psi0.reshape(-1, 1, 4)
    assert block.size == evolution.SAMPLE_BLOCK_AMPLITUDES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for out, *_ in evolution._unravel(block, cone_step, 40, choose, read if vertex_p else None):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out is block  # every step gathers back into the block
    assert peak <= 2.9 * block.nbytes, peak / block.nbytes


def test_born_weights_sum_the_coin_in_order():
    from coinwalk.evolution import _born_weights

    rng = np.random.default_rng(4)
    for d, m in [(1, 1), (2, 2), (3, 4), (4, 5), (6, 7), (9, 10)]:
        masses = rng.random((5, d)) ** 4
        kraus_sq = rng.random((m, d)) ** 2
        expected = [[_loop_sum(a * k for a, k in zip(row, ks)) for ks in kraus_sq]
                    for row in masses]
        assert _born_weights(masses, kraus_sq).tolist() == expected


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6, 9])
def test_vertex_reading_normalises_by_the_coin_masses(degree, monkeypatch):
    from coinwalk import evolution

    drawn_from = []

    def recording_inverse_cdf(p, u):
        drawn_from.append(p.copy())
        return inverse_cdf(p, u)

    inverse_cdf = evolution._inverse_cdf
    monkeypatch.setattr(evolution, "_inverse_cdf", recording_inverse_cdf)
    rng = np.random.default_rng(degree)
    for _ in range(20):
        s, n = int(rng.integers(1, 4)), int(rng.integers(1, 60))
        psi = rng.normal(size=(s, n * degree)) + 1j * rng.normal(size=(s, n * degree))
        psi *= rng.random(psi.shape) ** 6
        u = rng.random(s)
        block = _block(psi, degree)
        vertices = evolution._measure_vertices(block, u)
        out = _rows(block)
        totals = [_loop_sum(_loop_masses(row, degree)) for row in psi]
        pv = pure_position_marginal(psi, degree).reshape(s, n)
        assert np.array_equal(drawn_from[-1], pv / np.array(totals)[:, None])
        for row, got, v in zip(psi, out, vertices.tolist()):
            kept = row[v * degree: (v + 1) * degree]
            expected = np.zeros_like(row)
            expected[v * degree: (v + 1) * degree] = kept / math.sqrt(_loop_sum(map(_sq, kept)))
            assert np.array_equal(got, expected)
        # zero vertices among them change neither the draw nor the state
        total = n + int(rng.integers(1, 30))
        at = np.sort(rng.choice(total, size=n, replace=False))
        padded = np.zeros((s, total, degree), dtype=complex)
        padded[:, at] = psi.reshape(s, n, degree)
        padded_block = _block(padded.reshape(s, -1), degree)
        padded_vertices = evolution._measure_vertices(padded_block, u)
        padded_out = _rows(padded_block)
        assert np.array_equal(drawn_from[-1][:, at], drawn_from[-2])
        assert np.array_equal(at[vertices], padded_vertices)
        assert np.array_equal(padded_out.reshape(s, total, degree)[:, at],
                              out.reshape(s, n, degree))


def _with_nan(psi):
    psi = psi.copy()
    psi[1] = math.nan
    return psi


# bad start states of a 5-cycle, whose N*d is 10, and the error each raises
BAD_STARTS = {
    "twice": (lambda psi: 2 * psi, InvariantViolation),
    "zero": (lambda psi: 0 * psi, InvariantViolation),
    "nan": (_with_nan, InvariantViolation),
    "length-11": (lambda psi: np.append(psi, 0), StructureError),
    "shape-5x2": (lambda psi: psi.reshape(5, 2), StructureError),
}
# every public entry that starts a walk, at its smallest step count
START_ENTRIES = {
    "run": lambda graph, psi, step: run(psi, step, 0),
    "marginal_history": lambda graph, psi, step: marginal_history(psi, step, 0),
    "evolve": lambda graph, psi, step: next(evolve(psi, step, 0)),
    "compare_mixing": lambda graph, psi, step: compare_mixing(graph, step, psi, 1, 0.5),
    "sample_trajectory": lambda graph, psi, step: sample_trajectory(psi, step, 0, seed=1),
    "sample_trajectories": lambda graph, psi, step: list(sample_trajectories(psi, step, 0, [1])),
    "enumerate_branches": lambda graph, psi, step: enumerate_branches(psi, step, 0),
}


@pytest.mark.parametrize("start", sorted(BAD_STARTS))
@pytest.mark.parametrize("entry", sorted(START_ENTRIES))
def test_a_bad_start_state_is_rejected_where_the_walk_starts(entry, start):
    """A start of another shape than (N*d,) is a StructureError, one of norm other than 1 an
    InvariantViolation, on the unitary and the measured path alike, even at 0 steps."""
    graph = build_cycle(5)
    bad, error = BAD_STARTS[start]
    psi = bad(basis_state(graph, 0, 0))
    sampler = entry.startswith(("sample", "enumerate"))
    for beta in (0.5,) if sampler else (0.0, 0.5):
        with pytest.raises(error, match="N\\*d = 10" if error is StructureError else "norm"):
            START_ENTRIES[entry](graph, psi, make_step(graph, beta=beta))
