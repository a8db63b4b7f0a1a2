import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    CoinSpec,
    ConfigError,
    InvariantViolation,
    StructureError,
    assembled_step_operators,
    basis_state,
    build_coin_operator,
    build_cycle,
    build_cycle_shift,
    classical_run,
    coherence_l1,
    cp_step,
    dephasing_kraus,
    enumerate_branches,
    evolve,
    hadamard_phi,
    make_step,
    marginal_history,
    position_marginal,
    pure_position_marginal,
    reconstruct_cycle_path,
    run,
    sample_trajectory,
    to_density,
    tvd,
    unitary_step,
    vertex_dephasing,
)
from coinwalk.evolution import StepMap

from conftest import port_permuted_torus, random_density, random_pure_state


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
        g, coin_spec=CoinSpec.from_shared(np.eye(2, dtype=complex)),
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
    from coinwalk import half_edge_run

    g = build_cycle(5)
    theta = 0.4
    block = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    step = make_step(g, coin_spec=CoinSpec.from_shared(block), beta=1.0)
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


def test_branch_enumeration_reproduces_density_evolution():
    g = build_cycle(5)
    step = make_step(g, shift=build_cycle_shift(5), beta=0.6)
    psi0 = basis_state(g, 0, 0)
    branches = enumerate_branches(psi0, step, 6)
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
    path = reconstruct_cycle_path(rec_a.outcomes, 0, 7)
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
    step = StepMap(coin, build_shift(cycle7), dephasing_kraus(0.0).operators, 0.0)
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


def test_path_reconstruction_and_validation():
    assert reconstruct_cycle_path((0, 0, 1, 0), 0, 5) == [0, 1, 2, 1, 2]
    assert reconstruct_cycle_path((0, 0), 0, 5, direction=-1) == [0, 4, 3]
    assert reconstruct_cycle_path((1,), 0, 5) == [0, 4]
    with pytest.raises(ConfigError, match="0 or 1"):
        reconstruct_cycle_path((2,), 0, 5)


def test_step_configuration_validation(cycle7):
    with pytest.raises(ConfigError, match="placement"):
        make_step(cycle7, placement="mid-shift")
    with pytest.raises(ConfigError, match="dephasing"):
        make_step(cycle7, vertex_p=1.5)
    with pytest.raises(ConfigError, match="nonnegative"):
        run(basis_state(cycle7, 0, 0), make_step(cycle7), -2)


def test_every_intermediate_state_is_a_density_matrix(cycle7):
    from coinwalk import check_density

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
    branches = enumerate_branches(psi, measured, 1)
    assert [h for _, _, h in branches] == [(i,) for i, w in enumerate(born) if w >= 1e-18]
    for w, state, (i,) in branches:
        assert w == pytest.approx(born[i], abs=1e-12)
        np.testing.assert_allclose(state, ops[i] @ psi / math.sqrt(born[i]), atol=1e-12)


def test_step_map_rejects_dense_coin_and_non_diagonal_kraus(cycle7):
    from coinwalk.coin import default_coin_spec, embedded_blocks
    from coinwalk.shift import build_shift

    blocks = np.stack(embedded_blocks(cycle7, default_coin_spec(cycle7)))
    shift = build_shift(cycle7)
    with pytest.raises(StructureError, match=r"\(7, 2, 2\) stack"):
        StepMap(build_coin_operator(cycle7, default_coin_spec(cycle7)), shift)
    mixing = (np.ones((2, 2)) / 2, np.eye(2) / 2)
    with pytest.raises(StructureError, match="diagonal"):
        StepMap(blocks, shift, mixing)


class _DrawLast:
    """Stands in for the sampler's generator and always draws the last option."""

    def __init__(self, seed):
        pass

    def choice(self, count, p=None):
        return count - 1


def test_sampler_invariants_still_fire(cycle7, monkeypatch):
    from coinwalk.coin import default_coin_spec, embedded_blocks
    from coinwalk.shift import build_shift

    blocks = np.stack(embedded_blocks(cycle7, default_coin_spec(cycle7)))
    shift = build_shift(cycle7)
    psi0 = basis_state(cycle7, 0, 0)
    leaky = tuple(0.5 * k for k in dephasing_kraus(0.5).operators)
    with pytest.raises(InvariantViolation, match="sum to"):
        sample_trajectory(psi0, StepMap(blocks, shift, leaky), 1, seed=0)
    with pytest.raises(InvariantViolation, match="sum to"):
        enumerate_branches(psi0, StepMap(blocks, shift, leaky), 1)

    monkeypatch.setattr(np.random, "default_rng", _DrawLast)
    # a viable branch of weight 1e-16 is drawn: its state is too small to renormalize
    faint = (np.eye(2, dtype=complex), 1e-8 * np.eye(2, dtype=complex))
    with pytest.raises(InvariantViolation, match="negligible norm"):
        sample_trajectory(psi0, StepMap(blocks, shift, faint), 1, seed=0)
    # the walker sits at vertex 0, and the position reading lands on vertex 6
    step = make_step(cycle7, beta=1.0, vertex_p=1.0)
    with pytest.raises(InvariantViolation, match="vertex projection"):
        sample_trajectory(psi0, step, 1, seed=0)
