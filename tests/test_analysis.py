import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coinwalk import (
    ConfigError,
    MixingCurve,
    PortGraph,
    ShiftOperator,
    StructureError,
    basis_state,
    build_cycle,
    build_cycle_shift,
    classical_run,
    classical_step,
    compare_mixing,
    complementarity_sweep,
    first_crossing,
    make_step,
    marginal_history,
    run,
    to_density,
    tvd,
    uniform_distribution,
)
from coinwalk.evolution import _light_cone

from conftest import port_permuted_torus
from oracles import add_at_classical_step, coherence_l1, loop_compare_mixing

distributions = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5
).filter(lambda w: sum(w) > 1e-6).map(lambda w: np.asarray(w) / sum(w))


def test_tvd_worked_examples():
    assert tvd([1, 0], [0, 1]) == 1.0
    assert tvd([0.5, 0.5], [0.5, 0.5]) == 0.0
    spread = np.array([0.25, 0.5, 0.25, 0, 0, 0, 0])
    assert tvd(spread, uniform_distribution(7)) == pytest.approx(4 / 7, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(p=distributions, q=distributions, r=distributions)
def test_tvd_is_a_metric(p, q, r):
    assert tvd(p, p) == 0.0
    assert tvd(p, q) == tvd(q, p)
    assert tvd(p, q) <= tvd(p, r) + tvd(r, q) + 1e-12
    assert 0.0 <= tvd(p, q) <= 1.0 + 1e-12


def test_tvd_rejects_shape_mismatch():
    with pytest.raises(StructureError, match="shapes"):
        tvd([0.5, 0.5], [1.0, 0.0, 0.0])


def test_coherence_values():
    assert coherence_l1(np.diag([0.3, 0.7])) == 0.0
    plus = to_density(np.array([1.0, 1.0]) / np.sqrt(2))
    assert coherence_l1(plus) == pytest.approx(1.0, abs=1e-15)


def test_fully_measured_step_leaves_no_coherence(cycle7):
    step = make_step(cycle7, shift=build_cycle_shift(7), beta=1.0)
    rho = run(basis_state(cycle7, 0, 0), step, 1)
    assert coherence_l1(rho) < 1e-12


def test_first_crossing_scans_in_order():
    curve = MixingCurve((0, 1, 2, 3), (0.9, 0.2, 0.4, 0.01), "instantaneous")
    assert first_crossing(curve, 0.5) == 1
    assert first_crossing(curve, 0.05) == 3
    assert first_crossing(curve, 0.001) is None
    # epsilon=1 is satisfied immediately because TVD never exceeds 1
    assert first_crossing(curve, 1.0) == 0


def test_mixing_race_on_the_seven_cycle(cycle7):
    step = make_step(cycle7, shift=build_cycle_shift(7))
    cmp_ = compare_mixing(cycle7, step, basis_state(cycle7, 0, 0), 60, 0.05)
    assert cmp_.quantum_crossing == 20
    assert cmp_.classical_crossing == 25
    assert cmp_.first_to_cross == "quantum"
    assert cmp_.quantum.variant == "time-averaged"
    assert cmp_.classical.variant == "instantaneous"
    assert cmp_.quantum.tvd_to_uniform[20] == pytest.approx(
        0.042984008789062465, abs=1e-9
    )
    assert cmp_.classical.tvd_to_uniform[25] == pytest.approx(
        0.04734399488994054, abs=1e-9
    )


def test_even_cycle_classical_chain_never_crosses():
    g = build_cycle(6)
    step = make_step(g, shift=build_cycle_shift(6))
    cmp_ = compare_mixing(g, step, basis_state(g, 0, 0), 80, 0.05)
    assert cmp_.classical_crossing is None
    assert cmp_.first_to_cross in ("quantum", "neither")


def test_mixing_race_validation(cycle7):
    step = make_step(cycle7)
    psi = basis_state(cycle7, 0, 0)
    with pytest.raises(ConfigError, match="t_max"):
        compare_mixing(cycle7, step, psi, 0, 0.05)
    with pytest.raises(ConfigError, match="epsilon"):
        compare_mixing(cycle7, step, psi, 10, 0.0)
    with pytest.raises(ConfigError, match="epsilon"):
        compare_mixing(cycle7, step, psi, 10, 1.5)


def test_mixing_race_epsilon_bound_is_exactly_one(cycle7):
    step = make_step(cycle7)
    psi = basis_state(cycle7, 0, 0)
    assert compare_mixing(cycle7, step, psi, 3, 1.0).quantum_crossing == 0
    with pytest.raises(ConfigError, match="epsilon"):
        compare_mixing(cycle7, step, psi, 3, 1.0 + 5e-13)


def test_instantaneous_distribution_keeps_oscillating(cycle7):
    # the raw distribution never settles, which is why the race uses
    # the running average for the quantum side
    step = make_step(cycle7, shift=build_cycle_shift(7))
    hist = marginal_history(basis_state(cycle7, 0, 0), step, 500)
    u = uniform_distribution(7)
    instantaneous = [tvd(m, u) for m in hist[100:]]
    assert min(instantaneous) > 0.1
    averaged = tvd(hist.mean(axis=0), u)
    assert averaged < 0.05


def test_tradeoff_sweep_endpoints_on_cycle(cycle7):
    shift = build_cycle_shift(7)
    pts = complementarity_sweep(
        cycle7, make_step(cycle7, shift=shift), basis_state(cycle7, 0, 0), 20, [0.0, 0.5, 1.0]
    )
    assert pts[0].tvd_to_unitary == 0.0
    assert pts[0].visibility == 1.0
    assert pts[2].tvd_to_classical < 1e-10
    assert pts[2].distinguishability == 1.0
    for p in pts:
        assert p.visibility**2 + p.distinguishability**2 == pytest.approx(
            1.0, abs=1e-12
        )
    assert pts[1].tvd_to_unitary == pytest.approx(0.23931893778809926, abs=1e-9)
    assert pts[1].tvd_to_classical == pytest.approx(0.036619920051783224, abs=1e-9)


def test_tradeoff_sweep_on_irregular_graph(multi_graph):
    pts = complementarity_sweep(
        multi_graph, make_step(multi_graph), basis_state(multi_graph, 0, 0), 12, [0.0, 0.5, 1.0]
    )
    assert pts[0].tvd_to_unitary == 0.0
    assert pts[2].tvd_to_classical < 1e-10
    # a half-strength reading sits strictly between the two anchors
    assert 0.0 < pts[1].tvd_to_unitary
    assert 0.0 < pts[1].tvd_to_classical


@pytest.mark.parametrize("betas", [[0.0, 0.5, 1.0], [0.3, 1.0], [1.0, 0.0, 0.0]])
def test_sweep_runs_the_unitary_anchor_once(cycle7, betas):
    calls = []

    def counting_map(fn, tasks):
        tasks = list(tasks)
        calls.extend(step.coin_kraus for _psi0, step, _steps in tasks)
        return map(fn, tasks)

    def key(kraus):
        return b"" if kraus is None else kraus.tobytes()

    psi0, step = basis_state(cycle7, 0, 0), make_step(cycle7)
    pts = complementarity_sweep(cycle7, step, psi0, 9, betas, map_fn=counting_map)
    assert sum(kraus is None for kraus in calls) == 1
    expected = [make_step(cycle7, beta=beta).coin_kraus for beta in set(betas) | {0.0}]
    assert sorted(map(key, calls)) == sorted(map(key, expected))
    assert [pt.beta for pt in pts] == betas
    assert pts == complementarity_sweep(cycle7, step, psi0, 9, betas)
    unitary = marginal_history(psi0, make_step(cycle7), 9)[-1]
    for pt in pts:
        final = marginal_history(psi0, make_step(cycle7, beta=pt.beta), 9)[-1]
        assert pt.tvd_to_unitary == tvd(final, unitary)


@pytest.mark.parametrize("beta", [-0.5, 1.5, float("nan")])
def test_sweep_rejects_a_beta_outside_the_unit_interval_before_any_walk(cycle7, beta):
    walks = []

    def recording_map(fn, tasks):
        walks.extend(tasks)
        return map(fn, tasks)

    with pytest.raises(ConfigError, match="beta must lie in"):
        complementarity_sweep(cycle7, make_step(cycle7), basis_state(cycle7, 0, 0), 5,
                              [0.5, beta], map_fn=recording_map)
    assert walks == []


def test_sweep_rejects_a_step_that_already_measures_the_coin(cycle7):
    with pytest.raises(ConfigError, match="must measure no coin"):
        complementarity_sweep(cycle7, make_step(cycle7, beta=0.5), basis_state(cycle7, 0, 0),
                              5, [0.0, 1.0])


@pytest.mark.parametrize("beta", [0.0, 0.4])
def test_streamed_mixing_curve_is_the_running_time_average(multi_graph, beta):
    step = make_step(multi_graph, beta=beta, vertex_p=0.1 if beta else 0.0)
    psi0 = basis_state(multi_graph, 2, 1)
    result = compare_mixing(multi_graph, step, psi0, 40, 0.05)
    hist = marginal_history(psi0, step, 40)
    u = uniform_distribution(multi_graph.num_vertices)
    assert result.quantum.times == result.classical.times == tuple(range(41))
    for t, value in enumerate(result.quantum.tvd_to_uniform):
        assert value == tvd(hist[: t + 1].mean(axis=0), u)
    p0 = hist[0]
    for t, value in enumerate(result.classical.tvd_to_uniform):
        assert value == tvd(classical_run(p0, multi_graph, t), u)


@st.composite
def mixing_cases(draw, multi_graph):
    """A graph with 0-3 isolated vertices, a StepMap on it, a start and a t_max.

    t_max runs from 1 to past the step at which a cone of every
    non-isolated vertex is reached, so the race runs on a cone that has
    and one that has not saturated.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cycle", "multi", "torus"]))
    shift = None
    if kind == "cycle":
        graph = build_cycle(draw(st.integers(3, 12)))
        if draw(st.booleans()):
            shift = build_cycle_shift(graph.num_vertices)
        t_max = draw(st.integers(1, 14))
    else:
        if kind == "multi":
            graph = multi_graph
        else:
            graph = port_permuted_torus(draw(st.integers(3, 5)), rng)
        t_max = draw(st.integers(1, 8))
    isolated = draw(st.integers(0, 3))
    if isolated:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            graph = PortGraph(np.vstack([graph.partner, np.full((isolated, graph.degree), -1)]))
        if shift is not None:  # the isolated ports map to themselves
            dim = graph.partner.size
            padded = np.concatenate([shift.permutation, np.arange(shift.permutation.size, dim)])
            shift = ShiftOperator(padded, shift.kind, shift.degree)
    starts = draw(st.lists(
        st.sampled_from([j for j, dj in enumerate(graph.vertex_degrees) if dj]),
        min_size=1, max_size=2, unique=True,
    ))
    amplitudes = rng.normal(size=len(starts)) + 1j * rng.normal(size=len(starts))
    psi0 = sum(a * basis_state(graph, j, int(rng.integers(graph.vertex_degrees[j])))
               for a, j in zip(amplitudes, starts))
    psi0 /= np.linalg.norm(psi0)
    beta = draw(st.sampled_from([0.0, 0.3, 1.0]))
    vertex_p = draw(st.sampled_from([0.0, 0.2]))
    placement = draw(st.sampled_from(["before-shift", "after-shift"]))
    step = make_step(graph, shift=shift, beta=beta, vertex_p=vertex_p, placement=placement)
    epsilon = draw(st.sampled_from([0.05, 0.3, 0.9, 1.0]))
    return graph, step, psi0, t_max, epsilon


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mixing_race_equals_the_loop_oracle(multi_graph, data):
    """Every TVD of both curves, both crossings and the winner, bit for bit."""
    graph, step, psi0, t_max, epsilon = data.draw(mixing_cases(multi_graph))
    size = sum(side.size for side in _light_cone(psi0, step, t_max).sides)
    event("saturated cone" if size == graph.num_vertices else "partial cone")
    result = compare_mixing(graph, step, psi0, t_max, epsilon)
    assert result == loop_compare_mixing(graph, step, psi0, t_max, epsilon)
    assert all(type(x) is float for x in result.quantum.tvd_to_uniform
               + result.classical.tvd_to_uniform)

    p = np.random.default_rng(t_max).random(graph.num_vertices)
    p /= p.sum()
    expected = p
    for t in range(4):
        assert np.array_equal(classical_run(p, graph, t), expected)
        stepped = add_at_classical_step(expected, graph)
        assert np.array_equal(classical_step(expected, graph), stepped)
        expected = stepped


def test_row_sums_of_the_scored_pair_equal_the_one_dimensional_sum():
    """compare_mixing scores both curves with one np.add.reduce over the rows of a
    (2, N) buffer; each row sum must be the np.sum that tvd takes of that row."""
    rng = np.random.default_rng(20)
    for n in rng.integers(1, 3001, size=200).tolist():
        uniform = uniform_distribution(n)
        pair = rng.dirichlet(np.full(n, 0.3), size=2)
        rows = np.empty((1, 2))
        np.add.reduce(np.abs(pair - uniform), axis=1, out=rows[0])
        assert rows[0, 0] == np.sum(np.abs(pair[0] - uniform))
        assert rows[0, 1] == np.sum(np.abs(pair[1] - uniform))
