import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    ConfigError,
    MixingCurve,
    StructureError,
    basis_state,
    build_cycle,
    build_cycle_shift,
    classical_run,
    coherence_l1,
    compare_mixing,
    complementarity_sweep,
    first_crossing,
    make_step,
    marginal_history,
    run,
    time_averaged_distribution,
    to_density,
    tvd,
    uniform_distribution,
)

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


def test_time_average_is_the_running_mean():
    marginals = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    np.testing.assert_allclose(time_averaged_distribution(marginals), [0.5, 0.5])
    with pytest.raises(StructureError, match="empty"):
        time_averaged_distribution(np.empty((0, 3)))


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
    with pytest.raises(StructureError, match="t_max"):
        compare_mixing(cycle7, step, psi, 0, 0.05)
    with pytest.raises(StructureError, match="epsilon"):
        compare_mixing(cycle7, step, psi, 10, 0.0)
    with pytest.raises(StructureError, match="epsilon"):
        compare_mixing(cycle7, step, psi, 10, 1.5)


def test_instantaneous_distribution_keeps_oscillating(cycle7):
    # the raw distribution never settles, which is why the race uses
    # the running average for the quantum side
    step = make_step(cycle7, shift=build_cycle_shift(7))
    hist = marginal_history(basis_state(cycle7, 0, 0), step, 500)
    u = uniform_distribution(7)
    instantaneous = [tvd(m, u) for m in hist[100:]]
    assert min(instantaneous) > 0.1
    averaged = tvd(time_averaged_distribution(hist), u)
    assert averaged < 0.05


def test_tradeoff_sweep_endpoints_on_cycle(cycle7):
    shift = build_cycle_shift(7)
    pts = complementarity_sweep(
        cycle7, basis_state(cycle7, 0, 0), 20, [0.0, 0.5, 1.0], shift=shift
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
        multi_graph, basis_state(multi_graph, 0, 0), 12, [0.0, 0.5, 1.0]
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
        calls.extend(task[3] for task in tasks)
        return map(fn, tasks)

    psi0 = basis_state(cycle7, 0, 0)
    pts = complementarity_sweep(cycle7, psi0, 9, betas, map_fn=counting_map)
    assert calls.count(0.0) == 1
    assert sorted(calls) == sorted(set(betas) | {0.0})
    assert [pt.beta for pt in pts] == betas
    assert pts == complementarity_sweep(cycle7, psi0, 9, betas)
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
        complementarity_sweep(cycle7, basis_state(cycle7, 0, 0), 5, [0.5, beta],
                              map_fn=recording_map)
    assert walks == []


@pytest.mark.parametrize("beta", [0.0, 0.4])
def test_streamed_mixing_curve_is_the_running_time_average(multi_graph, beta):
    step = make_step(multi_graph, beta=beta, vertex_p=0.1 if beta else 0.0)
    psi0 = basis_state(multi_graph, 2, 1)
    result = compare_mixing(multi_graph, step, psi0, 40, 0.05)
    hist = marginal_history(psi0, step, 40)
    u = uniform_distribution(multi_graph.num_vertices)
    assert result.quantum.times == result.classical.times == tuple(range(41))
    for t, value in enumerate(result.quantum.tvd_to_uniform):
        assert value == tvd(time_averaged_distribution(hist[: t + 1]), u)
    p0 = hist[0]
    for t, value in enumerate(result.classical.tvd_to_uniform):
        assert value == tvd(classical_run(p0, multi_graph, t), u)
