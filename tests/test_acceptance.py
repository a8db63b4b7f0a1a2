"""Acceptance gate: one test per advertised guarantee, run with pytest -v.

Each test prints the measured quantity next to its stated bound, so a
failing run shows how far off the build is, not just that it is off.
Random inputs are seeded; reruns are exact repeats.
"""

import math
import time

import numpy as np
import pytest

from coinwalk import (
    basis_state,
    build_cycle,
    build_cycle_shift,
    build_meter_unitary,
    build_shift,
    classical_run,
    compare_mixing,
    cp_step,
    dephasing_kraus,
    dft_coin,
    enumerate_branches,
    hadamard_phi,
    induced_coin_channel,
    make_step,
    marginal_history,
    position_marginal,
    pure_position_marginal,
    run,
    sample_trajectory,
    to_density,
    tvd,
    unitary_step,
)
from coinwalk.coin import default_coin_spec

from conftest import random_density, random_pure_state
from oracles import apply_kraus, build_coin_operator


def all_test_graphs(multi_graph):
    return [build_cycle(n) for n in range(3, 10)] + [multi_graph]


def classical_oracle(graph, t_max):
    chain = [np.eye(graph.num_vertices)[0]]
    for _ in range(t_max):
        chain.append(classical_run(chain[-1], graph, 1))
    return chain


def test_criterion_01_meter_law_on_random_coin_states():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    amps = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    worst = 0.0
    for beta in np.linspace(0.0, 1.0, 101):
        w = build_meter_unitary(beta).matrix
        joint = np.zeros((1000, 4), dtype=complex)
        joint[:, 0] = amps[:, 0]
        joint[:, 2] = amps[:, 1]
        blocks = (joint @ w.T).reshape(1000, 2, 2)
        rho = np.einsum("sam,sbm->sab", blocks, blocks.conj())
        c = math.cos(beta * math.pi / 2)
        expected = np.empty_like(rho)
        expected[:, 0, 0] = np.abs(amps[:, 0]) ** 2
        expected[:, 1, 1] = np.abs(amps[:, 1]) ** 2
        expected[:, 0, 1] = amps[:, 0] * amps[:, 1].conj() * c
        expected[:, 1, 0] = expected[:, 0, 1].conj()
        worst = max(worst, float(np.max(np.abs(rho - expected))))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: meter-law deviation {worst:.3e} (< 1e-12) "
          f"in {elapsed:.2f}s (< 5s)")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_02_kraus_channel_equals_meter_model():
    rng = np.random.default_rng(2)
    worst = 0.0
    for beta in np.linspace(0.0, 1.0, 101):
        coupling = build_meter_unitary(beta)
        ops = dephasing_kraus(beta)
        for _ in range(100):
            rho = random_density(rng, 2)
            dev = np.max(np.abs(
                apply_kraus(rho, ops) - induced_coin_channel(coupling, rho)
            ))
            worst = max(worst, float(dev))
    print(f"criterion 2: Kraus vs meter-model deviation {worst:.3e} (< 1e-12)")
    assert worst < 1e-12


def test_criterion_03_full_measurement_walks_classically(multi_graph):
    start = time.perf_counter()
    worst = 0.0
    for graph in all_test_graphs(multi_graph):
        oracle = classical_oracle(graph, 50)
        for kwargs in (dict(beta=1.0), dict(vertex_p=1.0)):
            hist = marginal_history(
                basis_state(graph, 0, 0), make_step(graph, **kwargs), 50
            )
            dev = max(tvd(hist[t], oracle[t]) for t in range(51))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    print(f"criterion 3: classical-reduction TVD {worst:.3e} (< 1e-10) "
          f"in {elapsed:.2f}s (< 30s)")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_04_unmeasured_density_run_stays_pure():
    graph = build_cycle(7)
    step = make_step(graph)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        psi = random_pure_state(rng, 14)
        rho = to_density(psi)
        for _ in range(20):
            psi = unitary_step(psi, step)
            rho = cp_step(rho, step)
            worst = max(worst, float(np.max(np.abs(rho - to_density(psi)))))
    print(f"criterion 4: density vs pure deviation {worst:.3e} (< 1e-12)")
    assert worst < 1e-12


def test_criterion_05_hand_computed_fixture():
    graph = build_cycle(7)
    step = make_step(graph, shift=build_cycle_shift(7))
    hist = marginal_history(basis_state(graph, 0, 0), step, 2)
    expected_t1 = np.array([0, 0.5, 0, 0, 0, 0, 0.5])
    expected_t2 = np.array([0.5, 0, 0.25, 0, 0, 0.25, 0])
    dev = max(
        float(np.max(np.abs(hist[1] - expected_t1))),
        float(np.max(np.abs(hist[2] - expected_t2))),
    )
    print(f"criterion 5: hand-fixture deviation {dev:.3e}")
    np.testing.assert_allclose(hist[1], expected_t1, atol=1e-14)
    np.testing.assert_allclose(hist[2], expected_t2, atol=1e-14)


def test_criterion_06_every_step_is_trace_preserving_and_positive(multi_graph):
    worst_trace = worst_herm = 0.0
    min_eig = 0.0

    def checked_run(graph, step, steps):
        nonlocal worst_trace, worst_herm, min_eig
        rho = to_density(basis_state(graph, 0, 0))
        for _ in range(steps):
            rho = cp_step(rho, step)
            worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0)
                              + abs(float(np.trace(rho).imag)))
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))

    for graph in all_test_graphs(multi_graph):
        checked_run(graph, make_step(graph, beta=1.0), 50)
        checked_run(graph, make_step(graph, vertex_p=1.0), 50)
    seven = build_cycle(7)
    checked_run(seven, make_step(seven), 20)
    checked_run(seven, make_step(seven, shift=build_cycle_shift(7)), 20)
    print(f"criterion 6: trace dev {worst_trace:.3e} (< 1e-10), hermiticity dev "
          f"{worst_herm:.3e} (< 1e-10), min eigenvalue {min_eig:.3e} (>= -1e-10)")
    assert worst_trace < 1e-10
    assert worst_herm < 1e-10
    assert min_eig >= -1e-10


def test_criterion_07_structural_exactness(multi_graph):
    graphs = all_test_graphs(multi_graph)
    for graph in graphs:
        for end, other in graph.pairing.items():
            assert graph.pairing[other] == end  # pairing is an involution
        perm = build_shift(graph).permutation
        assert np.array_equal(perm[perm], np.arange(perm.size))  # S^2 = I exactly

    worst = 0.0
    for phi in np.linspace(-math.pi, math.pi, 25):
        h = hadamard_phi(phi)
        worst = max(worst, float(np.max(np.abs(h.conj().T @ h - np.eye(2)))))
    for dim in range(1, 7):
        f = dft_coin(dim)
        worst = max(worst, float(np.max(np.abs(f.conj().T @ f - np.eye(dim)))))
    for graph in graphs:
        op = build_coin_operator(graph, default_coin_spec(graph))
        used = np.zeros(graph.num_vertices * graph.degree)
        for j, dj in enumerate(graph.vertex_degrees):
            used[j * graph.degree: j * graph.degree + dj] = 1.0
        worst = max(worst, float(np.max(np.abs(op.conj().T @ op - np.diag(used)))))
    print(f"criterion 7: worst coin unitarity deviation {worst:.3e} (< 1e-10)")
    assert worst < 1e-10


def test_criterion_08_sequential_measurements_compose():
    rng = np.random.default_rng(8)
    rhos = [random_density(rng, 2) for _ in range(10)]
    worst = 0.0
    for b1 in np.linspace(0.0, 1.0, 5):
        for b2 in np.linspace(0.0, 1.0, 5):
            w1, w2 = build_meter_unitary(b1), build_meter_unitary(b2)
            factor = math.cos(b1 * math.pi / 2) * math.cos(b2 * math.pi / 2)
            for rho in rhos:
                twice = induced_coin_channel(w2, induced_coin_channel(w1, rho))
                expected = rho.copy()
                expected[0, 1] *= factor
                expected[1, 0] *= factor
                worst = max(worst, float(np.max(np.abs(twice - expected))))
    print(f"criterion 8: composition-law deviation {worst:.3e} (< 1e-12)")
    assert worst < 1e-12


def test_criterion_09_trajectories_unravel_the_channel():
    graph = build_cycle(5)
    step = make_step(graph, beta=0.6)
    psi0 = basis_state(graph, 0, 0)
    branches = enumerate_branches(psi0, step, 10)
    mixture = np.zeros(5)
    for weight, psi, _history in branches:
        mixture += weight * pure_position_marginal(psi, 2)
    exact = position_marginal(run(psi0, step, 10), 2)
    enum_dev = tvd(mixture, exact)

    graph = build_cycle(7)
    step = make_step(graph, shift=build_cycle_shift(7), beta=1.0)
    psi0 = basis_state(graph, 0, 0)
    oracle = position_marginal(run(psi0, step, 20), 2)
    seeds = np.random.SeedSequence(20260814).generate_state(10000, dtype=np.uint64)
    acc = np.zeros(7)
    for seed in seeds:
        final, _record = sample_trajectory(psi0, step, 20, int(seed))
        acc += pure_position_marginal(final, 2)
    mc_dev = tvd(acc / len(seeds), oracle)
    print(f"criterion 9: enumeration TVD {enum_dev:.3e} (< 1e-10), "
          f"10k-sample TVD {mc_dev:.4f} (< 0.02)")
    assert enum_dev < 1e-10
    assert mc_dev < 0.02


def test_criterion_10_walk_mixes_before_the_chain():
    start = time.perf_counter()
    graph = build_cycle(7)
    step = make_step(graph, shift=build_cycle_shift(7))
    result = compare_mixing(graph, step, basis_state(graph, 0, 0), 60, 0.05)
    elapsed = time.perf_counter() - start
    print(f"criterion 10: quantum crossing t={result.quantum_crossing}, classical "
          f"crossing t={result.classical_crossing}, in {elapsed:.2f}s (< 10s)")
    assert result.quantum_crossing == 20  # frozen after first computation
    assert result.classical_crossing == 25  # frozen after first computation
    assert result.quantum_crossing < result.classical_crossing
    assert result.first_to_cross == "quantum"
    assert elapsed < 10.0


def test_criterion_11_reversed_sign_convention_mirrors_the_walk():
    graph = build_cycle(7)
    psi0 = basis_state(graph, 0, 0)
    forward = marginal_history(
        psi0, make_step(graph, shift=build_cycle_shift(7, direction=1)), 10
    )
    reverse = marginal_history(
        psi0, make_step(graph, shift=build_cycle_shift(7, direction=-1)), 10
    )
    mirrored = forward[:, [(7 - j) % 7 for j in range(7)]]
    dev = float(np.max(np.abs(reverse - mirrored)))
    print(f"criterion 11: mirror deviation {dev:.3e} (< 1e-12)")
    assert dev < 1e-12
    # the asymmetry itself is real: by t=3 the two orientations differ
    assert abs(forward[3][1] - reverse[3][1]) > 0.2
