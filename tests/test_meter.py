import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    ConfigError,
    build_meter_unitary,
    dephasing_kraus,
    distinguishability,
    induced_coin_channel,
    uniform_dephasing_kraus,
    visibility,
)

from conftest import random_density
from oracles import apply_kraus, conditional_meter_states, trace_distance

BETA_GRID = np.linspace(0.0, 1.0, 21)


def test_coupling_is_unitary_across_strengths():
    for beta in np.linspace(0.0, 1.0, 101):
        w = build_meter_unitary(beta).matrix
        np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)


def test_branch_form_holds_entrywise():
    rng = np.random.default_rng(11)
    for beta in BETA_GRID:
        w = build_meter_unitary(beta).matrix
        c = math.cos(beta * math.pi / 2)
        s = math.sin(beta * math.pi / 2)
        for _ in range(20):
            gamma, eta = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = math.sqrt(abs(gamma) ** 2 + abs(eta) ** 2)
            gamma, eta = gamma / norm, eta / norm
            joint_in = np.array([gamma, 0.0, eta, 0.0])  # coin (x) meter |0>
            expected = np.array([gamma, 0.0, eta * c, eta * s])
            np.testing.assert_allclose(w @ joint_in, expected, atol=1e-12)


def test_weak_and_strong_limits():
    w0 = build_meter_unitary(0.0).matrix
    for coin_index in (0, 2):
        vec = np.zeros(4)
        vec[coin_index] = 1.0
        np.testing.assert_allclose(w0 @ vec, vec, atol=1e-12)
    w1 = build_meter_unitary(1.0).matrix
    np.testing.assert_allclose(w1 @ np.array([0, 0, 1, 0]), [0, 0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(w1 @ np.array([1, 0, 0, 0]), [1, 0, 0, 0], atol=1e-12)


def test_channel_shrinks_off_diagonals_only():
    rho = np.array([[0.64, 0.48], [0.48, 0.36]], dtype=complex)
    out = induced_coin_channel(build_meter_unitary(0.5), rho)
    assert out[0, 0] == pytest.approx(0.64, abs=1e-12)
    assert out[1, 1] == pytest.approx(0.36, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.48 * math.cos(math.pi / 4), abs=1e-12)
    assert abs(out[0, 1]) == pytest.approx(0.3394112549695428, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(beta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_kraus_pair_is_complete(beta):
    k0, k1 = (np.diag(k) for k in dephasing_kraus(beta))
    np.testing.assert_allclose(
        k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(2), atol=1e-14
    )


def test_kraus_endpoints():
    k0, k1 = (np.diag(k) for k in dephasing_kraus(0.0))
    np.testing.assert_allclose(k0, np.eye(2), atol=0)
    np.testing.assert_allclose(k1, np.zeros((2, 2)), atol=0)
    k0, k1 = (np.diag(k) for k in dephasing_kraus(1.0))
    np.testing.assert_allclose(k0, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(k1, np.diag([0.0, 1.0]), atol=1e-15)


def test_kraus_matches_traced_meter_model():
    rng = np.random.default_rng(23)
    for beta in BETA_GRID:
        coupling = build_meter_unitary(beta)
        ops = dephasing_kraus(beta)
        for _ in range(20):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(
                apply_kraus(rho, ops),
                induced_coin_channel(coupling, rho),
                atol=1e-12,
            )


def test_two_measured_steps_compose_multiplicatively():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    for b1 in np.linspace(0, 1, 5):
        for b2 in np.linspace(0, 1, 5):
            once = induced_coin_channel(build_meter_unitary(b1), rho)
            twice = induced_coin_channel(build_meter_unitary(b2), once)
            expected = 0.5 * visibility(b1) * visibility(b2)
            assert abs(twice[0, 1] - expected) < 1e-12


def test_knowledge_and_visibility_trade_off_exactly():
    for beta in BETA_GRID:
        v, d = visibility(beta), distinguishability(beta)
        assert v * v + d * d == pytest.approx(1.0, abs=1e-15)
    assert visibility(0.0) == 1.0
    assert distinguishability(1.0) == 1.0


def test_meter_records_are_as_distinguishable_as_promised():
    for beta in BETA_GRID:
        m0, m1 = conditional_meter_states(beta)
        dist = trace_distance(np.outer(m0, m0.conj()), np.outer(m1, m1.conj()))
        assert dist == pytest.approx(distinguishability(beta), abs=1e-12)


def test_uniform_family_is_trace_preserving():
    for dim in (1, 2, 3, 4, 5):
        for beta in (0.0, 0.3, 1.0):
            ops = [np.diag(k) for k in uniform_dephasing_kraus(beta, dim)]
            total = sum(op.conj().T @ op for op in ops)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-14)


def test_uniform_family_agrees_with_two_level_pair():
    rng = np.random.default_rng(5)
    for beta in BETA_GRID:
        pair = dephasing_kraus(beta)
        fam = uniform_dephasing_kraus(beta, 2)
        for _ in range(10):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(
                apply_kraus(rho, fam), apply_kraus(rho, pair), atol=1e-12
            )


def test_uniform_family_decay_factor():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4)
    beta = 0.7
    out = apply_kraus(rho, uniform_dephasing_kraus(beta, 4))
    f = math.cos(beta * math.pi / 2)
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-14)
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(out[off], f * rho[off], atol=1e-14)


def test_strength_outside_unit_interval_is_rejected():
    for bad in (-0.1, 1.0001, 2.0):
        with pytest.raises(ConfigError):
            build_meter_unitary(bad)
        with pytest.raises(ConfigError):
            dephasing_kraus(bad)
        with pytest.raises(ConfigError):
            visibility(bad)
        with pytest.raises(ConfigError):
            distinguishability(bad)
    with pytest.raises(ConfigError):
        uniform_dephasing_kraus(0.5, 0)
