import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    InvariantViolation,
    StructureError,
    basis_state,
    build_cycle,
    partial_trace_meter,
    position_marginal,
    pure_position_marginal,
    to_density,
)
from coinwalk import evolution
from coinwalk.coin import embedded_blocks
from coinwalk.state import Tolerances, check_pure, check_trace

from conftest import random_density, random_pure_state
from oracles import check_density

ATOL = 1e-12


def test_basis_state_start_of_cycle(cycle7):
    psi = basis_state(cycle7, 0, 0)
    assert psi[0] == 1.0
    assert np.count_nonzero(psi) == 1


def test_basis_state_flat_indexing(cycle7):
    psi = basis_state(cycle7, 3, 1)
    assert psi[3 * 2 + 1] == 1.0


def test_basis_state_rejects_unused_port(cycle7):
    with pytest.raises(StructureError):
        basis_state(cycle7, 0, 2)


def test_basis_state_rejects_unused_port_on_irregular_graph(multi_graph):
    with pytest.raises(StructureError):
        basis_state(multi_graph, 5, 1)
    assert basis_state(multi_graph, 5, 0)[5 * 4 + 0] == 1.0


def test_to_density_is_a_projector(cycle7):
    psi = basis_state(cycle7, 0, 0)
    rho = to_density(psi)
    assert rho[0, 0] == 1.0
    assert np.trace(rho) == pytest.approx(1.0)
    np.testing.assert_allclose(rho @ rho, rho, atol=ATOL)


def test_to_density_superposition_block(cycle7):
    psi = np.zeros(14, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    rho = to_density(psi)
    np.testing.assert_allclose(rho[:2, :2], 0.5 * np.ones((2, 2)), atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_to_density_spectrum_is_rank_one(seed):
    rng = np.random.default_rng(seed)
    rho = to_density(random_pure_state(rng, 10))
    eigs = np.sort(np.linalg.eigvalsh(rho))
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(eigs[:-1]) < 1e-10)


def test_to_density_rejects_unnormalized():
    with pytest.raises(InvariantViolation):
        to_density(np.array([1.0, 1.0], dtype=complex))


def test_position_marginal_of_basis_state(cycle7):
    rho = to_density(basis_state(cycle7, 0, 0))
    expected = np.zeros(7)
    expected[0] = 1.0
    np.testing.assert_allclose(position_marginal(rho, 2), expected, atol=ATOL)


def test_position_marginal_of_maximally_mixed(cycle7):
    rho = np.eye(14, dtype=complex) / 14
    np.testing.assert_allclose(position_marginal(rho, 2), np.full(7, 1 / 7), atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pure_and_density_marginals_agree(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, 14)
    np.testing.assert_allclose(
        pure_position_marginal(psi, 2),
        position_marginal(to_density(psi), 2),
        atol=ATOL,
    )


def test_pure_marginal_has_the_bits_of_the_row_sum_at_every_degree():
    """Below d = 8 the d columns are added in coin order, as numpy's row sum adds them;
    from d = 8 numpy groups the row's terms otherwise, and the row sum is kept."""
    from coinwalk.state import _squared_moduli

    rng = np.random.default_rng(23)
    for d in range(1, 11):
        differ = 0
        for _ in range(20):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 300)) * d)
            # magnitudes over many decades, so that another order of the sums shows
            psi = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * rng.random(shape) ** 6
            sq = _squared_moduli(psi).reshape(-1, d)
            assert np.array_equal(pure_position_marginal(psi, d), sq.sum(axis=1))
            in_order = sq[:, 0].copy()
            for a in range(1, d):
                in_order += sq[:, a]
            differ += not np.array_equal(in_order, sq.sum(axis=1))
        assert (differ > 0) is (d >= 8)


def test_marginal_clamps_roundoff_but_flags_real_negatives():
    rho = np.diag([1.0, 0.0, -1e-13, 0.0]).astype(complex)
    marg = position_marginal(rho, 2)
    assert marg.min() >= 0.0
    rho = np.diag([1.0, 0.0, -1e-9, 0.0]).astype(complex)
    with pytest.raises(InvariantViolation):
        position_marginal(rho, 2)


def test_partial_trace_of_product_state():
    gamma, eta = 0.6, 0.8j
    coin = np.array([gamma, eta])
    joint = np.kron(np.outer(coin, coin.conj()), np.diag([1.0, 0.0])).astype(complex)
    reduced = partial_trace_meter(joint)
    np.testing.assert_allclose(
        reduced,
        [[0.36, gamma * np.conj(eta)], [np.conj(gamma) * eta, 0.64]],
        atol=ATOL,
    )


def test_partial_trace_of_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    reduced = partial_trace_meter(np.outer(bell, bell.conj()))
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=ATOL)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_recovers_product_factor(seed):
    rng = np.random.default_rng(seed)
    sys = random_density(rng, 4)
    meter = random_density(rng, 2)
    np.testing.assert_allclose(
        partial_trace_meter(np.kron(sys, meter)), sys, atol=ATOL
    )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    joint = random_density(rng, 8)
    reduced = partial_trace_meter(joint)
    assert np.trace(reduced).real == pytest.approx(1.0, abs=ATOL)


def test_partial_trace_rejects_bad_dimensions():
    with pytest.raises(StructureError):
        partial_trace_meter(np.eye(5) / 5)


def test_check_density_rejects_each_violation():
    bad_herm = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(InvariantViolation, match="Hermitian"):
        check_density(bad_herm)
    bad_trace = np.eye(2, dtype=complex)
    with pytest.raises(InvariantViolation, match="trace"):
        check_density(bad_trace)
    bad_positive = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvariantViolation, match="eigenvalue"):
        check_density(bad_positive)


@np.errstate(invalid="ignore")  # inf - inf in the Hermiticity check
def test_non_finite_states_fail_every_guard():
    for bad in (np.nan, np.inf):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[2, 2] = bad
        with pytest.raises(InvariantViolation):
            check_density(rho)
        with pytest.raises(InvariantViolation, match="non-finite"):
            position_marginal(rho, 2)
        with pytest.raises(InvariantViolation, match="norm"):
            check_pure(np.array([1.0, bad], dtype=complex))
    # a NaN coherence leaves the diagonal finite but is still not a state
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(InvariantViolation, match="Hermitian"):
        check_density(rho)


def test_check_pure_accepts_unit_norm():
    check_pure(np.array([1.0, 0.0], dtype=complex))


def _with(values, x):
    """values as a complex array with its first entry replaced by x."""
    out = np.array(values, dtype=complex)
    out.flat[0] = x
    return out


def _half(rho, degree):
    """rho's half layout, as the density walk holds it."""
    return evolution._to_half(rho, evolution._matrix_boundary(rho.shape[0] // degree, degree))


# every guard that reads a bound of DEFAULT_TOLERANCES, as a call that passes
# when x is 1 and must fail, with the message given, when x is NaN or Inf
GUARDS = {
    "norm": (lambda x: check_pure(_with([0.0, 0.0], x)), InvariantViolation, "norm"),
    "trace": (lambda x: check_trace(_with(np.zeros((2, 2)), x)), InvariantViolation,
              "non-finite"),
    "marginal_clamp": (lambda x: position_marginal(_with(np.zeros((4, 4)), x), 2),
                       InvariantViolation, "non-finite"),
    # the density walk reads both off one read of its half layout's same-vertex diagonal
    "trace-of-blocks": (
        lambda x: evolution._read_blocks(_half(_with(np.zeros((4, 4)), x), 2)),
        InvariantViolation, "non-finite"),
    "marginal_clamp-of-blocks": (
        lambda x: evolution._read_blocks(_half(np.diag([x, -x, 1.0, 0.0]), 2)),
        InvariantViolation, "non-finite"),
    "branch_sum": (lambda x: evolution._check_branch_sums(np.array([x])),
                   InvariantViolation, "sum to"),
    "draw_sum": (lambda x: evolution._inverse_cdf(np.array([[x, 0.0]]), np.zeros(1)),
                 InvariantViolation, "draw weights"),
    "unitarity": (lambda x: embedded_blocks(build_cycle(3), _with(np.eye(2), x)),
                  StructureError, "not unitary"),
    "negligible_norm": (lambda x: evolution._check_norms(np.array([x]), "branch"),
                        InvariantViolation, "negligible norm"),
}


@np.errstate(invalid="ignore")  # inf * 0 in the unitarity check of an Inf block
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("bound", GUARDS)
def test_every_guard_of_the_table_fires_on_nan_and_inf(bound, bad):
    guard, error, message = GUARDS[bound]
    guard(1.0)
    with pytest.raises(error, match=message):
        guard(bad)


@np.errstate(invalid="ignore", over="ignore")  # inf - inf, and 1e308 + 1e308
@pytest.mark.parametrize("diagonal, message", [
    ([0.5, 0.5, 0.0, np.nan], "non-finite diagonal entry"),
    ([0.5, 0.5, 0.0, np.inf], "non-finite diagonal entry"),
    ([0.5, 0.5, -np.inf, np.inf], "non-finite diagonal entry"),
    ([0.5, 0.5, 0.5, 0.0], r"trace np.float64\(1.5\) is not 1"),
    ([1e308, 1e308, 0.0, 0.0], r"trace np.float64\(inf\) is not 1"),
])
def test_check_trace_names_what_is_wrong(diagonal, message):
    rho = np.diag(diagonal).astype(complex)
    for layout in (rho, np.asfortranarray(rho)):
        with pytest.raises(InvariantViolation, match=message):
            check_trace(layout)


@np.errstate(invalid="ignore")  # inf - inf
@pytest.mark.parametrize("diagonal, message", [
    ([0.5, 0.5, 0.0, np.nan], "non-finite entry"),
    ([0.5, 0.5, 0.0, np.inf], "non-finite entry"),
    ([0.5, 0.5, -np.inf, 0.0], "non-finite entry"),
    ([1.0, 0.5, -0.5, 0.0], "marginal entry -5.000e-01 below the clamp threshold"),
    ([1.0, 0.5, -0.5, np.inf], "non-finite entry"),
])
def test_position_marginal_names_what_is_wrong(diagonal, message):
    rho = np.diag(diagonal).astype(complex)
    for layout in (rho, np.asfortranarray(rho)):
        with pytest.raises(InvariantViolation, match=message):
            position_marginal(layout, 2)


@np.errstate(invalid="ignore", over="ignore")  # inf - inf, and 1e308 + 1e308
@pytest.mark.parametrize("diagonal, message", [
    ([0.5, 0.5, 0.0, np.nan], "non-finite diagonal entry"),
    ([0.5, 0.5, 0.0, np.inf], "non-finite diagonal entry"),
    ([0.5, 0.5, -np.inf, np.inf], "non-finite diagonal entry"),
    ([0.5, 0.5, 0.5, 0.0], r"trace np.float64\(1.5\) is not 1"),
    ([1.0, 0.5, -0.5, 0.0], "marginal entry -5.000e-01 below the clamp threshold"),
])
def test_the_density_walk_read_names_what_is_wrong(diagonal, message):
    """The trace check and the marginal's guard share one read of the blocks' diagonal."""
    with pytest.raises(InvariantViolation, match=message):
        evolution._read_blocks(_half(np.diag(diagonal).astype(complex), 2))


@pytest.mark.parametrize("degree", [2, 3, 4, 9, 12])
def test_the_density_walk_read_sums_each_vertex_as_its_row_of_the_diagonal(degree):
    """The sums are read in place as a contiguous copy's rows sum, which numpy adds
    pairwise from 9 entries on, and roundoff below 0 is clamped to +0.0."""
    rng = np.random.default_rng(degree)
    diagonal = rng.dirichlet(np.ones(3 * degree))
    diagonal[-degree:] = [0.0] * (degree - 1) + [-1e-13]  # roundoff below 0
    rho = np.diag(diagonal / diagonal.sum()).astype(complex)
    probs = evolution._read_blocks(_half(rho, degree))
    expected = np.ascontiguousarray(np.diagonal(rho).real).reshape(3, degree).sum(axis=1)
    assert np.array_equal(probs, np.maximum(expected, 0.0))
    assert probs[-1] == 0.0 and not np.signbit(probs).any()


def test_position_marginal_clamps_roundoff_to_zero():
    rho = np.diag([0.5, 0.5, -1e-13, 0.0]).astype(complex)
    probs = position_marginal(rho, 2)
    assert probs.tolist() == [1.0, 0.0] and not np.signbit(probs).any()


def test_every_bound_of_the_table_is_read_by_the_package():
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in Path(evolution.__file__).parent.glob("*.py"))
    fields = [field.name for field in dataclasses.fields(Tolerances)]
    assert [f for f in fields if not re.search(rf"DEFAULT_TOLERANCES\.{f}\b", source)] == []
    assert "hermiticity" not in fields and "eigenvalue" not in fields
