import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    StructureError,
    basis_state,
    build_cycle,
    build_cycle_shift,
    build_shift,
)
from coinwalk.evolution import _from_blocks, _to_blocks

from conftest import port_permuted_torus, random_pure_state


def test_port_swap_on_triangle():
    g = build_cycle(3)
    s = build_shift(g)
    # leaving vertex 0 through port 0 lands at vertex 1 port 1
    psi = basis_state(g, 0, 0)
    out = s.apply(psi)
    assert out[1 * 2 + 1] == 1.0
    assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("n", range(3, 10))
def test_port_swap_is_an_involution(n):
    s = build_shift(build_cycle(n))
    p = s.permutation
    assert np.array_equal(p[p], np.arange(p.size))


def test_port_swap_matches_pairing_on_irregular_graph(multi_graph):
    s = build_shift(multi_graph)
    d = multi_graph.degree
    for (j, k), (j2, k2) in multi_graph.pairing.items():
        assert s.permutation[j * d + k] == j2 * d + k2
    # unused ports stay put
    for j, dj in enumerate(multi_graph.vertex_degrees):
        for k in range(dj, d):
            assert s.permutation[j * d + k] == j * d + k


def test_directed_shift_moves_without_flipping_coin():
    g = build_cycle(7)
    s = build_cycle_shift(7)
    out = s.apply(basis_state(g, 0, 0))
    assert out[1 * 2 + 0] == 1.0
    out = s.apply(basis_state(g, 0, 1))
    assert out[6 * 2 + 1] == 1.0


def test_directed_shift_is_not_self_inverse_but_has_period_n():
    s = build_cycle_shift(5)
    p = s.permutation
    assert not np.array_equal(p[p], np.arange(p.size))
    q = np.arange(p.size)
    for _ in range(5):
        q = p[q]
    assert np.array_equal(q, np.arange(p.size))


def test_reversed_direction_mirrors_the_walk():
    g = build_cycle(7)
    fwd = build_cycle_shift(7, direction=1)
    rev = build_cycle_shift(7, direction=-1)
    assert rev.kind == "direction-preserving-reversed"
    out = rev.apply(basis_state(g, 0, 0))
    assert out[6 * 2 + 0] == 1.0
    # reversing twice is the identity on the permutation level
    assert np.array_equal(rev.permutation[fwd.permutation], np.arange(14))


def test_directed_shift_commutes_with_relabelling():
    # the cycle looks the same from every vertex, so shifting then
    # rotating labels equals rotating then shifting
    n = 6
    s = build_cycle_shift(n)
    rot = np.arange(2 * n)
    for j in range(n):
        for k in range(2):
            rot[2 * j + k] = 2 * ((j + 1) % n) + k
    rng = np.random.default_rng(7)
    psi = random_pure_state(rng, 2 * n)

    def permute(p, v):
        out = np.empty_like(v)
        out[p] = v
        return out

    np.testing.assert_allclose(
        permute(rot, s.apply(psi)), s.apply(permute(rot, psi)), atol=0
    )


def test_matrix_agrees_with_apply_and_is_a_permutation():
    g = build_cycle(4)
    for s in (build_shift(g), build_cycle_shift(4)):
        m = s.matrix()
        assert np.array_equal(np.abs(m) > 0, np.abs(m) == 1)
        assert np.array_equal(m.sum(axis=0), np.ones(8))
        assert np.array_equal(m.sum(axis=1), np.ones(8))
        rng = np.random.default_rng(3)
        psi = random_pure_state(rng, 8)
        np.testing.assert_allclose(s.apply(psi), m @ psi, atol=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_conjugate_matches_matrix_sandwich(seed):
    g = build_cycle(5)
    s = build_shift(g)
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng, 10)
    rho = np.outer(psi, psi.conj())
    m = s.matrix()
    shifted = _from_blocks(s.conjugate_blocks(_to_blocks(rho, 2)))
    assert np.array_equal(shifted, m @ rho @ m.conj().T)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("shift", ["port-swap", "direction-preserving", "torus"])
def test_conjugate_reads_every_layout_exactly(layout, shift):
    rng = np.random.default_rng(5)
    if shift == "port-swap":
        s = build_shift(build_cycle(6))
    elif shift == "direction-preserving":
        s = build_cycle_shift(6)
    else:
        s = build_shift(port_permuted_torus(3, rng))
    dim = s.permutation.size
    full = rng.normal(size=(2 * dim, 2 * dim)) + 1j * rng.normal(size=(2 * dim, 2 * dim))
    rho = {"C": np.ascontiguousarray(full[:dim, :dim]),
           "F": np.asfortranarray(full[:dim, :dim]),
           "strided": full[::2, ::2]}[layout]
    m = s.matrix()
    blocks = _to_blocks(rho, s.degree)
    shifted = s.conjugate_blocks(blocks)
    assert shifted.flags.c_contiguous and not np.shares_memory(shifted, blocks)
    out = _from_blocks(shifted)
    assert np.array_equal(out, m @ rho @ m.conj().T)
    assert np.array_equal(out[s.permutation[:, None], s.permutation], rho)


def test_the_gather_index_is_built_once_and_read_only():
    s = build_cycle_shift(5)
    blocks = _to_blocks(np.eye(10, dtype=complex), 2)
    s.conjugate_blocks(blocks)
    index = s._block_index
    assert not index.flags.writeable
    assert index.shape == (5 ** 2, 2 ** 2) and index.nbytes == 8 * 10 ** 2
    s.conjugate_blocks(blocks)
    assert s._block_index is index


def test_cycle_shift_rejects_bad_arguments():
    with pytest.raises(StructureError):
        build_cycle_shift(2)
    with pytest.raises(StructureError):
        build_cycle_shift(5, direction=0)
