"""Reference forms that tests hold the package's structured code to.

The walk applies its coin as an (N, d, d) block stack and its coin
measurement as an (m, d) array of Kraus diagonals. block_diagonal,
build_coin_operator and apply_kraus build the same maps as dense
matrices with explicit loops. loop_enumerate_branches expands the
measurement branches one at a time in nested Python loops over the whole
graph; the batched step of enumerate_branches, on the sides of the light
cone, must equal it bit for bit. shifted is the shift as a scatter of
each amplitude to its port's image, so that no oracle runs the gather it
checks. whole_graph stands in for
evolution._light_cone where a test walks the whole graph as one side.
per_vertex_apply_coin is the coin toss as it was before a shared block
was one matrix product: one matrix-vector product per (row, vertex)
pair, whatever form the coin is in, a shared block broadcast over the
vertices.
add_at_classical_step and loop_compare_mixing are the classical step
and the mixing race as they were before the race built its arrays once:
the chain adds with an unbuffered np.add.at, the walk is evolved over
the whole graph, and each curve is scored by tvd. classical_step,
classical_run and compare_mixing must equal them bit for bit.
scatter_cp_step is the density step on the matrix as it was before the
walk held vertex-pair blocks and the shift became a gather: the shift
scatters the transposed tossed state through np.ix_, and each Schur
product saves and restores the same-vertex blocks by fancy indexing;
cp_step sums in another order and must stay within 64 eps of it.
state_marginal is the position distribution of a state evolve yields,
read from the matrix.
half_edge_step and half_edge_run are the port-resolved chain that a
fully measured walk follows; check_density, coherence_l1,
conditional_meter_states and trace_distance are the density-matrix,
visibility and which-path checks the walk's states are held to.
"""

from __future__ import annotations

import math

import numpy as np

from coinwalk import build_meter_unitary, evolution
from coinwalk.analysis import MixingComparison, MixingCurve, first_crossing, tvd
from coinwalk.classical import uniform_distribution
from coinwalk.coin import embedded_blocks
from coinwalk.errors import ConfigError, InvariantViolation
from coinwalk.state import (
    _squared_moduli,
    check_trace,
    position_marginal,
    pure_position_marginal,
)

# the bounds of check_density's two checks that the package never makes
HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10


def block_diagonal(blocks) -> np.ndarray:
    """Dense (N d) x (N d) matrix with the N given d x d blocks on its diagonal."""
    n = len(blocks)
    d = blocks[0].shape[0]
    op = np.zeros((n * d, n * d), dtype=complex)
    for j, block in enumerate(blocks):
        op[j * d: (j + 1) * d, j * d: (j + 1) * d] = block
    return op


def per_vertex_apply_coin(coin, psi) -> np.ndarray:
    """evolution._apply_coin with every coin taken as per-vertex blocks."""
    d = coin.shape[-1]
    n = psi.shape[-1] // d
    coin = np.broadcast_to(coin, (n, d, d))
    return (coin @ psi.reshape(-1, n, d, 1)).reshape(psi.shape)


def build_coin_operator(graph, spec) -> np.ndarray:
    """The full coin operator on the joint space, as a dense (N d) x (N d) matrix.

    It is block diagonal over vertices and unitary on the used subspace;
    rows and columns belonging to unused ports are identically zero.
    """
    blocks = embedded_blocks(graph, spec)
    return block_diagonal(np.broadcast_to(blocks, (graph.num_vertices, *blocks.shape[-2:])))


def apply_kraus(rho: np.ndarray, diagonals) -> np.ndarray:
    """Sum_i K_i rho K_i^dagger, with K_i the diagonal matrix of row i of diagonals."""
    out = np.zeros_like(rho, dtype=complex)
    for k in diagonals:
        op = np.diag(k)
        out += op @ rho @ op.conj().T
    return out


def shifted(shift, psi) -> np.ndarray:
    """S psi by scatter: the amplitude at flat port q moves to shift.permutation[q]."""
    out = np.empty_like(psi)
    out[..., shift.permutation] = psi
    return out


def whole_graph(psi0, step, steps):
    """evolution._light_cone as if every walk reached every vertex: the whole graph as one side."""
    return evolution._Sides(step, (np.arange(step.shift.num_vertices),))


def loop_enumerate_branches(psi0, step, steps, prune=1e-18):
    """enumerate_branches, one branch and one outcome at a time, over the whole graph.

    Each branch's coin-tossed state gives every Kraus branch at once with
    its Born weight; a child whose probability is at least prune is
    renormalized and shifted through the step as given.
    """
    evolution._require_unravelable(step)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    diagonals = step.coin_kraus
    m, d = diagonals.shape
    kraus_sq = _squared_moduli(diagonals)
    branches = [(1.0, psi0, ())]
    for _ in range(steps):
        grown = []
        for weight, psi, history in branches:
            phi = evolution._apply_coin(step.coin, psi)
            children = (diagonals[:, None, :] * phi.reshape(-1, d)).reshape(m, -1)
            masses = evolution._coin_masses(phi.reshape(-1, 1, d))  # a one-state block
            weights = evolution._born_weights(masses, kraus_sq)[0]
            evolution._check_branch_sums(weights.sum(keepdims=True))
            for i, (child, w) in enumerate(zip(children, weights)):
                w = float(w)
                if weight * w < prune:
                    continue
                grown.append((weight * w, shifted(step.shift, child / math.sqrt(w)), history + (i,)))
        branches = grown
    return branches


def _scatter_schur(rho, coin_mask, p):
    """Scale rho[(i, a), (j, b)] by coin_mask[a, b], and by (1 - p) when i != j."""
    d = coin_mask.shape[0]
    n = rho.shape[0] // d
    rho4 = rho.reshape(n, d, n, d)
    v = np.arange(n)
    same_vertex = rho4[v, :, v, :] * coin_mask
    rho4 *= (1.0 - p) * coin_mask[:, None, :]
    rho4[v, :, v, :] = same_vertex
    return rho4.reshape(rho.shape)


def scatter_cp_step(rho, step):
    """cp_step with the shift as an np.ix_ scatter of the transposed tossed state."""
    n, d = step.shift.num_vertices, step.shift.degree
    p = step.vertex_dephasing
    p_before = p if step.placement == "before-shift" else 0.0
    out = (step.coin @ rho.reshape(n, d, -1)).reshape(rho.shape).T
    out = (step.coin.conj() @ out.reshape(n, d, -1)).reshape(rho.shape)
    if step.coin_kraus is not None or p_before > 0.0:
        k = step.coin_kraus
        mask = np.ones((d, d)) if k is None else k.T @ k.conj()
        out = _scatter_schur(out, mask.T, p_before)
    src = out.T
    out = np.empty_like(src)
    out[np.ix_(step.shift.permutation, step.shift.permutation)] = src
    if p > 0.0 and step.placement == "after-shift":
        out = _scatter_schur(out, np.ones((d, d)), p)
    return out


def state_marginal(state, step):
    """Position distribution of a state evolve yields for this step, pure or density matrix."""
    if step.is_unitary:
        return pure_position_marginal(state, step.shift.degree)
    return position_marginal(state, step.shift.degree)


def add_at_classical_step(p, graph):
    """classical_step with its arrays rebuilt per call and np.add.at in half_edges order."""
    p = np.asarray(p, dtype=float)
    n, d = graph.partner.shape
    src, dst = graph.half_edges
    j = src // d
    degrees = np.bincount(j, minlength=n)
    out = np.zeros_like(p)
    np.add.at(out, dst // d, p[j] / degrees[j])
    isolated = degrees == 0
    out[isolated] += p[isolated]
    return out


def loop_compare_mixing(graph, step, psi0, t_max, epsilon):
    """compare_mixing with one whole-graph marginal, one chain step and two tvd calls per time."""
    n = graph.num_vertices
    uniform = uniform_distribution(n)
    quantum_tvd, classical_tvd = [], []
    running_sum = np.zeros(n)
    p = pure_position_marginal(psi0, graph.degree)
    for t, state in enumerate(evolution.evolve(psi0, step, t_max)):
        marginal = state_marginal(state, step)
        if t:
            p = add_at_classical_step(p, graph)
        running_sum += marginal
        quantum_tvd.append(tvd(running_sum / (t + 1), uniform))
        classical_tvd.append(tvd(p, uniform))
    times = tuple(range(t_max + 1))
    quantum = MixingCurve(times, tuple(quantum_tvd), "time-averaged")
    classical = MixingCurve(times, tuple(classical_tvd), "instantaneous")
    qc, cc = first_crossing(quantum, epsilon), first_crossing(classical, epsilon)
    if qc is None and cc is None:
        first = "neither"
    elif cc is None or (qc is not None and qc < cc):
        first = "quantum"
    elif qc is None or cc < qc:
        first = "classical"
    else:
        first = "tie"
    return MixingComparison(quantum, classical, qc, cc, first)


def half_edge_step(q, graph, transitions):
    """One step of the port-resolved chain that a fully measured walk follows.

    q holds one occupation per (vertex, port), flattened vertex-major.
    The coin toss redistributes over ports with one transition matrix per
    vertex, entry (k, k2) being |coin[k, k2]|^2 for a measured coin (a
    reduced-degree matrix acts on the used ports), then the walker
    crosses its chosen edge. Marginalizing the unbiased version over
    ports gives classical_step.
    """
    n, d = graph.num_vertices, graph.degree
    q = np.asarray(q, dtype=float).reshape(n, d)
    tossed = np.zeros_like(q)
    for j, t in enumerate(transitions):
        tossed[j, :len(t)] = t @ q[j, :len(t)]
    src, dst = graph.half_edges
    out = np.zeros(n * d)
    out[dst] = tossed.flat[src]
    return out


def half_edge_run(q0, graph, transitions, steps):
    q = np.asarray(q0, dtype=float)
    for _ in range(steps):
        q = half_edge_step(q, graph, transitions)
    return q


def check_density(rho):
    """Hermiticity and positivity within the bounds above, and check_trace."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= HERMITICITY_TOL:
        raise InvariantViolation(f"density matrix not Hermitian: deviation {herm:.3e}")
    check_trace(rho)
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if not lo >= -EIGENVALUE_TOL:
        raise InvariantViolation(f"density matrix has eigenvalue {lo:.3e} below 0")


def coherence_l1(rho) -> float:
    """Sum of absolute off-diagonal elements, zero exactly for diagonal states."""
    rho = np.asarray(rho)
    return float(np.sum(np.abs(rho)) - np.sum(np.abs(np.diagonal(rho))))


def conditional_meter_states(beta):
    """Meter states after the coupling, given coin |0> or |1> and the meter in |0>.

    Their trace distance is the which-path distinguishability (Englert,
    PRL 77, 2154 (1996)): orthogonal at beta=1, identical at beta=0.
    """
    w = build_meter_unitary(beta).matrix
    states = []
    for coin_index in (0, 1):
        out = w[:, coin_index * 2].reshape(2, 2)  # (coin basis) (x) |0>_m
        leak = np.linalg.norm(out[1 - coin_index])
        assert leak <= 1e-12, f"coupling leaked {leak:.3e} across coin states"
        states.append(out[coin_index])
    return states[0], states[1]


def trace_distance(rho, sigma) -> float:
    """Half the sum of absolute eigenvalues of the (Hermitian) difference."""
    eigs = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return 0.5 * float(np.sum(np.abs(eigs)))
