"""Reference forms that tests hold the package's structured code to.

The walk applies its coin as an (N, d, d) block stack and its coin
measurement as an (m, d) array of Kraus diagonals. block_diagonal,
build_coin_operator and apply_kraus build the same maps as dense
matrices with explicit loops. loop_enumerate_branches expands the
measurement branches one at a time in nested Python loops; the batched
step of enumerate_branches must equal it bit for bit.
add_at_classical_step and loop_compare_mixing are the classical step
and the mixing race as they were before the race built its arrays once:
the chain adds with an unbuffered np.add.at, every marginal is put in
place among N zeros, and each curve is scored by tvd. classical_step,
classical_run and compare_mixing must equal them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from coinwalk import evolution
from coinwalk.analysis import MixingComparison, MixingCurve, first_crossing, tvd
from coinwalk.classical import uniform_distribution
from coinwalk.coin import embedded_blocks
from coinwalk.errors import ConfigError
from coinwalk.state import pure_position_marginal


def block_diagonal(blocks) -> np.ndarray:
    """Dense (N d) x (N d) matrix with the N given d x d blocks on its diagonal."""
    n = len(blocks)
    d = blocks[0].shape[0]
    op = np.zeros((n * d, n * d), dtype=complex)
    for j, block in enumerate(blocks):
        op[j * d: (j + 1) * d, j * d: (j + 1) * d] = block
    return op


def build_coin_operator(graph, spec) -> np.ndarray:
    """The full coin operator on the joint space, as a dense (N d) x (N d) matrix.

    It is block diagonal over vertices and unitary on the used subspace;
    rows and columns belonging to unused ports are identically zero.
    """
    return block_diagonal(embedded_blocks(graph, spec))


def apply_kraus(rho: np.ndarray, diagonals) -> np.ndarray:
    """Sum_i K_i rho K_i^dagger, with K_i the diagonal matrix of row i of diagonals."""
    out = np.zeros_like(rho, dtype=complex)
    for k in diagonals:
        op = np.diag(k)
        out += op @ rho @ op.conj().T
    return out


def loop_enumerate_branches(psi0, step, steps, prune=1e-18):
    """enumerate_branches, one branch and one outcome at a time.

    Each branch's coin-tossed state gives every Kraus branch at once with
    its Born weight; a child whose probability is at least prune is
    renormalized and shifted. It reads evolution._light_cone at call
    time, so patching that function patches this oracle too.
    """
    evolution._require_unravelable(step, steps)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    cone_psi0, cone_step, cone = evolution._light_cone(psi0, step, steps)
    diagonals = step.coin_kraus
    m, d = diagonals.shape
    kraus_sq = evolution._squared_moduli(diagonals)
    branches = [(1.0, cone_psi0, ())]
    for _ in range(steps):
        grown = []
        for weight, psi, history in branches:
            phi = evolution._apply_coin(cone_step.coin, psi)
            children = (diagonals[:, None, :] * phi.reshape(-1, d)).reshape(m, -1)
            weights = evolution._born_weights(evolution._coin_masses(phi[None], d), kraus_sq)[0]
            evolution._check_branch_sums(weights.sum(keepdims=True))
            for i, (child, w) in enumerate(zip(children, weights)):
                w = float(w)
                if weight * w < prune:
                    continue
                grown.append(
                    (weight * w, cone_step.shift.apply(child / math.sqrt(w)), history + (i,))
                )
        branches = grown
    ports = evolution._cone_ports(cone, d)
    return [(w, evolution._in_place(psi, ports, psi0.size), history)
            for w, psi, history in branches]


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
    """compare_mixing with one full-length marginal, one chain step and two tvd calls per time."""
    n = graph.num_vertices
    uniform = uniform_distribution(n)
    quantum_tvd, classical_tvd = [], []
    running_sum = np.zeros(n)
    p = pure_position_marginal(psi0, graph.degree)
    cone_psi0, cone_step, vertices = evolution._light_cone(psi0, step, t_max)
    for t, state in enumerate(evolution.evolve(cone_psi0, cone_step, t_max)):
        marginal = np.zeros(n)
        marginal[vertices] = evolution._marginal(state, cone_step)
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
