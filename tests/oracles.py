"""Reference forms that tests hold the package's structured code to.

The walk applies its coin as an (N, d, d) block stack and its coin
measurement as an (m, d) array of Kraus diagonals. block_diagonal,
build_coin_operator and apply_kraus build the same maps as dense
matrices with explicit loops. loop_enumerate_branches expands the
measurement branches one at a time in nested Python loops; the batched
step of enumerate_branches must equal it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from coinwalk import evolution
from coinwalk.coin import embedded_blocks
from coinwalk.errors import ConfigError


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
