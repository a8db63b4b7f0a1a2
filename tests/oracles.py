"""Dense reference forms of the coin and of the coin measurement channel.

The walk applies its coin as an (N, d, d) block stack and its coin
measurement as an (m, d) array of Kraus diagonals. These functions
build the same maps as dense matrices with explicit loops, so tests can
hold the structured forms to them.
"""

from __future__ import annotations

import numpy as np

from coinwalk.coin import embedded_blocks


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
