"""Conditional shift operators: port-swapping and direction-preserving."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructureError
from .graph import PortGraph

__all__ = ["ShiftOperator", "build_shift", "build_cycle_shift"]


@dataclass(frozen=True)
class ShiftOperator:
    """A permutation of the (vertex, port) basis.

    permutation[old_flat] = new_flat over the joint space; unused ports
    map to themselves and never carry amplitude. kind records which
    convention built it, for output metadata, and degree is the number
    of ports per vertex.
    """

    permutation: np.ndarray
    kind: str
    degree: int

    @property
    def num_vertices(self) -> int:
        return self.permutation.size // self.degree

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[new_flat] = old_flat, the permutation as a gather index."""
        inverse = np.empty_like(self.permutation)
        inverse[self.permutation] = np.arange(self.permutation.size)
        return inverse

    @cached_property
    def _block_index(self) -> np.ndarray:
        """conjugate_blocks' read-only (N^2, d^2) flat index, 8 (N d)^2 bytes, built on first use.

        Block (i', j') entry (a', b') reads block (i, j) entry (a, b), where
        (i, a) and (j, b) are the vertex and port of inverse[i' d + a'] and
        inverse[j' d + b'].
        """
        n, d = self.num_vertices, self.degree
        vertex, port = np.divmod(self.inverse.reshape(n, d), d)
        # rows[i', a' d + b'] and cols[j', a' d + b'] are the parts of the flat
        # index that (i', a') and (j', b') give, laid out as the block's entries
        rows = np.repeat(vertex * (n * d * d) + port * d, d, axis=1)
        cols = np.tile(vertex * (d * d) + port, d)
        index = (rows[:, None] + cols).reshape(n * n, d * d)
        index.flags.writeable = False
        return index

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """S psi, for one state or for each row of a stack of states."""
        return psi.take(self.inverse, axis=-1)

    def conjugate_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """S rho S^dagger on rho held as its vertex-pair blocks, as one gather.

        blocks is C-ordered with shape (N^2, d^2): row i N + j holds rho's
        (i, j) block of d x d coin entries, flattened row-major. The result
        is a new array of the same form whose bits are rho's.
        """
        return blocks.ravel()[self._block_index]

    def matrix(self) -> np.ndarray:
        """The dense (N d) x (N d) permutation matrix, an oracle the walk never builds."""
        dim = self.permutation.size
        mat = np.zeros((dim, dim), dtype=complex)
        mat[self.permutation, np.arange(dim)] = 1.0
        return mat


def build_shift(graph: PortGraph) -> ShiftOperator:
    """Port-swapping shift: send (j, k) to the other end of its edge.

    This is the graph's partner array with each unused port mapped to
    itself. Self-inverse by construction, because the edge-end pairing
    is an involution.
    """
    flat = graph.partner.ravel()
    perm = np.where(flat >= 0, flat, np.arange(flat.size))
    return ShiftOperator(perm, "port-swap", graph.degree)


def build_cycle_shift(num_vertices: int, direction: int = 1) -> ShiftOperator:
    """Direction-preserving shift on the cycle.

    Coin state 0 moves the walker one vertex along increasing index and
    coin state 1 moves it back, with the coin left untouched; the
    operator translates rather than reflects, so it is not self-inverse.
    Pass direction=-1 for the mirrored convention (coin 0 moves toward
    decreasing index).
    """
    if num_vertices < 3:
        raise StructureError(f"cycle needs at least 3 vertices (got {num_vertices})")
    if direction not in (1, -1):
        raise StructureError(f"direction must be +1 or -1, got {direction}")
    n, j = num_vertices, np.arange(num_vertices)
    perm = np.stack([(j + direction) % n * 2, (j - direction) % n * 2 + 1], axis=1).ravel()
    kind = "direction-preserving" if direction == 1 else "direction-preserving-reversed"
    return ShiftOperator(perm, kind, 2)
