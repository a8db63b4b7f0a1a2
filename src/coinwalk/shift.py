"""Conditional shift operators: port-swapping and direction-preserving."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError, _is_integer
from .graph import PortGraph

__all__ = ["ShiftOperator", "build_shift", "build_cycle_shift"]


@dataclass(frozen=True)
class ShiftOperator:
    """A permutation of the (vertex, port) basis.

    permutation[old_flat] = new_flat over the joint space; unused ports
    map to themselves and never carry amplitude. kind records which
    convention built it, for output metadata, and degree is the number
    of ports per vertex. It is plain data: every walk shifts its states
    through gathers that evolution builds from the permutation.
    """

    permutation: np.ndarray
    kind: str
    degree: int

    @property
    def num_vertices(self) -> int:
        return self.permutation.size // self.degree

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
    if not (_is_integer(num_vertices) and num_vertices >= 3):
        raise StructureError(
            f"cycle needs an integer of at least 3 vertices, got {num_vertices!r}"
        )
    if not (_is_integer(direction) and direction in (1, -1)):
        raise StructureError(f"direction must be the integer +1 or -1, got {direction!r}")
    n, j = num_vertices, np.arange(num_vertices)
    perm = np.stack([(j + direction) % n * 2, (j - direction) % n * 2 + 1], axis=1).ravel()
    kind = "direction-preserving" if direction == 1 else "direction-preserving-reversed"
    return ShiftOperator(perm, kind, 2)
