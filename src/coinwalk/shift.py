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
    convention built it, for output metadata.
    """

    permutation: np.ndarray
    kind: str
    num_vertices: int
    degree: int

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[new_flat] = old_flat, the permutation as a gather index."""
        inverse = np.empty_like(self.permutation)
        inverse[self.permutation] = np.arange(self.permutation.size)
        return inverse

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """S psi, for one state or for each row of a stack of states."""
        return psi.take(self.inverse, axis=-1)

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """S rho S^dagger for a permutation S, done by reindexing."""
        out = np.empty_like(rho)
        out[np.ix_(self.permutation, self.permutation)] = rho
        return out

    def matrix(self) -> np.ndarray:
        dim = self.permutation.size
        mat = np.zeros((dim, dim), dtype=complex)
        mat[self.permutation, np.arange(dim)] = 1.0
        return mat


def build_shift(graph: PortGraph) -> ShiftOperator:
    """Port-swapping shift: send (j, k) to the other end of its edge.

    Self-inverse by construction, because the edge-end pairing is an
    involution.
    """
    n, d = graph.num_vertices, graph.degree
    perm = np.arange(n * d)
    src, dst = graph.half_edges
    perm[src] = dst
    return ShiftOperator(perm, "port-swap", n, d)


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
    n, d = num_vertices, 2
    perm = np.arange(n * d)
    for j in range(n):
        perm[j * d + 0] = ((j + direction) % n) * d + 0
        perm[j * d + 1] = ((j - direction) % n) * d + 1
    kind = "direction-preserving" if direction == 1 else "direction-preserving-reversed"
    return ShiftOperator(perm, kind, n, d)
