"""Coin blocks: the block-diagonal coin, one d x d block or an (N, d, d) stack.

The coin acts independently at each vertex: vertex j carries a unitary
on its d_j used ports, embedded into the d x d coin block with zero
rows and columns at unused ports. A coin is given in one of two forms:
one 2-D array, the block every vertex shares (the graph must then be
regular), or a sequence of one block per vertex; embedded_blocks keeps
that form. A config names a coin by type, and the phase of a hadamard
coin is the config's phi alone.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, StructureError
from .graph import PortGraph
from .state import DEFAULT_TOLERANCES

__all__ = [
    "coin_spec_from_config",
    "default_coin_spec",
    "default_coin_type",
    "dft_coin",
    "embedded_blocks",
    "hadamard_phi",
]

# a coin: the one 2-D block every vertex shares, or one block per vertex
Coin = np.ndarray | Sequence[np.ndarray]
# the phase of a hadamard coin whose config sets no phi: the real Hadamard matrix
DEFAULT_PHI = math.pi / 2


def hadamard_phi(phi: float) -> np.ndarray:
    """Two-sided coin with a tunable relative phase.

    Parameters
    ----------
    phi : float
        Phase angle in radians. phi = pi/2 gives the standard real
        Hadamard matrix.

    Returns
    -------
    ndarray
        The 2 x 2 unitary
        (1/sqrt(2)) [[1, -i e^{i phi}], [i e^{-i phi}, -1]].
    """
    return np.array(
        [
            [1.0, -1j * cmath.exp(1j * phi)],
            [1j * cmath.exp(-1j * phi), -1.0],
        ],
        dtype=complex,
    ) / math.sqrt(2)


def dft_coin(dim: int) -> np.ndarray:
    """Discrete Fourier transform coin, the unbiased choice for any degree.

    Entry (k, k2) is (1/sqrt(dim)) e^{2 pi i k k2 / dim}; every
    transition probability is 1/dim.
    """
    if dim < 1:
        raise ConfigError(f"coin dimension must be positive, got {dim}")
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / math.sqrt(dim)


def _full_degree(graph: PortGraph) -> bool:
    """Whether every vertex has degree d.

    A vertex uses ports 0..d_j-1, so it has full degree exactly when its
    last port is used: one check of the partner array's last column.
    """
    return bool((graph.partner[:, -1] >= 0).all())


def default_coin_type(graph: PortGraph) -> str:
    """The package default coin: "hadamard" when every vertex has degree 2, else "dft"."""
    return "hadamard" if graph.degree == 2 and _full_degree(graph) else "dft"


def default_coin_spec(graph: PortGraph) -> Coin:
    """The package default: hadamard_phi(pi/2) on degree-2 regular graphs,
    otherwise a DFT coin of each vertex's own degree."""
    return coin_spec_from_config({"type": default_coin_type(graph)}, graph)


def _check_block_unitary(block: np.ndarray, where: str) -> None:
    dim = block.shape[0]
    dev = np.max(np.abs(block.conj().T @ block - np.eye(dim))) if dim else 0.0
    if not dev <= DEFAULT_TOLERANCES.unitarity:  # also rejects NaN and Inf entries
        raise StructureError(f"coin block {where} is not unitary (deviation {dev:.3e})")


def embedded_blocks(graph: PortGraph, coin: Coin) -> np.ndarray:
    """Validate a coin against a graph and return it as d x d blocks.

    Each block must be either d_j x d_j (embedded with zero padding) or
    already d x d with exact zeros outside the used-port corner. Anything
    acting on an unused port is rejected. A shared block comes back as
    the one read-only (d, d) block every vertex uses, a per-vertex
    sequence as the (N, d, d) stack. Of a per-vertex sequence, each
    distinct (block object, degree) pair is checked and embedded once; the
    list of blocks keeps every keyed object alive, so no id is reused.
    """
    n, d = graph.num_vertices, graph.degree
    if isinstance(coin, np.ndarray) and coin.ndim == 2:
        if not _full_degree(graph):
            raise StructureError(
                "shared coin block requires every vertex to have full degree"
            )
        full = _embedded(coin, d, d, "shared by every vertex")
        full.flags.writeable = False
        return full
    blocks = list(coin)
    if len(blocks) != n:
        raise StructureError(f"need {n} coin blocks (one per vertex), got {len(blocks)}")
    degrees, embedded, position = graph.vertex_degrees, [], {}
    for j, (block, dj) in enumerate(zip(blocks, degrees)):
        if (id(block), dj) not in position:
            position[id(block), dj] = len(embedded)
            embedded.append(_embedded(np.asarray(block, dtype=complex), dj, d, f"at vertex {j}"))
    return np.stack(embedded)[[position[id(block), dj] for block, dj in zip(blocks, degrees)]]


def _embedded(block: np.ndarray, dj: int, d: int, where: str) -> np.ndarray:
    """Check one coin block for a vertex of degree dj and return it as d x d."""
    if block.shape == (dj, dj):
        _check_block_unitary(block, where)
        full = np.zeros((d, d), dtype=complex)
        full[:dj, :dj] = block
        return full
    if block.shape == (d, d):
        if np.any(block[dj:, :] != 0) or np.any(block[:, dj:] != 0):
            raise StructureError(
                f"coin block {where} (degree {dj}) has nonzero entries "
                f"on unused ports; supply a {dj}x{dj} unitary instead"
            )
        _check_block_unitary(block[:dj, :dj], where)
        return np.array(block, dtype=complex)
    raise StructureError(
        f"coin block {where} has shape {block.shape}; expected ({dj},{dj}) or ({d},{d})"
    )


def _is_number(x) -> bool:
    """Whether x is a finite JSON number: a finite float, or an int, not a bool, that a float holds.

    Python's json reads Infinity, -Infinity and NaN as floats, so a float must be finite too.
    """
    if isinstance(x, float):
        return math.isfinite(x)
    return type(x) is int and abs(x) <= sys.float_info.max


def coin_spec_from_config(config: dict, graph: PortGraph) -> Coin:
    """Parse the coin section of a config dict into a coin.

    Accepted shapes: {"type": "hadamard", "phi": x}, {"type": "dft"},
    {"type": "custom", "blocks": [...]} where each block is a nested
    list of [re, im] pairs, one block per vertex. Every number must be a
    finite JSON number that a float holds; a hadamard coin without a phi
    has phi = pi/2.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"coin config must be a JSON object, got {type(config).__name__}")
    kind = config.get("type")
    if kind == "hadamard":
        if graph.degree != 2 or not _full_degree(graph):
            raise ConfigError("the hadamard coin needs every vertex to have degree 2")
        phi = config.get("phi", DEFAULT_PHI)
        if not _is_number(phi):
            raise ConfigError(f"coin 'phi' must be a finite number, got {phi!r}")
        return hadamard_phi(phi)
    if kind == "dft":
        if _full_degree(graph):
            return dft_coin(graph.degree)
        degrees = graph.vertex_degrees
        dft = {dj: dft_coin(dj) if dj else np.zeros((0, 0)) for dj in set(degrees)}
        return [dft[dj] for dj in degrees]
    if kind == "custom":
        if not isinstance(config.get("blocks"), list):
            raise ConfigError("custom coin config needs a 'blocks' list")
        blocks = []
        for j, raw in enumerate(config["blocks"]):
            try:
                numbers = all(_is_number(x) for row in raw for pair in row for x in pair)
                if numbers:
                    pairs = [[complex(re, im) for re, im in row] for row in raw]
                    blocks.append(np.array(pairs, dtype=complex))
            except (TypeError, ValueError):
                numbers = False
            if not numbers:
                raise ConfigError(
                    f"coin blocks[{j}]: entries must be [re, im] pairs of finite numbers"
                )
        return blocks
    raise ConfigError(f"unknown coin type {kind!r}; use hadamard, dft, or custom")
