"""Walk evolution: step composition, density runs, and trajectory sampling.

A single time step applies, in order: the coin unitary, the coin
measurement channel (when a measurement strength is configured),
optional dephasing between vertices, and the shift. The vertex
dephasing may instead be placed after the shift; both orders are
conventions and the choice is recorded with every run.

Every part of the step is applied in its structured form. The coin is
one d x d block that every vertex shares, or a stack of per-vertex
blocks, and the coin measurement is the (m, d) array of its Kraus
diagonals. On a pure state, or on the rows of a stack of them, a shared
block tosses all the (row, vertex) pairs of d amplitudes in one matrix
product, per-vertex blocks are one batched product, and each Kraus
operator is an elementwise product.

A density walk holds rho as its vertex-pair blocks, an (N^2, d^2) array
whose row i N + j is rho's (i, j) block flattened. The coin, the coin
measurement and vertex dephasing act on each block alone, as one
d^2 x d^2 superoperator on the coin space (Brun, Carteret and Ambainis,
PRA 67, 032304): for a shared coin the whole local channel is one matrix
product of all the blocks, for a stacked coin one batched product over
the block columns and one over the block rows. Before-shift dephasing
is folded into that factor, and the N same-vertex blocks are taken
again by the unscaled one. The shift is one gather through a cached
block index of 8 (N d)^2 bytes, and after-shift dephasing scales the
blocks between different vertices. The trace check and the position
distribution are read off the same-vertex blocks' diagonals. cp_step,
evolve and run take and give density matrices, converting at their
boundary. The dense (N*d) x (N*d) forms, assembled_step_operators,
vertex_dephasing and ShiftOperator.matrix, are never called by the walk;
they stay public because the benchmark checks the CLI's output with them.

A walk of t steps only reaches the vertices within t shifts of psi0's
support, its light cone. run, marginal_history and the marginals that
analysis reads evolve the walk on that cone alone and put the result
back in place, so their memory and time scale with the cone rather
than with N. evolve and cp_step walk the whole graph as one side, whose
gathers each StepMap builds once; evolve, cp_step and unitary_step
always act on the states they are given.

_light_cone grows the cone breadth first and labels each vertex by the
parity of the step that first reaches it. On the line of the paper's
quincunx, and on any bipartite graph, the walker at time t stands only
on vertices of t's parity. When every move between two cone vertices
joins the two parity classes, and each class holds at least two
vertices, the cone has these two sides (_Sides); any other cone,
self-loops and unused ports included, is one side. A walk holds only
the side it stands on, its ports, its vertex-pair blocks (a quarter of
the cone's on a cone of two equal sides) or its rows of a sampler block.
A step tosses the side by its own vertices' coin blocks, a shared block
staying the one block, and is one gather, built from the step's own
shift, from that side into the next, in which a port at the cone's
boundary whose source lies off the side reads an exact zero. One side
and two run the same code. Every output number is a GEMM row of one
vertex or vertex pair, a sum over vertices in vertex order, to which an
omitted vertex would add an exact zero, or a gather of such zeros, so
the sides give the whole graph's bits.

Trajectories run on the sides of the light cone as well, through one
generator, _unravel, that advances a vertex-major (side vertex, sample,
coin) block of states with the same coin product, one GEMM row per
(vertex, sample) pair: the sampler's states are samples, the
enumerator's every live branch. A Born weight is taken from the
per-coin masses of the tossed states, each added up one vertex at a
time (BORN_WEIGHT_RULE), one sum over the vertex axis across all the
block's lanes; so a vertex without amplitude changes no weight, and the
records on the cone are those of the whole graph bit for bit. A drawn
branch is a product with its Kraus diagonal and a scaling by
1 / sqrt(weight), in place, and the shift one gather back into the
block. The block is converted only where it enters and leaves the
sampler and the enumerator, and a state leaves the cone only where a
caller takes it. Every walk checks its step count and start state where
it starts, in _light_cone and at evolve's start.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .coin import Coin, default_coin_spec, embedded_blocks
from .errors import (
    ConfigError,
    InvariantViolation,
    StructureError,
    _check_count,
    _is_integer,
)
from .graph import PortGraph
from .meter import dephasing_kraus, uniform_dephasing_kraus
from .shift import ShiftOperator, build_shift
from .state import (
    DEFAULT_TOLERANCES,
    _check_unit_trace,
    _clamped_marginal,
    _squared_moduli,
    check_pure,
    pure_position_marginal,
    to_density,
)

__all__ = [
    "StepMap",
    "TrajectoryRecord",
    "assembled_step_operators",
    "cp_step",
    "enumerate_branches",
    "evolve",
    "make_step",
    "marginal_history",
    "run",
    "sample_trajectories",
    "sample_trajectory",
    "unitary_step",
    "vertex_dephasing",
    "walker_paths",
]

PLACEMENTS = ("before-shift", "after-shift")
# live amplitudes of one block of samples that sample_trajectories
# advances together: 64 samples of a walk whose light cone has two sides
# of 128 ports, as the 8x8 torus's has, or 32 on a one-sided cone of 256
# ports. A block step holds the block twice, as the state and as its
# toss, and once more as its gather index.
SAMPLE_BLOCK_AMPLITUDES = 8192
# entries beside the summed axis below which _sum_rows_in_order keeps a
# running sum: np.add.reduce over so few lanes is slower, and over one
# lane it sums pairwise
_FEW_LANES = 4
# how a trajectory's Born weights are computed, named in its sidecar
BORN_WEIGHT_RULE = (
    "||K_i phi||^2 = sum over coin index a, in order, of |k_i[a]|^2 times "
    "the mass of phi at coin a, its re^2 + im^2 summed over the vertices "
    "one at a time in vertex order"
)


@dataclass(frozen=True)
class StepMap:
    """Everything needed to take the walk one time step.

    coin is as coin.embedded_blocks returns it: the (d, d) block every
    vertex shares, or the (N, d, d) stack of per-vertex blocks. The map
    is plain data, so a pickled or copied step walks as the original does.
    coin_kraus is the (m, d) array of the coin measurement's Kraus
    diagonals, row i the diagonal of K_i in the coin basis, or None
    without a measurement. vertex_dephasing lies in [0, 1], and placement
    is one of PLACEMENTS; every field is checked however the map is built.
    """

    coin: np.ndarray
    shift: ShiftOperator
    coin_kraus: np.ndarray | None = None
    vertex_dephasing: float = 0.0
    placement: str = "before-shift"

    def __post_init__(self) -> None:
        n, d = self.shift.num_vertices, self.shift.degree
        if np.shape(self.coin) not in ((d, d), (n, d, d)):
            raise StructureError(
                f"coin must be the shared ({d}, {d}) block or the ({n}, {d}, {d}) "
                f"stack of vertex blocks, got shape {np.shape(self.coin)}"
            )
        k = self.coin_kraus
        if k is not None and (np.shape(k)[1:] != (d,) or len(k) == 0):
            raise StructureError(
                f"coin Kraus diagonals must be an (m, {d}) array with m >= 1, "
                f"got shape {np.shape(k)}"
            )
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if not 0.0 <= self.vertex_dephasing <= 1.0:  # also rejects NaN
            raise ConfigError(
                f"vertex dephasing strength must lie in [0, 1], got {self.vertex_dephasing}"
            )

    @property
    def is_unitary(self) -> bool:
        return self.coin_kraus is None and self.vertex_dephasing == 0.0

    @cached_property
    def _block_factors(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """_toss_blocks' right factors on the (N^2, d^2) blocks, as _block_factors gives them."""
        return _block_factors(self.coin, self.coin_kraus, self.vertex_dephasing, self.placement)

    @cached_property
    def _whole(self) -> _Sides:
        """The whole graph as one side, which evolve and cp_step walk, with its gathers."""
        return _Sides(self, (np.arange(self.shift.num_vertices),))


def _block_factors(
    coin: np.ndarray, kraus: np.ndarray | None, vertex_p: float, placement: str
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """_toss_blocks' right factors (first, second, same_vertex) for a coin in either form.

    A block X of rho, flattened row-major, is taken by the coin and the
    coin measurement to mask * (C_i X C_j^dagger), with mask[a, b] =
    sum_m k_m[a] conj(k_m[b]), all ones without a measurement. For a
    shared coin this is E = mask * (C kron conj(C)) on every block:
    first is E^T and second is None. For a stacked coin of n blocks,
    first is the (n, d^2, d^2) stack of (I kron conj(C_j))^T, taken by
    block column j, and second that of (mask * (C_i kron I))^T, taken by
    block row i. Before-shift dephasing scales first by (1 - p), and
    same_vertex is then the unscaled first, which the same-vertex blocks
    take; otherwise it is None. Each factor is held in _superoperator's
    real form.
    """
    d = coin.shape[-1]
    mask = np.ones((d, d)) if kraus is None else kraus.T @ kraus.conj()
    if coin.ndim == 2:
        first, second = _superoperator(coin, coin, mask), None
    else:
        eye = np.eye(d)
        first = _superoperator(eye, coin, np.ones((d, d)))
        second = _superoperator(coin, eye, mask)
    if placement == "after-shift" or vertex_p == 0.0:
        return first, second, None
    return (1.0 - vertex_p) * first, second, first


def _superoperator(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(mask * (a kron conj(b)))^T in the real form that _toss_blocks multiplies by.

    For X a row of d x d blocks flattened row-major, X @ (mask * (a kron
    conj(b)))^T is mask * (a X b^dagger). The complex (d^2, d^2) factor F
    is returned as the real (2 d^2, 2 d^2) matrix that takes X's
    interleaved (re, im) floats to those of X @ F: numpy's complex matmul
    of such thin products took 1.8 to 3 times as long as the real one. a or b
    may be an (N, d, d) stack, and the result is then a stack too.
    """
    d = mask.shape[0]
    e = a[..., :, None, :, None] * b.conj()[..., None, :, None, :] * mask[:, :, None, None]
    f = e.reshape(*e.shape[:-4], d * d, d * d).swapaxes(-1, -2)
    real = np.empty((*f.shape[:-2], d * d, 2, d * d, 2))
    real[..., 0, :, 0] = real[..., 1, :, 1] = f.real
    real[..., 0, :, 1] = f.imag
    real[..., 1, :, 0] = -f.imag
    return real.reshape(*f.shape[:-2], 2 * d * d, 2 * d * d)


def make_step(
    graph: PortGraph,
    coin_spec: Coin | None = None,
    shift: ShiftOperator | None = None,
    beta: float = 0.0,
    vertex_p: float = 0.0,
    placement: str = "before-shift",
) -> StepMap:
    """Assemble a StepMap with the package defaults filled in.

    coin_spec is a coin in either form that coin.embedded_blocks takes,
    by default default_coin_spec(graph). With beta > 0 the coin
    measurement's Kraus diagonals are attached, as _coin_kraus picks them.
    """
    kraus = _coin_kraus(beta, graph.degree)
    coin = coin_spec if coin_spec is not None else default_coin_spec(graph)
    blocks = embedded_blocks(graph, coin)
    shift_op = shift if shift is not None else build_shift(graph)
    return StepMap(blocks, shift_op, kraus, vertex_p, placement)


def _coin_kraus(beta: float, degree: int) -> np.ndarray | None:
    """The coin measurement's Kraus diagonals at strength beta, None at beta = 0.

    The two-outcome meter pair when the coin is two-sided, the uniform
    dephasing family otherwise; both reject a beta outside [0, 1], NaN too.
    """
    if beta == 0.0:
        return None
    if degree == 2:
        return dephasing_kraus(beta)
    return uniform_dephasing_kraus(beta, degree)


# ----------------------------------------------------------------------
# structured pieces of a step

def _apply_coin(coin: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The coin on a pure state, on each row of an (S, N*d) stack of them, or on a block.

    A block is a vertex-major (N, S, d) array of S states, entry [j, s, a]
    the amplitude of state s at vertex j and coin a. Each (state, vertex)
    pair of d amplitudes is tossed by its vertex's block. A shared (d, d)
    block tosses all the pairs in one matrix product, psi.reshape(-1, d) @
    block.T, in which each output pair depends on its own amplitudes only:
    the bits do not depend on how many samples or vertices are tossed
    together, or in which order, as long as there are at least two pairs
    (numpy hands a one-row product to gemv, which rounds otherwise).
    Per-vertex blocks are one batched product, a matrix-vector product per
    pair, in either layout.
    """
    d = coin.shape[-1]
    if coin.ndim == 2:
        return (psi.reshape(-1, d) @ coin.T).reshape(psi.shape)
    if psi.ndim == 3:
        return (coin[:, None] @ psi[..., None]).reshape(psi.shape)
    return (coin @ psi.reshape(-1, coin.shape[0], d, 1)).reshape(psi.shape)


def _to_blocks(rho: np.ndarray, degree: int) -> np.ndarray:
    """rho as its (N^2, d^2) vertex-pair blocks: row i N + j holds block (i, j), row-major."""
    n = rho.shape[0] // degree
    return rho.reshape(n, degree, n, degree).swapaxes(1, 2).reshape(n * n, degree * degree)


def _pure_blocks(psi: np.ndarray, degree: int) -> np.ndarray:
    """The vertex-pair blocks of psi's density matrix, bit for bit _to_blocks(to_density(psi))."""
    n = psi.size // degree
    amplitudes = np.asarray(psi, dtype=complex).reshape(n, degree)
    rows = np.repeat(amplitudes, degree, axis=1)
    cols = np.tile(amplitudes.conj(), degree)
    return (rows[:, None] * cols).reshape(n * n, degree * degree)


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The C-ordered density matrix whose vertex-pair blocks these are."""
    n, d = math.isqrt(blocks.shape[0]), math.isqrt(blocks.shape[1])
    return blocks.reshape(n, n, d, d).swapaxes(1, 2).reshape(n * d, n * d)


def _diagonal(blocks: np.ndarray) -> np.ndarray:
    """(N, d) copy of the real diagonal: the (a, a) entries of the N same-vertex blocks."""
    n, d = math.isqrt(blocks.shape[0]), math.isqrt(blocks.shape[1])
    return np.ascontiguousarray(blocks[::n + 1, ::d + 1].real)


def _check_block_trace(blocks: np.ndarray) -> None:
    """check_trace of the density matrix held as these blocks."""
    _check_unit_trace(_diagonal(blocks))


def _block_marginal(blocks: np.ndarray) -> np.ndarray:
    """position_marginal of the density matrix held as these blocks."""
    return _clamped_marginal(_diagonal(blocks).sum(axis=1))


def _toss_blocks(blocks: np.ndarray, sides: _Sides, k: int) -> np.ndarray:
    """The coin, the coin measurement and before-shift dephasing on side k's blocks, as a new array.

    The products run on the blocks' interleaved (re, im) floats, by the
    side's factors (_Sides.block_factors). A shared coin is one matrix
    product of all n^2 blocks. A stacked coin is a batched product over
    the block columns, into an array held by column, and then one over the
    block rows. With before-shift dephasing the same-vertex blocks are
    taken again by the unscaled first factor. Each block's bits depend only
    on the block and the factors, not on n.
    """
    n = math.isqrt(blocks.shape[0])
    first, second, same_vertex = sides.block_factors[k]
    x = blocks.view(float)
    if second is None:
        out = x @ first
        if same_vertex is not None:
            out[::n + 1] = x[::n + 1] @ same_vertex
        return out.view(complex)
    by_column = np.matmul(x.reshape(n, n, -1).transpose(1, 0, 2), first)
    if same_vertex is not None:
        by_column.reshape(n * n, -1)[::n + 1] = (x[::n + 1, None] @ same_vertex)[:, 0]
    return np.matmul(by_column.transpose(1, 0, 2), second).reshape(x.shape).view(complex)


def _shift_blocks(blocks: np.ndarray, sides: _Sides, k: int) -> np.ndarray:
    """The shift from side k to the next side, and after-shift dephasing, on the blocks, as a new array."""
    out = sides.shift_blocks(blocks, k)
    step = sides.step
    if step.placement == "after-shift" and step.vertex_dephasing > 0.0:
        n = math.isqrt(out.shape[0])
        same_vertex = out[::n + 1].copy()
        out *= 1.0 - step.vertex_dephasing
        out[::n + 1] = same_vertex
    return out


# ----------------------------------------------------------------------
# deterministic evolution

def unitary_step(psi: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a pure state one step: shift after coin."""
    if not step.is_unitary:
        raise StructureError(
            "unitary_step requires a StepMap without measurement options; "
            "use cp_step on a density matrix instead"
        )
    return step.shift.apply(_apply_coin(step.coin, psi))


def vertex_dephasing(rho: np.ndarray, p: float, degree: int) -> np.ndarray:
    """Scale matrix elements between different vertices by (1 - p).

    Coin coherences within a vertex are untouched, so the diagonal and
    the trace are exactly preserved. p=0 is the identity; p=1 removes
    all position coherence. This dense form is the reference that
    cp_step's structured channel is tested against.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"vertex dephasing strength must lie in [0, 1], got {p}")
    if p == 0.0:
        return rho.copy()
    vertex = np.arange(rho.shape[0]) // degree
    return rho * ((1.0 - p) + p * (vertex[:, None] == vertex))


def cp_step(rho: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a density matrix one step through the full channel.

    rho, of any real or complex dtype, is taken to its complex vertex-pair
    blocks, stepped as every density walk is, and the result is a new
    C-ordered complex matrix. Besides rho, a step with a shared coin holds
    at most two copies of it at once, and one with a stacked coin three.
    """
    sides = step._whole
    blocks = _to_blocks(np.asarray(rho, dtype=complex), step.shift.degree)
    # each stage's input is freed as its result is bound
    blocks = _toss_blocks(blocks, sides, 0)
    blocks = _shift_blocks(blocks, sides, 0)
    return _from_blocks(blocks)


def _pure_step(psi: np.ndarray, sides: _Sides, k: int) -> np.ndarray:
    """The coin and the shift on a pure state on side k's ports, as a new state on the next side's."""
    sources, (vertex, port) = sides.moves[k]
    out = _apply_coin(sides.coins[k], psi).take(sources)
    if vertex.size:
        out.reshape(-1, sides.step.shift.degree)[vertex, port] = 0
    return out


def _walk(psi0: np.ndarray, sides: _Sides, steps: int) -> Iterator[np.ndarray]:
    """evolve's states on the sides of a cone, from psi0 over the whole graph's ports.

    The state at time t is on side sides.at(t): a pure state on that
    side's ports, or a density matrix as the (n^2, d^2) blocks of that
    side's vertex pairs. A density step is taken in two stages, and each
    stage's input is freed as its result is bound, so beside what its
    caller keeps the walk holds at most two states at once, three while a
    stacked coin is tossed.
    """
    step = sides.step
    psi = sides.start(psi0)
    if step.is_unitary:
        state, stages, check = psi, (_pure_step,), check_pure
    else:
        state = _pure_blocks(psi, step.shift.degree)
        stages, check = (_toss_blocks, _shift_blocks), _check_block_trace
    yield state
    for t in range(steps):
        for stage in stages:
            state = stage(state, sides, sides.at(t))
        check(state)
        yield state


def evolve(psi0: np.ndarray, step: StepMap, steps: int) -> Iterator[np.ndarray]:
    """Yield the walk's state at every time 0..steps.

    The states are pure vectors advanced by unitary_step when the step
    is unitary, and C-ordered density matrices advanced as cp_step
    advances them otherwise. Every advanced state gets an O(N*d) check,
    of its norm or of its diagonal and trace, which raises
    InvariantViolation; a step count that is no nonnegative integer
    raises ConfigError.
    """
    _check_count(steps)
    _check_start(psi0, step)
    states = _walk(psi0, step._whole, steps)
    return states if step.is_unitary else map(_from_blocks, states)


def _check_start(psi0: np.ndarray, step: StepMap) -> None:
    """Raise StructureError unless psi0 has shape (N*d,), then check_pure it."""
    size = step.shift.num_vertices * step.shift.degree
    if np.shape(psi0) != (size,):
        raise StructureError(f"start state needs N*d = {size} amplitudes, got shape {np.shape(psi0)}")
    check_pure(psi0)


def _cone_ports(vertices: np.ndarray, degree: int) -> np.ndarray:
    """Flat indices of every port of the given vertices, in vertex order."""
    return (vertices[:, None] * degree + np.arange(degree)).ravel()


def _light_cone(psi0: np.ndarray, step: StepMap, steps: int) -> _Sides:
    """The vertices that the walk from psi0 reaches in steps steps, as the sides of its cone.

    The cone starts as the vertices of psi0's support and grows through
    the shift once per step, until it holds every vertex or stops
    growing, and each vertex is labelled by the parity of the step that
    first reaches it. The cone has two sides, the vertices of even and of
    odd parity, when every move of the step between two cone vertices
    joins them, so that a port that the shift sends to its own vertex,
    such as a self-loop or an unused port, leaves one side; and when each
    side holds at least two vertices, since a one-vertex side would make
    one-row products, which numpy hands to gemv, which rounds otherwise.
    Else the one side is every cone vertex.
    """
    _check_count(steps)
    _check_start(psi0, step)
    n, d = step.shift.num_vertices, step.shift.degree
    neighbours = step.shift.permutation.reshape(n, d) // d
    frontier = np.unique(np.flatnonzero(psi0) // d)
    # the parity of each vertex's first reach, 2 until it is reached
    parity = np.full(n, 2, dtype=np.int8)
    parity[frontier] = 0
    size = frontier.size
    for t in range(1, steps + 1):
        if size == n or frontier.size == 0:
            break
        reached = neighbours[frontier].ravel()
        reached.sort()
        # each fresh vertex once: a frontier with repeats would count paths
        fresh = parity[reached] == 2
        fresh[1:] &= reached[1:] != reached[:-1]
        frontier = reached[fresh]
        parity[frontier] = t % 2
        size += frontier.size
    vertices = np.flatnonzero(parity < 2)
    side = parity[vertices]
    sides = vertices[side == 0], vertices[side == 1]
    # a move that leaves the cone reaches parity 2, which joins nothing
    same_side = (parity[neighbours[vertices]] == side[:, None]).any()
    if same_side or min(sides[0].size, sides[1].size) < 2:
        return _Sides(step, (vertices,))
    return _Sides(step, sides)


def _block_gather_index(sources: np.ndarray, source_vertices: int) -> np.ndarray:
    """The read-only flat gather index that moves vertex-pair blocks as the ports move.

    sources is an (n', d) array: sources[i', a'] is the flat port i d + a of
    a state over source_vertices vertices that port (i', a') reads. The
    (n'^2, d^2) index takes blocks of that state, an (m^2, d^2) array with
    m = source_vertices, to those of the state the ports read: block
    (i', j') entry (a', b') reads block (i, j) entry (a, b), where (i, a)
    and (j, b) are the sources of (i', a') and (j', b').
    """
    n, d = sources.shape
    m = source_vertices
    vertex, port = np.divmod(sources, d)
    # rows[i', a' d + b'] and cols[j', a' d + b'] are the parts of the flat
    # index that (i', a') and (j', b') give, laid out as the block's entries
    rows = np.repeat(vertex * (m * d * d) + port * d, d, axis=1)
    cols = np.tile(vertex * (d * d) + port, d)
    index = (rows[:, None] + cols).reshape(n * n, d * d)
    index.flags.writeable = False
    return index


class _Sides:
    """The one or two sides of a light cone that its walk alternates between.

    step is the walk's StepMap over the whole graph, and sides holds the
    sorted vertices of each side. At time t the walk stands on side at(t)
    and holds only that side's ports, vertex-pair blocks or block rows; a
    step takes it to the next side, by the coin blocks of the side's own
    vertices and one gather from the ports of the side into those of the
    next. A port whose source lies on no port of the side, at the cone's
    boundary, reads an exact zero, as it does in the whole graph's walk.
    """

    def __init__(self, step: StepMap, sides: tuple[np.ndarray, ...]):
        self.step, self.sides = step, sides

    def at(self, t: int) -> int:
        """The side that the walk stands on at time t."""
        return t % len(self.sides)

    def start(self, psi0: np.ndarray) -> np.ndarray:
        """psi0, given over the whole graph's ports, on the ports of side 0, as a copy."""
        return psi0[_cone_ports(self.sides[0], self.step.shift.degree)]

    def vertices_at(self, t: int) -> np.ndarray:
        """The sorted vertices of the side the walk stands on at time t."""
        return self.sides[self.at(t)]

    @cached_property
    def widest(self) -> int:
        """The vertex count of the larger side."""
        return max(side.size for side in self.sides)

    @cached_property
    def coins(self) -> tuple[np.ndarray, ...]:
        """Each side's coin: the shared block, or the side's rows of the stack (all of them on
        a side of every vertex, which so holds no copy)."""
        coin = self.step.coin
        if coin.ndim == 2 or self.sides[0].size == len(coin):
            return (coin,) * len(self.sides)
        return tuple(coin[side] for side in self.sides)

    @cached_property
    def block_factors(self) -> tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray | None], ...]:
        """Each side's _toss_blocks factors: the step's own for the step's coin, else its rows'."""
        step = self.step
        return tuple(
            step._block_factors if coin is step.coin
            else _block_factors(coin, step.coin_kraus, step.vertex_dephasing, step.placement)
            for coin in self.coins
        )

    @cached_property
    def moves(self) -> tuple[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]], ...]:
        """Per side k, (sources, (vertex, port)): the shift from side k to the next side.

        sources[q] is the flat port of side k that port q of the next side
        reads; (vertex, port) are the next side's ports whose source lies
        on no port of side k, which read port 0 and are then set to zero.
        """
        shift = self.step.shift
        d = shift.degree
        moves = []
        for k, side in enumerate(self.sides):
            after = self.sides[self.at(k + 1)]
            vertex, port = np.divmod(shift.permutation[_cone_ports(side, d)], d)
            # each move's vertex as a position on the next side, where it lands there
            at = np.minimum(np.searchsorted(after, vertex), after.size - 1)
            lands = after[at] == vertex
            sources = np.full(after.size * d, -1)
            sources[(at * d + port)[lands]] = np.flatnonzero(lands)
            boundary = np.flatnonzero(sources < 0)
            sources[boundary] = 0
            moves.append((sources, np.divmod(boundary, d)))
        return tuple(moves)

    def shift_blocks(self, blocks: np.ndarray, k: int) -> np.ndarray:
        """The shift of side k's vertex-pair blocks, as a new array of the next side's."""
        out = blocks.ravel()[self._block_indices[k]]
        _, (vertex, port) = self.moves[k]
        if vertex.size:
            d = self.step.shift.degree
            n = self.sides[self.at(k + 1)].size
            pairs = out.reshape(n, n, d, d)
            pairs[vertex, :, port] = 0
            pairs[:, vertex, :, port] = 0
        return out

    @cached_property
    def _block_indices(self) -> tuple[np.ndarray, ...]:
        d = self.step.shift.degree
        return tuple(_block_gather_index(sources.reshape(-1, d), side.size)
                     for (sources, _), side in zip(self.moves, self.sides))


def _in_place(x: np.ndarray, ports: np.ndarray, size: int) -> np.ndarray:
    """The vector of the given size that holds x at ports and 0 elsewhere."""
    full = np.zeros(size, dtype=x.dtype)
    full[ports] = x
    return full


def _marginals(
    psi0: np.ndarray, step: StepMap, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """An iterator of (vertices, distribution on them) at every time 0..steps.

    The light cone is found, and psi0 and steps checked, before it
    returns. The walk is evolved on the sides of the cone, and the
    vertices at time t are the sorted vertices of the side it stands on;
    the distribution is zero on every other vertex. A density walk's
    distribution is read off its blocks' diagonal.
    """
    sides = _light_cone(psi0, step, steps)
    if step.is_unitary:
        marginal = partial(pure_position_marginal, degree=step.shift.degree)
    else:
        marginal = _block_marginal
    # map holds no state once its marginal is taken, so the walk can free it
    return zip(itertools.cycle(sides.sides), map(marginal, _walk(psi0, sides, steps)))


def run(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Evolve a pure initial state for the given number of steps.

    Returns the density matrix at time steps; steps=0 gives the initial
    projector. The walk is evolved on the sides of its light cone, and the
    final state is put in place in the full matrix. This is a small-N
    helper: the dense (N d) x (N d) return is kept for tests and the
    acceptance suite, and no command calls it; the CLI reads the cone
    marginals.
    """
    sides = _light_cone(psi0, step, steps)
    for state in _walk(psi0, sides, steps):
        pass
    state = to_density(state) if step.is_unitary else _from_blocks(state)
    ports = _cone_ports(sides.vertices_at(steps), step.shift.degree)
    rho = np.zeros((psi0.size, psi0.size), dtype=state.dtype)
    rho[np.ix_(ports, ports)] = state
    return rho


def marginal_history(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Position distribution at every time 0..steps, shape (steps+1, N)."""
    marginals = _marginals(psi0, step, steps)
    history = np.zeros((steps + 1, step.shift.num_vertices))
    for t, (vertices, marginal) in enumerate(marginals):
        history[t, vertices] = marginal
    return history


def assembled_step_operators(step: StepMap) -> list[np.ndarray]:
    """The full-space Kraus set {S K_i C} of one measured step.

    Their completeness sum is the identity on graphs where every port
    is used, and the projector onto the used subspace otherwise. Vertex
    dephasing is a separate channel and is not included. The operators
    are dense (N d) x (N d) matrices, built as a reference for tests.
    """
    n, d = step.shift.num_vertices, step.shift.degree
    coin = np.zeros((n, d, n, d), dtype=complex)
    v = np.arange(n)
    coin[v, :, v, :] = step.coin
    coin = coin.reshape(n * d, n * d)
    smat = step.shift.matrix()
    if step.coin_kraus is None:
        return [smat @ coin]
    return [smat @ np.diag(np.tile(k, n)) @ coin for k in step.coin_kraus]


# ----------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class TrajectoryRecord:
    """Measurement record of one sampled walk."""

    seed: int
    outcomes: tuple[int, ...]
    outcome_probabilities: tuple[float, ...]
    vertex_outcomes: tuple[int, ...] | None = None


def _require_unravelable(step: StepMap) -> None:
    if step.coin_kraus is None:
        raise ConfigError("trajectory sampling needs a coin measurement (beta > 0); without one "
                          "there is a single deterministic branch, which the run command covers")
    if step.vertex_dephasing not in (0.0, 1.0):
        raise ConfigError(
            "pure-state trajectories support vertex dephasing 0 (off) or 1 "
            f"(projective), not {step.vertex_dephasing}"
        )


def _sequential_sum(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis term by term, in index order."""
    # the ufunc's own method: ndarray.cumsum reaches it through more calls,
    # about 0.5 us a sum, which a one-sample step pays several times
    return np.add.accumulate(x, axis=-1)[..., -1]


def _sum_rows_in_order(x: np.ndarray) -> np.ndarray:
    """x summed over its first axis term by term, in index order.

    x's first axis must be its outermost in memory, as in a C-ordered
    array or a slice of one. With _FEW_LANES or more entries beside that
    axis, np.add.reduce then adds the rows one after another across every
    lane at once. Below that the last row of a running sum is faster, and
    over one lane it is needed: numpy sums a contiguous axis pairwise,
    which groups the terms otherwise.
    """
    if x.size < _FEW_LANES * len(x):
        return np.add.accumulate(x, axis=0)[-1]
    return np.add.reduce(x, axis=0)


def _coin_masses(x: np.ndarray) -> np.ndarray:
    """(S, d) array: per coin index, the mass of each state of the (n, S, d) block x.

    Entry [s, a] adds re**2 + im**2 of x[j, s, a] over the vertices j one
    at a time, in vertex order (_sum_rows_in_order). Adding a zero leaves
    such a sum unchanged, so vertices that hold no amplitude, such as those
    outside a light cone, do not change a mass.
    """
    return _sum_rows_in_order(_squared_moduli(x))


def _born_weights(masses: np.ndarray, kraus_sq: np.ndarray) -> np.ndarray:
    """(S, m) array: the Born weight of each Kraus branch of each sample.

    The weight of branch i of sample s is ||K_i phi_s||^2, taken as
    sum_a masses[s, a] * kraus_sq[i, a] in coin order, where kraus_sq[i]
    holds |k_i|^2 on the diagonal of Kraus operator i. No BLAS call and
    no reduction over vertices is involved, so the weights depend only
    on the coin masses. The weights are a copy, so that the (S, m, d)
    running sums they are read from are freed: a step's weights outlive it.
    """
    return _sequential_sum(masses[:, None, :] * kraus_sq).copy()


def _check_branch_sums(totals: np.ndarray) -> None:
    """Raise unless every total of branch weights is 1 within the branch-sum bound."""
    # the sampler's guards test a step's few values as Python floats, faster than numpy
    tol = DEFAULT_TOLERANCES.branch_sum
    for total in totals.tolist():
        if not abs(total - 1.0) <= tol:
            raise InvariantViolation(f"branch probabilities sum to {total!r}")


def _check_norms(norms: np.ndarray, what: str) -> None:
    """Raise unless every squared norm is finite and not below the negligible-norm bound."""
    floor = DEFAULT_TOLERANCES.negligible_norm
    if not all(floor <= x < math.inf for x in norms.tolist()):
        raise InvariantViolation(f"{what} has negligible norm or a non-finite one")


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of the (S, K) weights p from the uniforms u.

    This is the rule of Generator.choice(K, p=row), which turns one
    uniform double into the first index whose cumulative weight exceeds
    it, so an entry of weight 0 is never drawn. Like choice, it requires
    non-negative weights summing to 1 within sqrt(eps) per row.
    """
    cdf = np.add.accumulate(p, axis=1)
    tol = DEFAULT_TOLERANCES.draw_sum
    sums = cdf[:, -1].tolist()
    if not (np.minimum.reduce(p, axis=None) >= 0.0 and all(abs(x - 1.0) <= tol for x in sums)):
        raise InvariantViolation("draw weights are negative or do not sum to 1")
    return (cdf / cdf[:, -1:] > u[:, None]).argmax(axis=1)


def _viable_weights(w: np.ndarray) -> np.ndarray:
    """Each row of w renormalized over its entries above the viable-weight bound, the rest 0.

    Row by row this is bit-for-bit w[viable] / w[viable].sum() put back
    in place.
    """
    viable = w > DEFAULT_TOLERANCES.viable_weight
    if np.logical_and.reduce(viable, axis=None):
        return w / np.add.reduce(w, axis=1, keepdims=True)
    kept = np.where(viable, w, 0.0)
    sums = kept.sum(axis=1)
    if w.shape[1] >= 8:
        # numpy sums 8 or more terms pairwise, so zeros in place of the
        # dropped entries would regroup the sum
        for r in np.flatnonzero(~viable.all(axis=1)):
            sums[r] = w[r, viable[r]].sum()
    return kept / sums[:, None]


def _measure_vertices(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Read the vertex of each state of the (n, S, d) block psi with its Born probability.

    psi is projected in place onto the vertices read and renormalized, and
    the vertices are returned. The draw's normaliser and the projection's
    norm are coin masses summed in order, so vertices without amplitude
    change neither.
    """
    n, s, d = psi.shape
    pv = pure_position_marginal(psi, d).reshape(n, s)
    total = _sequential_sum(_coin_masses(psi))
    vertices = _inverse_cdf((pv / total).T, u)
    samples = np.arange(s)
    kept = psi[vertices, samples]
    norm = _sequential_sum(_squared_moduli(kept))
    _check_norms(norm, "vertex projection")
    psi.fill(0)
    psi[vertices, samples] = kept / np.sqrt(norm)[:, None]
    return vertices


def _shift_index(sources: np.ndarray, degree: int, samples: int, compact: bool) -> np.ndarray:
    """A side's flat gather index on a block of the given number of states.

    Entry [j', s, a'] of the (n', S, d) index reads entry [j, s, a] of the
    side's block, where j d + a = sources[j' d + a']. A compact index has
    int32 entries where they fit.
    """
    vertex, port = np.divmod(sources, degree)
    start = (vertex * (samples * degree) + port).reshape(-1, 1, degree)
    index = start + np.arange(0, samples * degree, degree)[:, None]
    if compact and index.max() <= np.iinfo(np.int32).max:
        return index.astype(np.int32)
    return index


def _form_branches(
    phi: np.ndarray, kraus: np.ndarray, tiled: np.ndarray | None, i: np.ndarray, w: np.ndarray
) -> None:
    """K_i phi / sqrt(w) in place on the (n, S, d) block phi: state s by K_{i[s]} over sqrt(w[s]).

    numpy divides a complex number by (r, 0) as a product with 1 / r, so
    the floats are scaled by that. One state is the same memory in either
    layout, and its branch is formed faster from tiled, the diagonals
    tiled over at least n vertices, when given, than by a broadcast over
    vertices; the tiles of n vertices are the first n d entries of a row.
    """
    n, s, d = phi.shape
    if s == 1 and tiled is not None:
        flat = phi.reshape(-1)
        flat *= tiled[i[0], :flat.size]
        floats = flat.view(float)
        floats *= 1.0 / math.sqrt(w[0])
    else:
        phi *= kraus[i]
        floats = phi.view(float).reshape(n, -1)
        floats *= np.repeat(1.0 / np.sqrt(w), 2 * d)


def _unravel(block: np.ndarray, sides: _Sides, steps: int, choose, read=None) -> Iterator:
    """Advance a block of states on the sides of a light cone through steps unravelled steps.

    block is a complex (sides.widest, S, d) array whose first rows hold
    the states on side 0 as a vertex-major (n, S, d) block (see
    _apply_coin); the walk takes it over. Step t tosses the coin on every
    state of the block psi on side sides.at(t), takes their Born weights
    raw and checks their totals, and forms only the branches (rows, i) of
    (rows, i, w) = choose(t, raw, totals): K_i times the tossed state,
    over sqrt(w), where w is raw[rows, i]; rows is None when each state
    keeps the one branch i[row]. It shifts them into the first rows of
    the block, as the next side's block psi, with read(t, psi, vertices),
    when given, measuring their vertex in place at the step's placement,
    vertices being the side's (_Sides.vertices_at), and yields (psi, rows,
    i, raw). The next step writes over the block it yields.

    Beside the block, a step holds its toss, the gather index of each
    side and numpy's buffer for a factor broadcast over the vertices (at
    most np.getbufsize() entries); the shift gathers back into the block,
    which is spent once tossed. One side's index is an intp one, half a
    block. Two sides' are compact (int32) ones, as much together, which
    take casts to intp as it reads them: refilling one intp index at every
    step took three times as long as the cast.
    """
    step = sides.step
    d = step.shift.degree
    kraus = step.coin_kraus
    kraus_sq = _squared_moduli(kraus)
    tiled = np.tile(kraus, sides.widest) if block.shape[1] == 1 else None
    read_before = step.placement == "before-shift"
    psi = block[:sides.sides[0].size]
    compact = len(sides.sides) > 1
    # built before the first toss, which would otherwise be held beside them
    width = block.shape[1]
    indices = [_shift_index(sources, d, width, compact) for sources, _ in sides.moves]
    for t in range(steps):
        k = sides.at(t)
        phi = _apply_coin(sides.coins[k], psi)
        raw = _born_weights(_coin_masses(phi), kraus_sq)
        totals = np.add.reduce(raw, axis=1)
        _check_branch_sums(totals)
        rows, i, w = choose(t, raw, totals)
        if rows is not None:
            phi = phi.take(rows, axis=1)
        _form_branches(phi, kraus, tiled, i, w)
        if read is not None and read_before:
            read(t, phi, sides.vertices_at(t))
        s = phi.shape[1]
        if s != width:  # the enumerator's branches come and go
            width = s
            block = np.empty((len(block), s, d), dtype=complex)
            indices = [_shift_index(sources, d, s, compact) for sources, _ in sides.moves]
        _, (vertex, port) = sides.moves[k]
        psi = block[:sides.sides[sides.at(t + 1)].size]
        # mode="clip" skips the bounds check, for which "raise" buffers out
        phi.reshape(-1).take(indices[k], out=psi, mode="clip")
        del phi  # so that the next toss does not hold two
        if vertex.size:
            psi[vertex, :, port] = 0
        if read is not None and not read_before:
            read(t, psi, sides.vertices_at(t + 1))
        yield psi, rows, i, raw


def _sample_blocks(
    psi0: np.ndarray, step: StepMap, steps: int, seeds: list
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """sample_trajectories block by block, as arrays.

    Yields, per block of consecutive seeds, the sorted vertices of the side
    of the light cone that the walk ends on, the block's final (n, S, d)
    states on them, and (S, steps) arrays of the outcomes, the drawn
    outcomes' probabilities and the vertices read (vertices of the whole
    graph), the last None without vertex measurement.
    """
    _require_unravelable(step)
    return _sample_sides(psi0, _light_cone(psi0, step, steps), steps, seeds)


def _sample_sides(
    psi0: np.ndarray, sides: _Sides, steps: int, seeds: list
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """_sample_blocks on the sides of a light cone, from psi0 over the whole graph's ports.

    A block holds SAMPLE_BLOCK_AMPLITUDES // (ports of the wider side)
    samples, at least one, and the next block of as many samples is walked
    in the array of the last one's final states.
    """
    step = sides.step
    d = step.shift.degree
    start = sides.start(psi0).reshape(-1, 1, d)
    measure_position = step.vertex_dephasing == 1.0
    draws = 2 if measure_position else 1
    size = max(1, SAMPLE_BLOCK_AMPLITUDES // (sides.widest * d))
    block = None
    for lo in range(0, len(seeds), size):
        chunk = seeds[lo: lo + size]
        s = len(chunk)
        rows = np.arange(s)
        uniforms = np.array(
            [np.random.default_rng(seed).random(steps * draws) for seed in chunk]
        ).reshape(s, steps, draws)
        outcomes = np.empty((s, steps), dtype=int)
        probs = np.empty((s, steps))  # the drawn outcome's probability
        vertices = np.empty((s, steps), dtype=int)

        def draw(t, raw, totals):
            w = raw / totals[:, None]
            outcomes[:, t] = i = _inverse_cdf(_viable_weights(w), uniforms[:, t, 0])
            drawn = raw[rows, i]
            _check_norms(drawn, "sampled branch")
            probs[:, t] = w[rows, i]
            return None, i, drawn

        def read(t, psi, side_vertices):
            vertices[:, t] = side_vertices[_measure_vertices(psi, uniforms[:, t, 1])]

        if block is None or block.shape[1] != s:
            block = np.empty((sides.widest, s, d), dtype=complex)
        psi = block[:len(start)]
        psi[:] = start
        for psi, *_ in _unravel(block, sides, steps, draw, read if measure_position else None):
            pass
        yield sides.vertices_at(steps), psi, outcomes, probs, vertices if measure_position else None


def sample_trajectories(
    psi0: np.ndarray, step: StepMap, steps: int, seeds
) -> Iterator[tuple[np.ndarray, np.ndarray, TrajectoryRecord]]:
    """Sample one measurement record and conditioned final state per seed.

    Each step draws a meter outcome with the Born probability of its
    Kraus branch, renormalizes, and shifts. With vertex dephasing 1 the
    walker's position is also measured each step and recorded. Every
    draw takes the next uniform double of the sample's own
    default_rng(seed) stream through an inverse CDF, so a record depends
    on its seed alone.

    The walk runs on the sides of the light cone of psi0. A Born weight
    is ||K_i phi||^2 summed from the per-coin masses of the tossed state
    phi, each added up over the vertices in vertex order, so the records
    and final states are those of the whole graph bit for bit. The
    samples move together as a vertex-major (side vertices, S, d) block,
    S = SAMPLE_BLOCK_AMPLITUDES // (ports of the wider side) samples at a
    time (at least one). Yields, in seed order, the sorted cone vertices,
    the final state on the cone's ports and the record, whose vertex
    outcomes are vertices of the whole graph.
    """
    seeds = list(seeds)
    for seed in seeds:
        _check_count(seed, "seed")
    _require_unravelable(step)
    sides = _light_cone(psi0, step, steps)
    cone, d = np.sort(np.concatenate(sides.sides)), step.shift.degree
    ports = _cone_ports(np.searchsorted(cone, sides.vertices_at(steps)), d)
    lo = 0
    for _, block, outcomes, probs, vertices in _sample_sides(psi0, sides, steps, seeds):
        s = len(outcomes)
        # a copy, since the next block is walked in this one
        finals = np.zeros((s, cone.size * d), dtype=complex)
        finals[:, ports] = block.transpose(1, 0, 2).reshape(s, -1)
        for r in range(s):
            record = TrajectoryRecord(
                seeds[lo + r],
                tuple(outcomes[r].tolist()),
                tuple(probs[r].tolist()),
                None if vertices is None else tuple(vertices[r].tolist()),
            )
            yield cone, finals[r], record
        lo += s


def sample_trajectory(
    psi0: np.ndarray, step: StepMap, steps: int, seed: int
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Sample one measurement record and the conditioned final state.

    This is sample_trajectories for the single seed, with the final
    state put back over all N*d ports.
    """
    ((cone, final, record),) = sample_trajectories(psi0, step, steps, [seed])
    return _in_place(final, _cone_ports(cone, step.shift.degree), psi0.size), record


def enumerate_branches(
    psi0: np.ndarray, step: StepMap, steps: int, prune: float = 1e-18
) -> Iterator[tuple[float, np.ndarray, tuple[int, ...]]]:
    """Expand every measurement branch exactly, for small step counts.

    Returns an iterator of (probability, normalized state, outcome tuple)
    per branch. Branches of probability below prune are dropped; the
    surviving probabilities still sum to 1 up to that resolution. prune
    must be positive, since a kept branch of probability 0 cannot be
    renormalized. The weighted mixture of the states reproduces the
    density-matrix evolution, which is what makes the record ensemble a
    faithful unraveling. The branches are expanded on the sides of the
    light cone of psi0 through the step of sample_trajectories, every live
    branch a state of one block, and come parent by parent, each parent's
    in outcome order. Every check and the whole expansion run before the
    function returns; each state is put back over all N*d ports only as it
    is taken.
    """
    if not prune > 0.0:
        raise ConfigError(f"prune must be a positive probability, got {prune}")
    _require_unravelable(step)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    sides = _light_cone(psi0, step, steps)
    d = step.shift.degree
    start = sides.start(psi0).reshape(-1, 1, d)
    block = np.empty((sides.widest, 1, d), dtype=complex)
    psi = block[:len(start)]
    psi[:] = start
    probs, histories = np.ones(1), np.empty((1, 0), dtype=int)

    def keep(_t, raw, _totals):  # every branch of probability prune or more, parent by parent
        rows, i = np.nonzero(probs[:, None] * raw >= prune)
        return rows, i, raw[rows, i]

    for psi, rows, i, raw in _unravel(block, sides, steps, keep):
        probs = probs[rows] * raw[rows, i]
        histories = np.column_stack([histories[rows], i])
    ports = _cone_ports(sides.vertices_at(steps), d)
    branches = zip(probs.tolist(), psi.transpose(1, 0, 2), histories.tolist())
    return ((p, _in_place(x.ravel(), ports, psi0.size), tuple(h)) for p, x, h in branches)


def walker_paths(step: StepMap, start_vertex: int, outcomes) -> np.ndarray:
    """The (S, T+1) vertex paths that an (S, T) array of coin outcomes pins down.

    Outcome i certifies coin a when a is the one index with |k_i[a]|^2
    above DEFAULT_TOLERANCES.viable_weight, as every outcome does at
    beta = 1; the walker then moves from v to the vertex of
    step.shift.permutation[v d + a], one gather over all samples per
    step. Outcomes that are no 2-D integer array (booleans and ragged
    rows included) raise StructureError. A start that is no integer or lies outside the
    graph, an outcome outside 0..m-1, or one that certifies no coin
    raises ConfigError, the outcome naming its sample and step (counted
    from 1).
    """
    try:
        outcomes = np.asarray(outcomes)
    except ValueError:  # numpy refuses ragged rows before any shape can be named
        raise StructureError("outcomes must be a 2-D integer array, got ragged rows") from None
    if outcomes.ndim != 2 or outcomes.dtype.kind not in "iu":
        raise StructureError(
            f"outcomes must be a 2-D integer array, got shape {outcomes.shape} of {outcomes.dtype}"
        )
    if not _is_integer(start_vertex):
        raise ConfigError(f"start vertex must be an integer, got {start_vertex!r}")
    d = step.shift.degree
    if not 0 <= start_vertex < step.shift.num_vertices:
        raise ConfigError(f"start vertex {start_vertex} is not a vertex of the step's graph")
    kraus = np.zeros((0, d)) if step.coin_kraus is None else step.coin_kraus
    certified = _squared_moduli(kraus) > DEFAULT_TOLERANCES.viable_weight
    coin_of = np.where(certified.sum(axis=1) == 1, certified.argmax(axis=1), -1)
    known = (outcomes >= 0) & (outcomes < len(kraus))
    # an unknown outcome reads the appended -1, as one that certifies no coin does
    coins = np.append(coin_of, -1)[np.where(known, outcomes, len(kraus))]
    if (coins < 0).any():
        sample, t = np.argwhere(coins < 0)[0]
        raise ConfigError(
            f"sample {sample} step {t + 1}: outcome {outcomes[sample, t]} "
            "certifies no single coin state, so it fixes no move"
        )
    paths = np.empty((outcomes.shape[0], outcomes.shape[1] + 1), dtype=int)
    paths[:, 0] = start_vertex
    for t in range(outcomes.shape[1]):
        paths[:, t + 1] = step.shift.permutation[paths[:, t] * d + coins[:, t]] // d
    return paths
