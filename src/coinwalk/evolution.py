"""Walk evolution: step composition, density runs, and trajectory sampling.

A single time step applies, in order: the coin unitary, the coin
measurement channel (when a measurement strength is configured),
optional dephasing between vertices, and the shift. The vertex
dephasing may instead be placed after the shift; both orders are
conventions and the choice is recorded with every run.

Every part of the step is applied in its structured form. The coin is
one d x d block that every vertex shares, or a stack of per-vertex
blocks, and the coin measurement is the (m, d) array of its Kraus
diagonals. On a pure state, or on a block of them (_apply_coin), a
shared block tosses all the (state, vertex) pairs of d amplitudes in one
matrix product, per-vertex blocks are one batched product, and each
Kraus operator is an elementwise product. Each kind of state has one
step: a pure state _pure_step, a sampler block _unravel's, and density
blocks _toss_blocks and _shift_blocks.

A density walk holds rho in its half layout (_matrix_boundary): rho is
Hermitian, block (j, i) being block (i, j)'s conjugate transpose, so only
the vertex-pair blocks (i, j) with i <= j are held, each flattened, as an
(N (N + 1) / 2, d^2) array: the N same-vertex blocks first, then the
pairs i < j in row-major order. The coin, the coin measurement and
vertex dephasing act on each block alone, as one d^2 x d^2
superoperator on the coin space (Brun, Carteret and Ambainis, PRA 67,
032304): for a shared coin the whole local channel is one matrix product
of all the rows, for a stacked coin one batched product over the block
columns and one over the block rows of the grid of pairs, of which the
rows i <= j are kept. Before-shift dephasing is folded into that factor,
and the N same-vertex blocks are taken again by the unscaled one, which
reads only their entries on and above the diagonal and gives them
exactly Hermitian. The tossed rows are written into an array that ends
in one row of zeros, and the shift is one gather from it through a
cached index of about 4 (N d)^2 bytes, which reads that zero row for
every entry that the cone's boundary empties, and the mirror entry of
every entry whose source block lies below the diagonal, whose imaginary
part is then negated unless the entry lies below the diagonal of a
same-vertex block, which no reader takes; after-shift dephasing then
scales the blocks between different vertices. One read of the same-vertex blocks'
diagonal, into its sums by vertex, gives both the trace check and the
position distribution. cp_step, evolve and run take and give density
matrices, converting at their boundary by one gather each way, and each
matrix they give is Hermitian bit for bit. The dense (N*d) x (N*d) forms,
assembled_step_operators, vertex_dephasing and ShiftOperator.matrix, are
never called by the walk; they stay public because the benchmark checks
the CLI's output with them.

A walk of t steps only reaches the vertices within t shifts of psi0's
support, its light cone. run, marginal_history and the marginals that
analysis reads evolve the walk on that cone alone and put the result
back in place, so their memory and time scale with the cone rather
than with N. evolve, cp_step and unitary_step walk the whole graph as
one side (StepMap._whole), whose gathers each StepMap builds once, and
always act on the states they are given.

_light_cone grows the cone breadth first and labels each vertex by the
parity of the step that first reaches it. Each level follows only the
moves of its frontier's own ports: in Python, through a memoryview of
the shift's permutation, while they are _FEW_MOVES or fewer, and by
numpy gathers of the frontier's rows beyond, so no table of the whole
graph's moves is built. On the line of the paper's
quincunx, and on any bipartite graph, the walker at time t stands only
on vertices of t's parity. When every move between two cone vertices
joins the two parity classes, and each class holds at least two
vertices, the cone has these two sides (_Sides); any other cone,
self-loops and unused ports included, is one side. A walk holds only
the side it stands on, its ports, its half layout (about an eighth of
the cone's vertex-pair blocks on a cone of two equal sides) or its rows
of a sampler block.
A step tosses the side by its own vertices' coin blocks, a shared block
staying the one block, and is one gather, built from the step's own
shift, from that side into the next, in which a port at the cone's
boundary whose source lies off the side reads an exact zero (on a
density walk, the tossed array's zero row). One side and two run the
same code. Every output number is a GEMM row of one
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
caller takes it. Every walk checks its step count and start state before
it returns, an iterator included, and walks the array that
_checked_start returns, never the caller's object.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter

import numpy as np

from .coin import Coin, default_coin_spec, embedded_blocks
from .errors import (
    ConfigError,
    InvariantViolation,
    StructureError,
    _check_count,
    _check_real,
    _is_integer,
)
from .graph import PortGraph
from .meter import _check_beta, dephasing_kraus, uniform_dephasing_kraus
from .shift import ShiftOperator, build_shift
from .state import (
    DEFAULT_TOLERANCES,
    _check_unit_trace,
    _clamp,
    _pure_position_marginal,
    _squared_moduli,
    _vertex_sums,
    check_pure,
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
# toss, and half a block more, as the int32 gather index of each of two
# sides or the intp index of one; the gather's cast of an int32 index to
# intp holds another half block. The spent block is the step's scratch.
SAMPLE_BLOCK_AMPLITUDES = 8192
# entries beside the summed axis below which _sum_rows_in_order keeps a
# running sum: np.add.reduce over so few lanes is slower, and over one
# lane it sums pairwise
_FEW_LANES = 4
# moves in a level of _light_cone's walk up to which it follows them in
# Python: a move there took about 0.2 us and a numpy level, a dozen calls,
# about 5.5 us, on levels of a random 10^5-vertex permutation (2-core x86-64)
_FEW_MOVES = 32
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
    coin_kraus is the (m, d) array of the coin measurement's finite Kraus
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
        dtype = np.asarray(self.coin).dtype
        if dtype.kind not in "iufc":
            raise StructureError(f"coin must be an array of numbers, got dtype {dtype}")
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
        if k is not None and not np.isfinite(k).all():
            raise ConfigError("coin Kraus diagonals must be finite, got a NaN or an Inf entry")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        _check_real(self.vertex_dephasing, "vertex dephasing strength", 0.0, 1.0)

    @property
    def is_unitary(self) -> bool:
        return self.coin_kraus is None and self.vertex_dephasing == 0.0

    @cached_property
    def _block_factors(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """_toss_blocks' right factors on the half layout, as _block_factors gives them."""
        return _block_factors(self.coin, self.coin_kraus, self.vertex_dephasing, self.placement)

    @cached_property
    def _whole(self) -> _Sides:
        """The whole graph as one side, which evolve and cp_step walk, with its gathers."""
        return _Sides(self, (np.arange(self.shift.num_vertices),))


def _block_factors(
    coin: np.ndarray, kraus: np.ndarray | None, vertex_p: float, placement: str
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """_toss_blocks' right factors (first, second, same_vertex) for a coin in either form.

    A block X of rho, flattened row-major, is taken by the coin and the
    coin measurement to mask * (C_i X C_j^dagger), with mask[a, b] =
    sum_m k_m[a] conj(k_m[b]), all ones without a measurement. For a
    shared coin this is E = mask * (C kron conj(C)) on every block:
    first is E^T and second is None. For a stacked coin of n blocks,
    first is the (n, d^2, d^2) stack of (I kron conj(C_j))^T, taken by
    block column j, and second that of (mask * (C_i kron I))^T, taken by
    block row i. The same-vertex blocks are tossed again, by same_vertex:
    the whole unscaled channel (first, or the (n, d^2, d^2) stack of first
    times second) between two factors _hermitian, so that it reads only
    the entries on and above a block's diagonal and gives an exactly
    Hermitian block. Before-shift dephasing then scales first by (1 - p).
    Each factor is held in _superoperator's real form.
    """
    d = coin.shape[-1]
    mask = np.ones((d, d)) if kraus is None else kraus.T @ kraus.conj()
    if coin.ndim == 2:
        first, second = _superoperator(coin, coin, mask), None
        channel = first
    else:
        eye = np.eye(d)
        first = _superoperator(eye, coin, np.ones((d, d)))
        second = _superoperator(coin, eye, mask)
        channel = first @ second
    hermitian = _hermitian(d)
    same_vertex = hermitian @ channel @ hermitian
    if placement == "before-shift" and vertex_p > 0.0:
        first = (1.0 - vertex_p) * first
    return first, second, same_vertex


def _hermitian(d: int) -> np.ndarray:
    """The real (2 d^2, 2 d^2) factor that makes each d x d block of a row exactly Hermitian.

    A row of the (re, im) floats of d x d blocks, times it, has each entry
    (b, a) below a block's diagonal replaced by the conjugate of entry
    (a, b), and the imaginary part of each diagonal entry by zero: each
    column of the factor is a column of the identity, negated or zero. As
    the right factor of a product it gives both entries of a pair from the
    same column, so they are conjugates bit for bit; as the left factor it
    reads only the entries on and above each block's diagonal.
    """
    columns, signs = [], []
    for a, b in itertools.product(range(d), repeat=2):
        above = min(a, b) * d + max(a, b)
        columns += [2 * above, 2 * above + 1]
        signs += [1.0, float((b > a) - (b < a))]
    return np.eye(2 * d * d)[:, columns] * signs


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
    dephasing family otherwise. A beta that is no number in [0, 1] raises ConfigError.
    """
    _check_beta(beta)
    if beta == 0.0:
        return None
    if degree == 2:
        return dephasing_kraus(beta)
    return uniform_dephasing_kraus(beta, degree)


# ----------------------------------------------------------------------
# structured pieces of a step

def _apply_coin(coin: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The coin on a pure state or on a block of states.

    A block is a vertex-major (N, S, d) array of S states, entry [j, s, a]
    the amplitude of state s at vertex j and coin a; a pure (N*d,) state is
    the one-state (N, 1, d) block in the same memory. Each (state, vertex)
    pair of d amplitudes is tossed by its vertex's block. A shared (d, d)
    block tosses all the pairs in one matrix product, psi.reshape(-1, d) @
    block.T, in which each output pair depends on its own amplitudes only:
    the bits do not depend on how many samples or vertices are tossed
    together, or in which order, as long as there are at least two pairs
    (numpy hands a one-row product to gemv, which rounds otherwise).
    Per-vertex blocks are one batched product, a matrix-vector product per
    pair.
    """
    d = coin.shape[-1]
    if coin.ndim == 2:
        return (psi.reshape(-1, d) @ coin.T).reshape(psi.shape)
    return (coin[:, None] @ psi.reshape(len(coin), -1, d, 1)).reshape(psi.shape)


def _half_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each row of the half layout of n vertices: (i, i) for every i, then i < j row-major."""
    first = np.arange(n)
    i, j = np.nonzero(first[:, None] < first)
    return np.concatenate((first, i)), np.concatenate((first, j))


def _pair_rows(pairs: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """The (n + 1, n + 1) table of the rows of the half layout whose _half_pairs these are.

    Entry (i, j) is the row of the pair (min(i, j), max(i, j)). The last
    row and column, of no vertex, hold n (n + 1) / 2, the row past the last:
    the zero row of _toss_blocks' array.
    """
    i, j = pairs
    rows = np.full((n + 1, n + 1), i.size)
    rows[i, j] = rows[j, i] = np.arange(i.size)
    return rows


def _matrix_boundary(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(upper, index, below): where the half layout of n vertices sits in its (n d, n d) matrix.

    The half layout holds rho's vertex-pair blocks (i, j) with i <= j, each
    flattened row-major, as an (n (n + 1) / 2, d^2) complex array: the n
    same-vertex blocks first, so that they are its first n rows, then the
    blocks i < j in row-major order (_half_pairs). upper, of that shape, is
    the flat position in the C-ordered matrix of each entry it holds, so a
    matrix is taken to its half by one gather. index is the (n d, n d)
    gather back: each entry on or above the matrix's diagonal reads the
    entry of the half layout that holds it, and each entry below it, where
    below is True, the entry that holds its mirror above the diagonal,
    which the gather's result then conjugates. A same-vertex block's
    entries below its diagonal are so read from above it too (the density
    walk does not keep them after its shift), and the matrix is Hermitian
    bit for bit. All three are read-only.
    """
    i, j = _half_pairs(n)
    ports = np.arange(d)
    rows = (i * d)[:, None, None] + ports[:, None]
    cols = (j * d)[:, None, None] + ports
    upper = (rows * (n * d) + cols).reshape(i.size, d * d)
    index = np.empty((n * d, n * d), dtype=np.intp)
    index.ravel()[upper.ravel()] = np.arange(upper.size)
    below = np.tri(n * d, k=-1, dtype=bool)
    index = np.where(below, index.T, index)
    upper.flags.writeable = index.flags.writeable = below.flags.writeable = False
    return upper, index, below


def _to_half(rho: np.ndarray, boundary: tuple[np.ndarray, ...]) -> np.ndarray:
    """rho's half layout, by one gather through _matrix_boundary's upper, as a complex array."""
    upper = boundary[0]
    return np.ascontiguousarray(rho).ravel()[upper].astype(complex, copy=False)


def _from_half(blocks: np.ndarray, boundary: tuple[np.ndarray, ...]) -> np.ndarray:
    """The C-ordered Hermitian matrix whose half layout blocks is, by one gather.

    Each entry below the diagonal is the conjugate of its mirror above it
    (_matrix_boundary).
    """
    _upper, index, below = boundary
    out = blocks.ravel()[index]
    return np.conjugate(out, out=out, where=below)


def _pure_blocks(psi: np.ndarray, n: int) -> np.ndarray:
    """The half layout of the density matrix of psi, over n vertices: the products of to_density(psi).

    The imaginary parts of the diagonal, which numpy's complex product
    leaves at rounding level rather than zero, are set to zero.
    """
    degree = psi.size // n
    amplitudes = np.asarray(psi, dtype=complex).reshape(n, degree)
    i, j = _half_pairs(n)
    blocks = np.repeat(amplitudes, degree, axis=1).take(i, axis=0)
    blocks *= np.tile(amplitudes.conj(), degree).take(j, axis=0)
    blocks[:n, ::degree + 1].imag = 0.0
    return blocks


def _read_blocks(blocks: np.ndarray) -> np.ndarray:
    """position_marginal of the density matrix held as this half layout, once its trace is checked.

    The diagonal of the first n rows, the same-vertex blocks, is read once,
    in place, into its sums by vertex, and check_trace takes the trace from
    those. A trace within its bound is finite, and so is every sum that
    adds to it, so the marginal's guard only looks for a sum below the clamp
    bound, as position_marginal's does. Each sum adds the vertex's d
    diagonal entries as the sum of a contiguous copy of them would.
    """
    n, d = (math.isqrt(8 * blocks.shape[0] + 1) - 1) // 2, math.isqrt(blocks.shape[1])
    probs = np.add.reduce(blocks[:n, ::d + 1].real, axis=1)
    _check_unit_trace(probs)
    return _clamp(probs, np.minimum.reduce(probs))


def _toss_blocks(blocks: np.ndarray, sides: _Sides, k: int) -> np.ndarray:
    """The coin, the coin measurement and before-shift dephasing on side k's state, as a new array.

    The local channel takes each block (i, j) to one of its own, so the
    rows i <= j are tossed alone. They are the first rows of an array
    whose last row is zero, the row that the shift's gather reads for a
    port at the cone's boundary. The products run on the blocks'
    interleaved (re, im) floats, by the side's factors
    (_Sides.block_factors). A shared coin is one matrix product of all the
    rows. A stacked coin's factors go by block column and block row, so
    its rows are first laid out as the side's n x n grid of pairs, each
    pair (j, i) below the diagonal holding row (i, j) in its place: one
    batched product over the grid's block columns, one over its block
    rows, into the grid, and the rows i <= j kept. The n same-vertex
    blocks, the first rows, are then tossed again by the unscaled factor
    (_block_factors), in one product for a shared coin and one per vertex
    for a stacked one: it reads only their entries on and above the
    diagonal, and gives each exactly Hermitian. Each block's bits depend
    only on the block and the factors, not on n.
    """
    first, second, same_vertex = sides.block_factors[k]
    n = sides.sides[k].size
    x = blocks.view(float)
    if second is None:
        out = np.empty((x.shape[0] + 1, x.shape[1]))
        np.matmul(x, first, out=out[:-1])
        np.matmul(x[:n], same_vertex, out=out[:n])
    else:
        pairs, grid_rows = sides.grids[k]
        # each stage's input is freed as its result is bound; grid[j, i] is
        # block (i, j) for i <= j
        grid = x.take(pairs, axis=0)
        by_column = np.matmul(grid, first)
        np.matmul(by_column.transpose(1, 0, 2), second, out=grid)
        del by_column
        out = np.empty((x.shape[0] + 1, x.shape[1]))
        grid.reshape(n * n, -1).take(grid_rows, axis=0, out=out[:-1], mode="clip")
        del grid
        np.matmul(x[:n, None], same_vertex, out=out[:n, None])
    out[-1] = 0.0
    return out.view(complex)


def _shift_blocks(blocks: np.ndarray, sides: _Sides, k: int) -> np.ndarray:
    """The shift from side k to the next side, and after-shift dephasing, as a new array.

    blocks is side k's array as _toss_blocks gives it, its half layout and
    a zero row, and the shift one gather of it through the side's cached
    index, which takes the conjugate of each entry read from a block below
    the diagonal by negating its imaginary part (_Sides.block_indices).
    The entries below the diagonal of the result's same-vertex blocks are
    not conjugated: every reader takes them from their mirrors.
    """
    index, conjugate = sides.block_indices[k]
    out = blocks.ravel()[index]
    if conjugate.size:
        floats = out.view(float).ravel()
        floats[conjugate] = -floats[conjugate]
    step = sides.step
    if step.placement == "after-shift" and step.vertex_dephasing > 0.0:
        out[sides.sides[sides.at(k + 1)].size:] *= 1.0 - step.vertex_dephasing
    return out


# ----------------------------------------------------------------------
# deterministic evolution

def unitary_step(psi: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a pure state one step: shift after coin.

    It is the step that evolve takes, through the gather of the whole
    graph's side (StepMap._whole). A psi, an array or a list, of another
    shape than (N*d,) raises StructureError.
    """
    if not step.is_unitary:
        raise StructureError(
            "unitary_step requires a StepMap without measurement options; "
            "use cp_step on a density matrix instead"
        )
    psi = np.asarray(psi)
    size = step.shift.permutation.size
    if psi.shape != (size,):
        raise StructureError(f"pure state needs N*d = {size} amplitudes, got shape {psi.shape}")
    return _pure_step(psi, step._whole, 0)


def vertex_dephasing(rho: np.ndarray, p: float, degree: int) -> np.ndarray:
    """Scale matrix elements between different vertices by (1 - p).

    Coin coherences within a vertex are untouched, so the diagonal and
    the trace are exactly preserved. p=0 is the identity; p=1 removes
    all position coherence. This dense form is the reference that
    cp_step's structured channel is tested against.
    """
    _check_real(p, "vertex dephasing strength", 0.0, 1.0)
    if p == 0.0:
        return rho.copy()
    vertex = np.arange(rho.shape[0]) // degree
    return rho * ((1.0 - p) + p * (vertex[:, None] == vertex))


def cp_step(rho: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a density matrix one step through the full channel.

    rho, of any real or complex dtype, is taken as the Hermitian matrix
    that it is: one gather reads its vertex-pair blocks (i, j) with
    i <= j, the complex half layout (_to_half), which is stepped as every
    density walk is, and one gather gives back a new C-ordered complex
    matrix, Hermitian bit for bit (_from_half). A rho of another shape
    than (N*d, N*d) raises StructureError. Besides rho, a step holds at
    most one and a half copies of it at once, two and a half while a
    per-vertex coin is tossed.
    """
    size = step.shift.permutation.size
    if np.shape(rho) != (size, size):
        raise StructureError(f"density matrix needs shape (N*d, N*d) = ({size}, {size}), "
                             f"got shape {np.shape(rho)}")
    sides = step._whole
    blocks = _to_half(rho, sides.boundaries[0])
    # each stage's input is freed as its result is bound
    blocks = _toss_blocks(blocks, sides, 0)
    blocks = _shift_blocks(blocks, sides, 0)
    return _from_half(blocks, sides.boundaries[0])


def _pure_step(psi: np.ndarray, sides: _Sides, k: int) -> np.ndarray:
    """The coin and the shift on a pure state on side k's ports, as a new state on the next side's."""
    sources, (vertex, port) = sides.moves[k]
    out = _apply_coin(sides.coins[k], psi).take(sources)
    if vertex.size:
        out.reshape(-1, sides.step.shift.degree)[vertex, port] = 0
    return out


def _pure_walk(psi0: np.ndarray, sides: _Sides, steps: int) -> Iterator[np.ndarray]:
    """evolve's pure states on the sides of a cone, from psi0 over the whole graph's ports.

    The state at time t is on the ports of side sides.at(t), and each
    advanced state's norm is checked.
    """
    psi = sides.start(psi0)
    yield psi
    for t in range(steps):
        psi = _pure_step(psi, sides, sides.at(t))
        check_pure(psi)
        yield psi


def _density_walk(
    psi0: np.ndarray, sides: _Sides, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """evolve's density states on the sides of a cone, each with its position distribution.

    The state at time t is the half layout of side sides.at(t), the
    n (n + 1) / 2 blocks (i, j) with i <= j of its vertex pairs
    (_matrix_boundary), and the distribution on that side's vertices is
    read off the diagonal of its same-vertex blocks with the trace check
    (_read_blocks). rho is Hermitian and every stage of the step keeps it
    so, so the blocks below the diagonal are never held: the shift reads
    them as the conjugate transposes of those above. Each stage's input is
    freed as its result is bound, the spent state before the shift's
    gather, so beside what its caller keeps the walk holds at most two
    states at once; a stacked coin's toss holds the side's whole grid of
    blocks twice for a while.
    """
    blocks = _pure_blocks(sides.start(psi0), sides.sides[0].size)
    yield blocks, _read_blocks(blocks)
    for t in range(steps):
        k = sides.at(t)
        blocks = _toss_blocks(blocks, sides, k)
        blocks = _shift_blocks(blocks, sides, k)
        yield blocks, _read_blocks(blocks)


def evolve(psi0: np.ndarray, step: StepMap, steps: int) -> Iterator[np.ndarray]:
    """Yield the walk's state at every time 0..steps.

    The states are pure vectors advanced by unitary_step when the step
    is unitary, and C-ordered density matrices advanced as cp_step
    advances them otherwise. Every advanced state gets an O(N*d) check,
    of its norm or of its diagonal and trace, which raises
    InvariantViolation; a step count that is no nonnegative integer
    raises ConfigError.
    """
    psi0 = _checked_start(psi0, step, steps)
    if step.is_unitary:
        return _pure_walk(psi0, step._whole, steps)
    # map holds no state once it is converted, so the walk can free it
    walk = _density_walk(psi0, step._whole, steps)
    return map(partial(_from_half, boundary=step._whole.boundaries[0]), map(itemgetter(0), walk))


def _checked_start(psi0, step: StepMap, steps: int) -> np.ndarray:
    """psi0 as an array, once steps is checked as a step count and psi0 as a start state.

    A start of another shape than (N*d,) raises StructureError, and one
    that check_pure rejects InvariantViolation. Every walk reads the array
    returned, never the caller's object, so a list walks as its array does.
    """
    _check_count(steps)
    psi0 = np.asarray(psi0)
    size = step.shift.permutation.size
    if psi0.shape != (size,):
        raise StructureError(f"start state needs N*d = {size} amplitudes, got shape {psi0.shape}")
    check_pure(psi0)
    return psi0


def _cone_ports(vertices: np.ndarray, degree: int) -> np.ndarray:
    """Flat indices of every port of the given vertices, in vertex order."""
    return (vertices[:, None] * degree + np.arange(degree)).ravel()


def _light_cone(psi0: np.ndarray, step: StepMap, steps: int) -> _Sides:
    """The vertices that the walk from psi0 reaches in steps steps, as the sides of its cone.

    The cone starts as the vertices of psi0's support and grows through
    the shift once per step, until it stops growing, and each vertex is
    labelled by the parity of the step that first reaches it. Each level of
    the walk follows the moves of its frontier's own ports, once each: in
    Python while they are _FEW_MOVES or fewer, by numpy gathers beyond, and
    no table of the whole graph's moves is built. The last level's moves
    are followed only to see which vertices they join.

    The cone has two sides, the vertices of even and of odd parity, when
    every move of the step between two cone vertices joins them, so that
    a port that the shift sends to its own vertex, such as a self-loop or
    an unused port, leaves one side; and when each side holds at least two
    vertices, since a one-vertex side would make one-row products, which
    numpy hands to gemv, which rounds otherwise. Else the one side is
    every cone vertex. psi0 and steps are as _checked_start returns and
    checks them.
    """
    shift = step.shift
    n, d = shift.num_vertices, shift.degree
    frontier = np.flatnonzero(psi0) // d
    # psi0's vertices, each once: its ports come in order
    frontier = frontier[np.concatenate(([True], frontier[1:] != frontier[:-1]))]
    # the parity of each vertex's first reach, 2 until it is reached
    parity = np.full(n, 2, dtype=np.int8)
    parity[frontier] = 0
    moves, labels = memoryview(shift.permutation), memoryview(parity)
    table = shift.permutation.reshape(n, d)
    # each parity's vertices: the ints of Python's levels, the arrays of numpy's
    found, arrays = ([], []), ([frontier], [])
    same_side = False
    for t in range(steps + 1):
        side, grow = t % 2, t < steps
        if len(frontier) * d <= _FEW_MOVES:
            if not isinstance(frontier, list):
                frontier = frontier.tolist()
            frontier, same_side = _python_level(frontier, moves, labels, d, side, grow, same_side)
            found[1 - side].extend(frontier)
        else:
            frontier, same_side = _numpy_level(frontier, table, parity, side, grow, same_side)
            arrays[1 - side].append(frontier)
        if not len(frontier):
            break
    even, odd = (np.concatenate([np.array(found[q], dtype=np.intp), *arrays[q]]) for q in (0, 1))
    if same_side or min(even.size, odd.size) < 2:
        cone = np.concatenate((even, odd))
        cone.sort()
        return _Sides(step, (cone,))
    even.sort()
    odd.sort()
    return _Sides(step, (even, odd))


def _python_level(
    frontier: list, moves: memoryview, labels: memoryview, d: int, side: int, grow: bool,
    same: bool,
) -> tuple[list, bool]:
    """One level of _light_cone's walk, move by move through memoryviews.

    frontier holds the vertices of parity side last reached, moves is the
    shift's permutation and labels the parity of each vertex (2 if not
    reached). With grow, each vertex that a move of the frontier reaches
    first is labelled by the other parity. Returns those vertices, and
    whether a move joins two vertices of one parity: same, or one of the
    frontier's moves.
    """
    fresh = []
    other = 1 - side
    for v in frontier:
        for w in moves[v * d:v * d + d]:
            w //= d
            label = labels[w]
            if label == 2:
                if grow:
                    labels[w] = other
                    fresh.append(w)
            elif label == side:
                same = True
    return fresh, same


def _numpy_level(
    frontier, table: np.ndarray, parity: np.ndarray, side: int, grow: bool, same: bool
) -> tuple[np.ndarray, bool]:
    """_python_level by numpy gathers of only the frontier's rows of the (N, d) permutation."""
    reached = table.take(frontier, axis=0)
    reached //= table.shape[1]
    reached = reached.ravel()
    reached.sort()
    label = parity[reached]
    if not same:
        same = np.count_nonzero(label == side) > 0
    if not grow:
        return reached[:0], same
    # each fresh vertex once: a frontier with repeats would count paths
    fresh = label == 2
    fresh[1:] &= reached[1:] != reached[:-1]
    reached = reached[fresh]
    parity[reached] = 1 - side
    return reached, same


def _half_gather_index(
    sources: np.ndarray, boundary: tuple[np.ndarray, np.ndarray],
    pairs: tuple[np.ndarray, np.ndarray], table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(index, conjugate): the read-only gather that moves a half layout as the ports move.

    sources is an (n', d) array: sources[i', a'] is the flat port i d + a of
    a state over m vertices that port (i', a') reads, and boundary the
    (i', a') of the ports that read none; pairs are the _half_pairs of the
    n' vertices, and table the _pair_rows of the m. The index takes
    _toss_blocks' array of that state, its half layout and a zero row, to
    the half layout of the state the ports read. Entry (a', b') of block
    (i', j'), i' <= j', reads rho's entry at the sources (i, a) and (j, b)
    of (i', a') and (j', b'): entry (a, b) of the row of (i, j) when
    i <= j, entry (b, a) of the row of (j, i) when the source block lies
    below the diagonal, i > j, and the zero row when either port lies at
    the boundary, whose port reads the table's last row or column.
    conjugate holds the positions, in the gathered array's floats, of the
    imaginary parts of the entries read from below the diagonal, which the
    gather's result negates; an entry below the diagonal of a same-vertex
    block of the result is left out, as no reader takes it (_toss_blocks
    and _matrix_boundary read its mirror).
    """
    n, d = sources.shape
    edge = (len(table) - 1) * d
    sources = sources.copy()
    sources[boundary] = edge
    i, j = pairs
    # the flat source ports of each entry's row and column port, as whole
    # rows: a broadcast over the (a', b') axes makes numpy buffer its inner
    # loops of d entries
    row = np.repeat(sources.take(i, axis=0), d, axis=1)
    col = np.repeat(sources.take(j, axis=0)[:, None], d, axis=1).reshape(row.shape)
    # below the diagonal the entry reads its mirror: the ports trade places
    below = row // d > col // d
    below &= row < edge
    swapped = np.where(below, col, row)
    np.copyto(col, row, where=below)
    row = swapped
    # entry a d + b of the row of the vertex pair (v, w) of the ports
    # (v, a) and (w, b), in three arrays: row becomes a, then a d + b; v the
    # pair's place v (m + 1) + w in the table, b split off into col, which
    # then holds the index
    v, row = np.divmod(row, d, out=(np.empty_like(row), row))
    v *= len(table) * d
    v += col
    np.divmod(v, d, out=(v, col))
    row *= d
    row += col
    index = table.ravel().take(v, out=col, mode="clip")
    index *= d * d
    index += row
    below[:n, [a * d + b for a in range(d) for b in range(a)]] = False
    conjugate = 2 * np.flatnonzero(below) + 1
    index.flags.writeable = conjugate.flags.writeable = False
    return index, conjugate


class _Sides:
    """The one or two sides of a light cone that its walk alternates between.

    step is the walk's StepMap over the whole graph, and sides holds the
    sorted vertices of each side. At time t the walk stands on side at(t)
    and holds only that side's ports, half layout or block rows; a
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
    def block_factors(self) -> tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray], ...]:
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
        on no port of side k, which read port 0 of it. Both sides' moves
        are found together, in the ports of the sides laid end to end.
        """
        d = self.step.shift.degree
        cone = np.concatenate(self.sides)
        vertex, port = np.divmod(self.step.shift.permutation.reshape(-1, d).take(cone, axis=0), d)
        vertex, port = vertex.ravel(), port.ravel()
        # each move's vertex as a position in cone, where it lands there: on
        # the next side, as every move between two cone vertices does ("clip"
        # compares a vertex beyond the last with the last)
        order = np.argsort(cone)
        ranked = cone[order]
        at = np.searchsorted(ranked, vertex)
        lands = ranked.take(at, mode="clip") == vertex
        sources = np.full(cone.size * d, -1)
        sources[order[at[lands]] * d + port[lands]] = np.flatnonzero(lands)
        boundary = np.flatnonzero(sources < 0)
        if len(self.sides) == 1:
            sources[boundary] = 0
            return (sources, np.divmod(boundary, d)),
        # side 1's ports read side 0's, whose flat ports come first, and
        # side 0's read side 1's
        split = self.sides[0].size * d
        sources[:split] -= split
        sources[boundary] = 0
        cut = np.searchsorted(boundary, split)
        return ((sources[split:], np.divmod(boundary[cut:] - split, d)),
                (sources[:split], np.divmod(boundary[:cut], d)))

    @cached_property
    def block_indices(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per side k, the gather of its _toss_blocks array into the next side's half layout,
        as _half_gather_index gives it: the index and the floats to negate."""
        d = self.step.shift.degree
        pairs = [_half_pairs(side.size) for side in self.sides]
        tables = [_pair_rows(p, side.size) for p, side in zip(pairs, self.sides)]
        return tuple(
            _half_gather_index(sources.reshape(-1, d), boundary, pairs[self.at(k + 1)], table)
            for k, ((sources, boundary), table) in enumerate(zip(self.moves, tables))
        )

    @cached_property
    def boundaries(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per side, its _matrix_boundary, through which cp_step, evolve and run convert."""
        return tuple(_matrix_boundary(side.size, self.step.shift.degree) for side in self.sides)

    @cached_property
    def grids(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per side, (pairs, rows) for a stacked coin's toss: the (n, n) table of the half
        layout's row of each pair (_pair_rows), and the position i n + j in the n x n grid of
        the pair (i, j) of each row of the half layout."""
        grids = []
        for side in self.sides:
            n = side.size
            i, j = _half_pairs(n)
            grids.append((_pair_rows((i, j), n)[:n, :n].copy(), i * n + j))
        return tuple(grids)


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
    returns; so are a density walk's gathers, before the caller holds its
    own arrays, so that their scratch adds to no step's peak. The walk is
    evolved on the sides of the cone, and the vertices at time t are the
    sorted vertices of the side it stands on; the distribution is zero on
    every other vertex.
    """
    psi0 = _checked_start(psi0, step, steps)
    sides = _light_cone(psi0, step, steps)
    # map holds no state once its marginal is taken, so the walk can free it
    if step.is_unitary:
        marginal = partial(_pure_position_marginal, degree=step.shift.degree)
        marginals = map(marginal, _pure_walk(psi0, sides, steps))
    else:
        if steps:
            sides.block_indices
        marginals = map(itemgetter(1), _density_walk(psi0, sides, steps))
    return zip(itertools.cycle(sides.sides), marginals)


def run(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Evolve a pure initial state for the given number of steps.

    Returns the density matrix at time steps; steps=0 gives the initial
    projector. The walk is evolved on the sides of its light cone, and the
    final state is put in place in the full matrix. This is a small-N
    helper: the dense (N d) x (N d) return is kept for tests and the
    acceptance suite, and no command calls it; the CLI reads the cone
    marginals.
    """
    psi0 = _checked_start(psi0, step, steps)
    sides = _light_cone(psi0, step, steps)
    if step.is_unitary:
        for psi in _pure_walk(psi0, sides, steps):
            pass
        state = to_density(psi)
    else:
        for blocks, _ in _density_walk(psi0, sides, steps):
            pass
        state = _from_half(blocks, sides.boundaries[sides.at(steps)])
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


def _coin_masses(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """(S, d) array: per coin index, the mass of each state of the (n, S, d) block x.

    Entry [s, a] adds re**2 + im**2 of x[j, s, a] over the vertices j one
    at a time, in vertex order (_sum_rows_in_order). Adding a zero leaves
    such a sum unchanged, so vertices that hold no amplitude, such as those
    outside a light cone, do not change a mass. The squares go to scratch,
    when given (_squared_moduli).
    """
    return _sum_rows_in_order(_squared_moduli(x, scratch))


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


def _measure_vertices(
    psi: np.ndarray, u: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Read the vertex of each state of the (n, S, d) block psi with its Born probability.

    psi is projected in place onto the vertices read and renormalized, and
    the vertices are returned. The draw's normaliser and the projection's
    norm are coin masses summed in order, so vertices without amplitude
    change neither. The squared moduli, formed once for the position
    marginal and the masses, go to scratch when given (_squared_moduli).
    """
    s = psi.shape[1]
    sq = _squared_moduli(psi, scratch)
    pv = _vertex_sums(sq)
    total = _sequential_sum(_sum_rows_in_order(sq))
    del sq
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
    last = (samples - 1) * degree
    if compact and start.max(initial=0) + last <= np.iinfo(np.int32).max:
        start = start.astype(np.int32)
    return start + np.arange(0, last + 1, degree, dtype=start.dtype)[:, None]


def _form_branches(
    phi: np.ndarray, kraus: np.ndarray, tiled: np.ndarray | None, i: np.ndarray, w: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """K_i phi / sqrt(w) in place on the (n, S, d) block phi: state s by K_{i[s]} over sqrt(w[s]).

    numpy divides a complex number by (r, 0) as a product with 1 / r, so
    the floats are scaled by that. One state is the same memory in either
    layout, and its branch is formed faster from tiled, the diagonals
    tiled over at least n vertices, when given, than by a broadcast over
    vertices; the tiles of n vertices are the first n d entries of a row.
    A product broadcast over the vertices would take numpy's buffer of
    np.getbufsize() entries, so each factor is copied out over the
    vertices into scratch, spent C-ordered memory of at least phi.size
    complex numbers (np.copyto needs no buffer), and the products are taken
    on equal shapes.
    """
    n, s, d = phi.shape
    if s == 1 and tiled is not None:
        flat = phi.reshape(-1)
        flat *= tiled[i[0], :flat.size]
        floats = flat.view(float)
        floats *= 1.0 / math.sqrt(w[0])
        return
    factor = np.ndarray(phi.shape, complex, scratch)
    np.copyto(factor, kraus[i])
    phi *= factor
    floats = phi.view(float).reshape(n, -1)
    scales = np.ndarray(floats.shape, float, scratch)
    np.copyto(scales, np.repeat(1.0 / np.sqrt(w), 2 * d))
    floats *= scales


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
    the block, as the next side's block psi, with read(t, psi, vertices,
    scratch), when given, measuring their vertex in place at the step's
    placement, vertices being the side's (_Sides.vertices_at) and scratch
    spent memory for its squares or None, and yields (psi, rows, i, raw).
    The next step writes over the block it yields.

    Beside the block, a step holds its toss and the gather index of each
    side. The block is spent once tossed, until the shift gathers back
    into it, so it holds the step's scratch: the toss's squared moduli,
    the Kraus factors copied out over the vertices and, before the shift,
    the vertex reading's squares (_squared_moduli, _form_branches). Where
    the enumerator's branches outgrow the block, a new array is the
    scratch. A reading after the shift forms its squares in new arrays, of
    which only the real parts' half a block outlives the sum; the spent
    toss as its scratch would be held whole. One side's index is an intp
    one, half a block. Two sides' are compact (int32) ones, as much
    together, which take casts to intp as it reads them, half a block
    more: refilling one intp index at every step took three times as long
    as the cast.
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
        raw = _born_weights(_coin_masses(phi, block), kraus_sq)
        totals = np.add.reduce(raw, axis=1)
        _check_branch_sums(totals)
        rows, i, w = choose(t, raw, totals)
        if rows is not None:
            phi = phi.take(rows, axis=1)
        scratch = block if block.size >= phi.size else np.empty_like(phi)
        _form_branches(phi, kraus, tiled, i, w, scratch)
        if read is not None and read_before:
            read(t, phi, sides.vertices_at(t), scratch)
        s = phi.shape[1]
        if s != width:  # the enumerator's branches come and go
            width = s
            block = np.empty((len(block), s, d), dtype=complex)
            indices = [_shift_index(sources, d, s, compact) for sources, _ in sides.moves]
        _, (vertex, port) = sides.moves[k]
        psi = block[:sides.sides[sides.at(t + 1)].size]
        # mode="clip" skips the bounds check, for which "raise" buffers out
        phi.reshape(-1).take(indices[k], out=psi, mode="clip")
        del phi, scratch  # so that the next toss does not hold two
        if vertex.size:
            psi[vertex, :, port] = 0
        if read is not None and not read_before:
            read(t, psi, sides.vertices_at(t + 1), None)
        yield psi, rows, i, raw


def _sample_blocks(
    psi0: np.ndarray, step: StepMap, steps: int, seeds: list
) -> tuple[_Sides, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]]:
    """sample_trajectories block by block, as arrays, with the step, start and steps checked.

    Returns the sides of the light cone and an iterator that yields, per
    block of consecutive seeds, the block's final (n, S, d) states on the
    side that the walk ends on (sides.vertices_at(steps)), and (S, steps)
    arrays of the outcomes, the drawn outcomes' probabilities and the
    vertices read (vertices of the whole graph), the last None without
    vertex measurement.
    """
    _require_unravelable(step)
    psi0 = _checked_start(psi0, step, steps)
    sides = _light_cone(psi0, step, steps)
    return sides, _sample_sides(psi0, sides, steps, seeds)


def _uniforms(seeds: list, n: int) -> np.ndarray:
    """The (S, n) doubles that np.random.default_rng(seed).random(n) gives for each seed.

    They are formed without a Generator: each seed's PCG64 gives its n raw
    64-bit draws, and one vectorised (raw >> 11) * 2^-53 over them all is
    the next_double that Generator.random applies to each.
    """
    raw = np.array([np.random.PCG64(seed).random_raw(n) for seed in seeds], dtype=np.uint64)
    return (raw.reshape(len(seeds), n) >> 11) * (1.0 / 2**53)


def _sample_sides(
    psi0: np.ndarray, sides: _Sides, steps: int, seeds: list
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """_sample_blocks' blocks on the sides of a light cone, from psi0 over the whole graph's ports.

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
        uniforms = _uniforms(chunk, steps * draws).reshape(s, steps, draws)
        outcomes = np.empty((s, steps), dtype=int)
        probs = np.empty((s, steps))  # the drawn outcome's probability
        vertices = np.empty((s, steps), dtype=int) if measure_position else None

        def draw(t, raw, totals):
            w = raw / totals[:, None]
            outcomes[:, t] = i = _inverse_cdf(_viable_weights(w), uniforms[:, t, 0])
            drawn = raw[rows, i]
            _check_norms(drawn, "sampled branch")
            probs[:, t] = w[rows, i]
            return None, i, drawn

        def read(t, psi, side_vertices, scratch):
            vertices[:, t] = side_vertices[_measure_vertices(psi, uniforms[:, t, 1], scratch)]

        if block is None or block.shape[1] != s:
            block = np.empty((sides.widest, s, d), dtype=complex)
        psi = block[:len(start)]
        psi[:] = start
        for psi, *_ in _unravel(block, sides, steps, draw, read if measure_position else None):
            pass
        yield psi, outcomes, probs, vertices


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
    time (at least one). Returns, once every argument is checked and the
    cone found, an iterator that yields in seed order the sorted cone
    vertices, the final state on the cone's ports and the record, whose
    vertex outcomes are vertices of the whole graph.
    """
    seeds = list(seeds)
    for seed in seeds:
        _check_count(seed, "seed")
    sides, blocks = _sample_blocks(psi0, step, steps, seeds)
    cone = np.sort(np.concatenate(sides.sides))
    ports = _cone_ports(np.searchsorted(cone, sides.vertices_at(steps)), step.shift.degree)
    return _trajectory_records(cone, ports, blocks, seeds)


def _trajectory_records(
    cone: np.ndarray, ports: np.ndarray, blocks: Iterator, seeds: list
) -> Iterator[tuple[np.ndarray, np.ndarray, TrajectoryRecord]]:
    """sample_trajectories' yields, each block's final states put at ports of the cone's."""
    lo = 0
    for block, outcomes, probs, vertices in blocks:
        s, d = len(outcomes), block.shape[2]
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
    ports = _cone_ports(cone, step.shift.degree)
    return _in_place(final, ports, step.shift.permutation.size), record


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
    _check_real(prune, "prune", 0.0, lo_open=True)
    _require_unravelable(step)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    psi0 = _checked_start(psi0, step, steps)
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
    # an unknown outcome reads the appended False, as one that certifies no coin does;
    # the coins are looked up a step at a time, so that no (S, T) array of them is held
    fixes = np.append(coin_of >= 0, False)[np.where(known, outcomes, len(kraus))]
    if not fixes.all():
        sample, t = np.argwhere(~fixes)[0]
        raise ConfigError(
            f"sample {sample} step {t + 1}: outcome {outcomes[sample, t]} "
            "certifies no single coin state, so it fixes no move"
        )
    del known, fixes
    paths = np.empty((outcomes.shape[0], outcomes.shape[1] + 1), dtype=int)
    paths[:, 0] = start_vertex
    for t in range(outcomes.shape[1]):
        paths[:, t + 1] = step.shift.permutation[paths[:, t] * d + coin_of[outcomes[:, t]]] // d
    return paths
