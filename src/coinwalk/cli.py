"""Command line front end: coinwalk run | sweep | mix | trajectory.

Each command builds one StepMap before any worker starts, and sweep and
trajectory hand that step to their workers as plain data. Data goes to
CSV, run configuration and provenance to a JSON sidecar next to it; the
sidecar names the graph by partner_sha256, the SHA-256 of
partner.astype("<i8").tobytes(), so it does not grow with the graph. A
command's files all go through graph._write_files, the package's one
writer, which renames them into place only once all are written, so a
failed command leaves no output behind.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import compare_mixing, complementarity_sweep
from .coin import DEFAULT_PHI, coin_spec_from_config, default_coin_type
from .errors import ConfigError, InvariantViolation, StructureError
from .evolution import (
    BORN_WEIGHT_RULE,
    _marginals,
    _sample_blocks,
    _sum_rows_in_order,
    make_step,
    walker_paths,
)
from .graph import _write_files, build_cycle, load_graph, read_json
from .shift import build_cycle_shift, build_shift
from .state import DEFAULT_TOLERANCES, basis_state, pure_position_marginal

RNG_NAME = "numpy.random.default_rng (PCG64)"


# ----------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise ConfigError, so main reports them in one line."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="coinwalk",
        description="Coined quantum walks on port-labeled graphs with "
        "tunable coin measurement.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--cycle", type=int, metavar="N", help="built-in cycle graph")
    source.add_argument("--graph", metavar="FILE", help="graph JSON file")
    common.add_argument(
        "--coin", choices=["hadamard", "dft"], default=None,
        help="coin family (default: hadamard on two-port graphs, dft otherwise)",
    )
    common.add_argument("--coin-file", metavar="FILE", help="coin config JSON, the whole coin")
    common.add_argument("--phi", type=float, default=None,
                        help="phase angle of the hadamard coin (radians, default pi/2)")
    common.add_argument("--shift", choices=["port-swap", "direction-preserving"],
                        default=None,
                        help="shift convention (direction-preserving is cycle-only; "
                        "default: direction-preserving on cycles, port-swap otherwise)")
    common.add_argument("--vertex-dephasing", type=float, default=0.0, metavar="P",
                        help="position dephasing strength in [0,1]")
    common.add_argument("--dephasing-placement",
                        choices=["before-shift", "after-shift"],
                        default="before-shift")
    common.add_argument("--start", default="0,0", metavar="J,K",
                        help="initial (vertex, port) basis state")
    common.add_argument("--jobs", type=int, default=1, metavar="W",
                        help="worker processes for sweep and trajectory")
    common.add_argument("--out", required=True, metavar="PATH", help="output CSV path")

    p_run = sub.add_parser("run", parents=[common],
                           help="evolve one configuration, emit marginals per step")
    p_run.add_argument("--steps", type=int, required=True)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="trade-off curve over a measurement strength grid")
    p_sweep.add_argument("--steps", type=int, required=True)
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--betas", metavar="B1,B2,...", help="explicit grid values")
    grid.add_argument("--beta-points", type=int, metavar="M",
                      help="M evenly spaced values covering [0,1]")

    p_mix = sub.add_parser("mix", parents=[common],
                           help="race time-averaged walk mixing against the classical chain")
    p_mix.add_argument("--t-max", type=int, required=True)
    p_mix.add_argument("--epsilon", type=float, required=True)

    p_traj = sub.add_parser("trajectory", parents=[common],
                            help="sample measurement records")
    p_traj.add_argument("--steps", type=int, required=True)
    p_traj.add_argument("--samples", type=int, required=True)
    p_traj.add_argument("--seed", type=int, default=None,
                        help="root seed of the samples' streams (default: fresh entropy)")
    for p in (p_run, p_mix, p_traj):  # sweep takes its strengths from its grid
        p.add_argument("--beta", type=float, default=0.0, help="coin measurement strength in [0,1]")

    return parser


def _parse_start(text: str) -> tuple[int, int]:
    try:
        j, k = text.split(",")
        return int(j), int(k)
    except ValueError:
        raise ConfigError(f"--start expects 'J,K' with integers, got {text!r}") from None


def _worker_count(jobs: int) -> int:
    """Validate --jobs and cap it at the machine's core count."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


@contextmanager
def _mapper(jobs: int):
    """The builtin map for one job, else the map of a pool of that many processes."""
    if jobs == 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool.map


def _build_setup(args):
    """Resolve the graph, the start state and the command's one StepMap."""
    if args.coin_file is not None and (args.coin, args.phi) != (None, None):
        raise ConfigError("--coin-file holds the whole coin, so it takes no --coin or --phi")
    graph = build_cycle(args.cycle) if args.cycle is not None else load_graph(args.graph)

    if args.coin_file is not None:
        coin_config = read_json(args.coin_file, "coin")
        coin = {"type": "custom", "file": args.coin_file}
    else:
        coin_config = {"type": args.coin or default_coin_type(graph)}
        if args.phi is not None:
            if coin_config["type"] != "hadamard":
                raise ConfigError("--phi sets the phase of a hadamard coin")
            coin_config["phi"] = args.phi
        coin = {"type": coin_config["type"]}
    spec = coin_spec_from_config(coin_config, graph)
    if coin_config["type"] == "hadamard":
        coin["phi"] = float(coin_config.get("phi", DEFAULT_PHI))

    shift_kind = args.shift
    if shift_kind is None:
        shift_kind = "direction-preserving" if args.cycle is not None else "port-swap"
    if shift_kind == "direction-preserving":
        if args.cycle is None:
            raise ConfigError("--shift direction-preserving is defined on --cycle graphs only")
        shift = build_cycle_shift(args.cycle)
    else:
        shift = build_shift(graph)

    args.jobs = _worker_count(args.jobs)

    start = _parse_start(args.start)
    psi0 = basis_state(graph, *start)

    beta = getattr(args, "beta", None)  # None on sweep, which has no --beta
    step = make_step(graph, spec, shift, 0.0 if beta is None else beta, args.vertex_dephasing,
                     args.dephasing_placement)
    description = {
        "graph": {
            "source": f"cycle:{args.cycle}" if args.cycle is not None else args.graph,
            "vertices": graph.num_vertices,
            "degree": graph.degree,
            "partner_sha256": hashlib.sha256(graph.partner.astype("<i8", copy=False)).hexdigest(),
        },
        "coin": coin,
        "shift": shift.kind,
        **({} if beta is None else {"beta": beta}),
        "vertex_dephasing": args.vertex_dephasing,
        "dephasing_placement": args.dephasing_placement,
        "start": {"vertex": start[0], "port": start[1]},
    }
    return graph, psi0, step, description


# ----------------------------------------------------------------------
# output helpers

def _write_outputs(args, files: dict, description: dict, extra: dict) -> None:
    """Write a command's files and <out>.meta.json, json.dumps(meta, indent=1, sort_keys=True)."""
    meta = {
        "tool": "coinwalk",
        "version": __version__,
        "command": args.command,
        "configuration": description,
        "rng": RNG_NAME,
        "tolerances": asdict(DEFAULT_TOLERANCES),
    }
    meta.update(extra)
    sidecar = args.out.removesuffix(".csv") + ".meta.json"
    _write_files({**files, sidecar: [json.dumps(meta, indent=1, sort_keys=True) + "\n"]})


# ----------------------------------------------------------------------
# commands

def cmd_run(args) -> int:
    _graph, psi0, step, description = _build_setup(args)
    lines = ["t,vertex,probability\n"]
    # the cone's vertices are sorted, so rows go by t, then by vertex
    for t, (vertices, marginal) in enumerate(_marginals(psi0, step, args.steps)):
        nonzero = np.flatnonzero(marginal)
        rows = zip(vertices[nonzero].tolist(), marginal[nonzero].tolist())
        lines += [f"{t},{v},{p!r}\n" for v, p in rows]
    description["steps"] = args.steps
    output = {"output": {"csv": args.out, "rows": len(lines) - 1}}
    _write_outputs(args, {args.out: lines}, description, output)
    return 0


def cmd_sweep(args) -> int:
    graph, psi0, step, description = _build_setup(args)
    if args.betas is not None:
        try:
            betas = sorted(float(x) for x in args.betas.split(","))
        except ValueError:
            raise ConfigError(f"--betas expects comma-separated floats, got {args.betas!r}") from None
    else:
        if args.beta_points < 2:
            raise ConfigError("--beta-points must be at least 2")
        betas = np.linspace(0.0, 1.0, args.beta_points).tolist()

    with _mapper(args.jobs) as map_fn:
        points = complementarity_sweep(graph, step, psi0, args.steps, betas, map_fn=map_fn)

    lines = ["beta,visibility,distinguishability,tvd_to_unitary,tvd_to_classical\n"]
    for pt in points:
        values = (pt.beta, pt.visibility, pt.distinguishability,
                  pt.tvd_to_unitary, pt.tvd_to_classical)
        lines.append(",".join(map(repr, values)) + "\n")
    description["steps"] = args.steps
    description["betas"] = betas
    _write_outputs(args, {args.out: lines}, description,
                   {"output": {"csv": args.out, "rows": len(points)}})
    return 0


def cmd_mix(args) -> int:
    graph, psi0, step, description = _build_setup(args)
    result = compare_mixing(graph, step, psi0, args.t_max, args.epsilon)

    lines = ["t,tvd_quantum_time_averaged,tvd_classical\n"]
    for t, q, c in zip(result.quantum.times, result.quantum.tvd_to_uniform,
                       result.classical.tvd_to_uniform):
        lines.append(f"{t},{q!r},{c!r}\n")
    description["t_max"] = args.t_max
    description["epsilon"] = args.epsilon
    _write_outputs(args, {args.out: lines}, description, {
        "result": {
            "quantum_crossing": result.quantum_crossing,
            "classical_crossing": result.classical_crossing,
            "first_to_cross": result.first_to_cross,
            "quantum_variant": result.quantum.variant,
            "classical_variant": result.classical.variant,
        },
        "output": {"csv": args.out, "rows": args.t_max + 1},
    })
    return 0


def _trajectory_chunk(task) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The light cone's vertices, and per block of seeds, one row per seed, the
    outcomes, the outcome probabilities and the final cone marginals."""
    psi0, step, steps, seeds = task
    blocks = []
    for cone, final, outcomes, probs, _vertices in _sample_blocks(psi0, step, steps, seeds):
        n, s, d = final.shape
        # C-ordered, so that the rows are added in sample order (_sum_rows_in_order)
        marginals = np.ascontiguousarray(pure_position_marginal(final, d).reshape(n, s).T)
        blocks.append((outcomes, probs, marginals))
    return cone, blocks


def cmd_trajectory(args) -> int:
    graph, psi0, step, description = _build_setup(args)
    if args.samples < 1:
        raise ConfigError(f"--samples must be positive, got {args.samples}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")

    root_seed = args.seed
    if root_seed is None:
        root_seed = int(np.random.SeedSequence().entropy) % (2**63)
    sample_seeds = [
        int(s) for s in np.random.SeedSequence(root_seed).generate_state(
            args.samples, dtype=np.uint64
        )
    ]

    # contiguous chunks, so the chunks' results are in sample order
    size = -(-args.samples // args.jobs)
    tasks = [
        (psi0, step, args.steps, sample_seeds[i: i + size])
        for i in range(0, args.samples, size)
    ]
    with _mapper(args.jobs) as map_fn:
        chunks = list(map_fn(_trajectory_chunk, tasks))
    cone = chunks[0][0]  # every chunk walks the same light cone
    blocks = [block for _cone, chunk_blocks in chunks for block in chunk_blocks]
    outcomes, probs, marginals = map(np.concatenate, zip(*blocks))
    del chunks, blocks  # now copied into one row per sample

    times = range(1, args.steps + 1)
    record_lines = ["sample,step,outcome,probability\n"]
    for index in range(args.samples):
        rows = zip(times, outcomes[index].tolist(), probs[index].tolist())
        record_lines += [f"{index},{t},{o},{p!r}\n" for t, o, p in rows]

    # the marginals are added in sample order, as the samples come
    aggregate = np.zeros(graph.num_vertices)
    aggregate[cone] = _sum_rows_in_order(marginals) / args.samples
    hist_lines = ["vertex,probability\n"] + [f"{v},{p!r}\n" for v, p in enumerate(aggregate.tolist())]

    base = args.out.removesuffix(".csv")
    records_path = base + "_records.csv"
    hist_path = base + "_histogram.csv"
    files = {records_path: record_lines, hist_path: hist_lines}

    paths_path = None
    if args.beta == 1.0:
        paths = walker_paths(step, description["start"]["vertex"], outcomes)
        path_lines = ["sample,step,vertex\n"]
        for index, walk in enumerate(paths.tolist()):
            path_lines += [f"{index},{t},{vertex}\n" for t, vertex in enumerate(walk)]
        paths_path = base + "_paths.csv"
        files[paths_path] = path_lines

    description["steps"] = args.steps
    description["samples"] = args.samples
    _write_outputs(args, files, description, {
        "born_weights": BORN_WEIGHT_RULE,
        "seed": {
            "root": root_seed,
            "per_sample": "uint64 stream generated from the root seed, index order",
        },
        "output": {
            "records_csv": records_path,
            "histogram_csv": hist_path,
            "paths_csv": paths_path,
            "path_reconstruction": paths_path is not None,
        },
    })
    return 0


# ----------------------------------------------------------------------

COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "mix": cmd_mix,
    "trajectory": cmd_trajectory,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (ConfigError, StructureError) as exc:
        print(f"coinwalk: configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. numpy refuses a graph too large to hold
        print(f"coinwalk: configuration error: out of memory: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"coinwalk: numerical invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
