"""Seeded inputs and output checks for each benchmark workload.

The program receives only the generated files and command-line flags.
The seed picks the start (vertex, port) and, on the torus workloads,
a permutation of the port labels at every vertex, so each seed gives a
different but equally sized problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from coinwalk import (
    Edge,
    PortGraph,
    assign_ports,
    basis_state,
    build_cycle,
    build_cycle_shift,
    from_edge_list,
    make_step,
    save_graph,
)

# Why each workload was chosen:
# - cycle-density: the density-matrix path at the reference size N*d = 512,
#   where meter.apply_kraus and the dense coin sandwich and np.kron
#   expansions inside evolution.cp_step take nearly all the time. A
#   structured step engine has to show its gain here.
# - torus-trajectory: the unravelled path on a d = 4 graph with the DFT
#   coin and the five-operator uniform Kraus family. The meter is sampled,
#   no density matrix is formed, and the records CSV gives the CLI real
#   formatting and writing work.
# - torus-mix: a unitary walk (beta = 0) racing the classical chain on an
#   odd-sided torus, so the chain is aperiodic and crosses epsilon. The
#   meter is never called, so a meter or channel change must leave this
#   workload unchanged; the classical chain's Python loop dominates.


@dataclass(frozen=True)
class Prepared:
    """One workload's command at full and at set-up size, and its checks."""

    full_steps: int
    setup_steps: int
    walk_steps: int  # walk steps the full command advances
    argv: Callable[[int], list[str]]  # step count -> CLI arguments
    check: Callable[[int], list[str]]  # step count -> problems in the outputs


def torus(side: int, rng: np.random.Generator) -> tuple[list[tuple[int, int]], PortGraph]:
    """side x side torus adjacency and its graph with ports permuted per vertex."""
    adjacency = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            adjacency.append((v, r * side + (c + 1) % side))
            adjacency.append((v, ((r + 1) % side) * side + c))
    relabel = [rng.permutation(4) for _ in range(side * side)]
    edges = [Edge(e.u, int(relabel[e.u][e.pu]), e.v, int(relabel[e.v][e.pv]))
             for e in assign_ports(adjacency)]
    return adjacency, from_edge_list(edges)


def _start(rng: np.random.Generator, num_vertices: int, degree: int) -> tuple[int, int]:
    return int(rng.integers(num_vertices)), int(rng.integers(degree))


def cycle_density(seed: int, workdir: Path) -> Prepared:
    n, steps, beta, vertex_p = 256, 20, 0.5, 0.1
    start = _start(np.random.default_rng(seed), n, 2)
    out = workdir / "run.csv"

    def argv(t: int) -> list[str]:
        return ["run", "--cycle", str(n), "--steps", str(t), "--beta", str(beta),
                "--vertex-dephasing", str(vertex_p), "--start", f"{start[0]},{start[1]}",
                "--jobs", "1", "--out", str(out)]

    graph = build_cycle(n)
    step = make_step(graph, shift=build_cycle_shift(n), beta=beta, vertex_p=vertex_p)
    oracle = checks.dense_density_marginals(step, basis_state(graph, *start), 3)
    return Prepared(steps, 0, steps, argv, lambda t: checks.check_run(out, t, n, oracle))


def torus_trajectory(seed: int, workdir: Path) -> Prepared:
    side, steps, samples, beta = 8, 40, 100, 0.5
    rng = np.random.default_rng(seed)
    _adjacency, graph = torus(side, rng)
    start = _start(rng, graph.num_vertices, graph.degree)
    graph_file = workdir / "torus8.json"
    save_graph(graph, str(graph_file))
    base = workdir / "traj"

    def argv(t: int) -> list[str]:
        return ["trajectory", "--graph", str(graph_file), "--beta", str(beta),
                "--steps", str(t), "--samples", str(samples), "--seed", str(seed),
                "--start", f"{start[0]},{start[1]}", "--jobs", "1", "--out", f"{base}.csv"]

    def check(t: int) -> list[str]:
        return checks.check_trajectory(base, t, samples, graph.num_vertices,
                                       graph.degree + 1, seed)

    return Prepared(steps, 0, steps * samples, argv, check)


def torus_mix(seed: int, workdir: Path) -> Prepared:
    side, t_max, epsilon = 15, 1000, 0.05
    rng = np.random.default_rng(seed)
    adjacency, graph = torus(side, rng)
    start = _start(rng, graph.num_vertices, graph.degree)
    graph_file = workdir / "torus15.json"
    save_graph(graph, str(graph_file))
    out = workdir / "mix.csv"
    expected = checks.classical_tvd_curve(
        checks.transition_matrix(adjacency, graph.num_vertices), start[0], t_max
    )

    def argv(t: int) -> list[str]:
        return ["mix", "--graph", str(graph_file), "--t-max", str(t), "--epsilon", str(epsilon),
                "--start", f"{start[0]},{start[1]}", "--jobs", "1", "--out", str(out)]

    return Prepared(t_max, 1, t_max, argv, lambda t: checks.check_mix(out, t, epsilon, expected))


WORKLOADS = {
    "cycle-density": cycle_density,
    "torus-trajectory": torus_trajectory,
    "torus-mix": torus_mix,
}
