import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coinwalk import (
    DEFAULT_TOLERANCES,
    ConfigError,
    basis_state,
    build_cycle,
    build_cycle_shift,
    classical_run,
    load_graph,
    make_step,
    marginal_history,
    save_graph,
    tvd,
    walker_paths,
)
from coinwalk import PortGraph, cli
from coinwalk.cli import main
from coinwalk.coin import dft_coin, hadamard_phi

from conftest import MULTI_ADJACENCY, port_permuted_torus
from oracles import whole_graph


def partner_sha256(graph):
    """The sidecar's name for a graph, as the README defines it."""
    return hashlib.sha256(graph.partner.astype("<i8").tobytes()).hexdigest()


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def marginal_table(path):
    """CSV rows (t, vertex, probability) as a {(t, vertex): p} dict."""
    _, rows = read_rows(path)
    return {(int(t), int(v)): float(p) for t, v, p in rows}


def test_run_emits_marginals_per_step(tmp_path):
    out = tmp_path / "walk.csv"
    assert main(["run", "--cycle", "7", "--steps", "2", "--out", str(out)]) == 0
    table = marginal_table(out)
    assert table[(0, 0)] == 1.0
    assert table[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert table[(1, 6)] == pytest.approx(0.5, abs=1e-12)
    assert table[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert table[(2, 2)] == pytest.approx(0.25, abs=1e-12)
    assert table[(2, 5)] == pytest.approx(0.25, abs=1e-12)
    assert (2, 1) not in table  # zero-probability rows are omitted
    meta = json.loads((tmp_path / "walk.meta.json").read_text())
    assert meta["tool"] == "coinwalk"
    assert meta["command"] == "run"
    assert meta["configuration"]["graph"]["vertices"] == 7
    assert meta["configuration"]["shift"] == "direction-preserving"
    saved = tmp_path / "cycle7.json"
    save_graph(build_cycle(7), str(saved))
    assert meta["configuration"]["graph"]["partner_sha256"] == partner_sha256(load_graph(str(saved)))


def test_run_rows_are_the_nonzero_entries_in_time_then_vertex_order(tmp_path):
    # the rows the CSV held when it was written by a loop over every entry
    out = tmp_path / "walk.csv"
    argv = ["run", "--cycle", "31", "--steps", "6", "--beta", "0.5", "--start", "5,1"]
    assert main(argv + ["--out", str(out)]) == 0
    graph = build_cycle(31)
    step = make_step(graph, shift=build_cycle_shift(31), beta=0.5)
    expected = ["t,vertex,probability"]
    for t, row in enumerate(marginal_history(basis_state(graph, 5, 1), step, 6)):
        for v, prob in enumerate(row):
            if prob != 0.0:
                expected.append(f"{t},{v},{float(prob)!r}")
    assert out.read_text().splitlines() == expected


def test_run_zero_steps_single_row(tmp_path):
    out = tmp_path / "zero.csv"
    assert main(["run", "--cycle", "5", "--steps", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["t,vertex,probability", "0,0,1.0"]


def test_run_at_full_strength_reproduces_the_chain(tmp_path):
    out = tmp_path / "measured.csv"
    assert main(
        ["run", "--cycle", "7", "--steps", "3", "--beta", "1.0", "--out", str(out)]
    ) == 0
    table = marginal_table(out)
    expected = classical_run(np.eye(7)[0], __import__("coinwalk").build_cycle(7), 3)
    for v in range(7):
        assert table.get((3, v), 0.0) == pytest.approx(expected[v], abs=1e-10)
    assert table[(3, 1)] == pytest.approx(0.375, abs=1e-10)


def test_sweep_grid_anchors_and_determinism(tmp_path):
    out_a = tmp_path / "sweep_a.csv"
    out_b = tmp_path / "sweep_b.csv"
    argv = ["sweep", "--cycle", "7", "--steps", "10", "--beta-points", "11"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    header, rows = read_rows(out_a)
    assert header == [
        "beta", "visibility", "distinguishability", "tvd_to_unitary",
        "tvd_to_classical",
    ]
    assert len(rows) == 11
    betas = [float(r[0]) for r in rows]
    assert betas == sorted(betas)
    assert betas[0] == 0.0 and betas[-1] == 1.0
    first, last = rows[0], rows[-1]
    assert float(first[3]) == 0.0  # beta=0 sits on the unmeasured anchor
    assert float(last[4]) < 1e-10  # beta=1 sits on the classical anchor
    for r in rows:
        assert float(r[1]) ** 2 + float(r[2]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_sweep_parallel_matches_serial(tmp_path):
    # on the DFT torus (d = 4) every measured step the workers get is the
    # uniform dephasing family over a shared (4, 4) coin block
    torus_path = tmp_path / "torus.json"
    save_graph(port_permuted_torus(4, np.random.default_rng(3)), str(torus_path))
    for source in (["--cycle", "5"], ["--graph", str(torus_path), "--vertex-dephasing", "0.2"]):
        base = ["sweep", *source, "--steps", "8", "--betas", "0.75,0.0,0.25,1.0"]
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "parallel.csv"
        assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, rows = read_rows(out1)
        assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.75, 1.0]


def test_a_bad_trajectory_beta_is_rejected_before_any_pool_starts(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--cycle", "7", "--beta", "-0.5", "--steps", "2",
                 "--samples", "4", "--jobs", "2", "--out", str(out)]) == 2
    assert "measurement strength beta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["run", "--steps", "2"],
    ["mix", "--t-max", "2", "--epsilon", "0.5"],
    ["sweep", "--steps", "2", "--betas", "0,1"],
])
def test_only_trajectory_takes_a_seed(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert main([*command, "--cycle", "5", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 1" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("beta", ["0", "0.7"])
def test_sweep_takes_no_beta(tmp_path, capsys, beta):
    """sweep takes its strengths from --betas or --beta-points, and argparse names the clash."""
    out = tmp_path / "x.csv"
    assert main(["sweep", "--cycle", "7", "--steps", "2", "--betas", "0,1", "--beta", beta,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ambiguous option: --beta could match --betas, --beta-points" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=" ".join)
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("entry, message", [
    (5, "edges[1]: TypeError(\"'int' object is not subscriptable\")"),
    ({"u": 1, "pu": 0, "v": 2}, "edges[1]: KeyError('pv')"),
])
def test_a_graph_file_edge_that_is_no_edge_object_exits_2(tmp_path, capsys, entry, message):
    edges = [{"u": 0, "pu": 0, "v": 1, "pv": 1}, entry]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": 3, "degree": 2, "edges": edges}))
    out = tmp_path / "out.csv"
    assert main(["run", "--graph", str(graph), "--steps", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"coinwalk: configuration error: {graph}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.json"]


def test_mix_reports_the_crossing_race(tmp_path):
    out = tmp_path / "mix.csv"
    assert main(
        ["mix", "--cycle", "7", "--t-max", "40", "--epsilon", "0.05",
         "--out", str(out)]
    ) == 0
    meta = json.loads((tmp_path / "mix.meta.json").read_text())
    assert meta["result"]["quantum_crossing"] == 20
    assert meta["result"]["classical_crossing"] == 25
    assert meta["result"]["first_to_cross"] == "quantum"
    header, rows = read_rows(out)
    assert header == ["t", "tvd_quantum_time_averaged", "tvd_classical"]
    assert len(rows) == 41


def test_mix_on_even_cycle_shows_no_classical_crossing(tmp_path):
    out = tmp_path / "even.csv"
    assert main(
        ["mix", "--cycle", "6", "--t-max", "60", "--epsilon", "0.05",
         "--out", str(out)]
    ) == 0
    meta = json.loads((tmp_path / "even.meta.json").read_text())
    assert meta["result"]["classical_crossing"] is None


def test_mix_with_unit_epsilon_crosses_immediately(tmp_path):
    out = tmp_path / "unit.csv"
    assert main(
        ["mix", "--cycle", "7", "--t-max", "5", "--epsilon", "1.0",
         "--out", str(out)]
    ) == 0
    meta = json.loads((tmp_path / "unit.meta.json").read_text())
    assert meta["result"]["quantum_crossing"] == 0
    assert meta["result"]["classical_crossing"] == 0


def test_trajectory_files_are_mutually_consistent(tmp_path):
    out = tmp_path / "traj.csv"
    argv = [
        "trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "5",
        "--samples", "3", "--seed", "11", "--out", str(out),
    ]
    assert main(argv) == 0
    _, record_rows = read_rows(tmp_path / "traj_records.csv")
    assert len(record_rows) == 15  # 3 samples x 5 steps
    outcomes = {}
    for sample, t, outcome, prob in record_rows:
        outcomes.setdefault(int(sample), []).append(int(outcome))
        assert float(prob) == pytest.approx(0.5, abs=1e-12)

    _, path_rows = read_rows(tmp_path / "traj_paths.csv")
    paths = {}
    for sample, t, vertex in path_rows:
        paths.setdefault(int(sample), []).append(int(vertex))
    step = make_step(build_cycle(7), shift=build_cycle_shift(7), beta=1.0)
    for sample, walk in paths.items():
        assert walk == walker_paths(step, 0, [outcomes[sample]])[0].tolist()

    _, hist_rows = read_rows(tmp_path / "traj_histogram.csv")
    hist = {int(v): float(p) for v, p in hist_rows}
    finals = [walk[-1] for walk in paths.values()]
    for v in range(7):
        assert hist[v] == pytest.approx(finals.count(v) / 3, abs=1e-12)

    meta = json.loads((tmp_path / "traj.meta.json").read_text())
    assert meta["seed"]["root"] == 11
    assert meta["output"]["path_reconstruction"] is True


def test_every_beta_one_trajectory_writes_the_paths_its_histogram_ends_on(tmp_path):
    torus_path = tmp_path / "torus.json"
    save_graph(port_permuted_torus(4, np.random.default_rng(6)), str(torus_path))
    argv = ["trajectory", "--beta", "1.0", "--steps", "6", "--samples", "5", "--seed", "2"]
    sources = {"dp": ["--cycle", "7", "--shift", "direction-preserving"],
               "ps": ["--cycle", "7", "--shift", "port-swap"],
               "torus": ["--graph", str(torus_path), "--start", "5,2"]}
    for name, source in sources.items():
        assert main(argv + source + ["--out", str(tmp_path / f"{name}.csv")]) == 0
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert meta["output"]["path_reconstruction"] is True
        assert meta["output"]["paths_csv"] == str(tmp_path / f"{name}_paths.csv")
        _, path_rows = read_rows(tmp_path / f"{name}_paths.csv")
        assert len(path_rows) == 5 * 7
        assert [int(v) for _, t, v in path_rows if t == "0"] == [meta["configuration"]["start"]["vertex"]] * 5
        # at beta = 1 each sample's final state sits at its path's last vertex
        ends = [int(v) for _, t, v in path_rows if t == "6"]
        _, hist_rows = read_rows(tmp_path / f"{name}_histogram.csv")
        for v, p in hist_rows:
            assert float(p) == pytest.approx(ends.count(int(v)) / 5, abs=1e-12)


def test_trajectory_reruns_and_parallelism_are_deterministic(tmp_path):
    argv = [
        "trajectory", "--cycle", "7", "--beta", "0.6", "--steps", "8",
        "--samples", "6", "--seed", "303",
    ]
    for jobs, name in (("1", "a"), ("1", "b"), ("3", "c")):
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / f"{name}.csv")]) == 0
    a = (tmp_path / "a_records.csv").read_bytes()
    assert a == (tmp_path / "b_records.csv").read_bytes()
    assert a == (tmp_path / "c_records.csv").read_bytes()
    assert (tmp_path / "a_histogram.csv").read_bytes() == (
        tmp_path / "c_histogram.csv"
    ).read_bytes()
    # a partial-strength record admits no path reconstruction
    assert not (tmp_path / "a_paths.csv").exists()


def _trajectory_outputs(tmp_path, name, argv):
    """The bytes of a trajectory run's records and histogram, and its sidecar minus paths."""
    assert main(argv + ["--out", str(tmp_path / f"{name}.csv")]) == 0
    meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
    del meta["output"]
    return ((tmp_path / f"{name}_records.csv").read_bytes(),
            (tmp_path / f"{name}_histogram.csv").read_bytes(), meta)


@pytest.mark.parametrize("extra", [[], ["--vertex-dephasing", "1"]])
def test_trajectory_on_a_4096_cycle_is_the_whole_graph_walk(tmp_path, extra):
    from unittest import mock

    from coinwalk import evolution

    argv = ["trajectory", "--cycle", "4096", "--steps", "20", "--beta", "0.5",
            "--samples", "200", "--start", "2048,0", "--seed", "7", *extra]
    if extra:
        argv[argv.index("200")] = "30"
    cone = _trajectory_outputs(tmp_path, "cone", argv)
    assert cone[2]["born_weights"] == evolution.BORN_WEIGHT_RULE
    hist = cone[1].decode().splitlines()[1:]
    # the walk ends within 20 moves of vertex 2048
    reached = [i for i, line in enumerate(hist) if line.split(",")[1] != "0.0"]
    assert 2028 <= reached[0] and reached[-1] <= 2068
    assert _trajectory_outputs(tmp_path, "jobs2", argv + ["--jobs", "2"]) == cone
    for amplitudes in (1, 82 * 7):
        with mock.patch.object(evolution, "SAMPLE_BLOCK_AMPLITUDES", amplitudes):
            assert _trajectory_outputs(tmp_path, f"block{amplitudes}", argv) == cone
    with mock.patch.object(evolution, "_light_cone", whole_graph):
        assert _trajectory_outputs(tmp_path, "whole", argv) == cone


def test_trajectory_without_measurement_is_redirected(tmp_path, capsys):
    out = tmp_path / "none.csv"
    code = main(
        ["trajectory", "--cycle", "7", "--beta", "0.0", "--steps", "5",
         "--samples", "2", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "run command" in err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("beta", ["0.0", "-0.5"])
def test_trajectory_without_measurement_exits_2_from_a_worker(tmp_path, capsys, beta):
    # the library, not the command line, rejects the strength, in the worker
    out = tmp_path / "none.csv"
    argv = ["trajectory", "--cycle", "7", "--beta", beta, "--steps", "5",
            "--samples", "4", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error:") and err.count("\n") == 1
    assert ("run command" if beta == "0.0" else "measurement strength beta") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--cycle", "7", "--steps", "2", "--beta", "1.5"],
        ["run", "--cycle", "7", "--steps", "-1"],
        ["run", "--cycle", "2", "--steps", "2"],
        ["run", "--cycle", "7", "--steps", "2", "--start", "9,0"],
        ["run", "--cycle", "7", "--steps", "2", "--start", "zero"],
        ["run", "--cycle", "7", "--steps", "2", "--start=-1,0"],
        ["run", "--cycle", "7", "--steps", "2", "--start", "0,9"],
        ["run", "--graph", "/nonexistent/graph.json", "--steps", "2"],
        ["sweep", "--cycle", "7", "--steps", "2", "--betas", "0.0,oops"],
        ["sweep", "--cycle", "7", "--steps", "2", "--beta-points", "1"],
        ["mix", "--cycle", "7", "--t-max", "0", "--epsilon", "0.05"],
        ["mix", "--cycle", "7", "--t-max", "10", "--epsilon", "0.0"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "2",
         "--samples", "0"],
        ["run", "--cycle", "5", "--steps", "2", "--phi", "nan"],
        ["run", "--cycle", "5", "--steps", "2", "--phi", "nan", "--beta", "0.5"],
        ["run", "--cycle", "5", "--steps", "2", "--coin", "dft", "--phi", "0.3"],
        ["run", "--cycle", "5", "--steps", "2", "--coin", "dft", "--phi", "nan"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "2",
         "--samples", "2", "--seed", "-1"],
        ["sweep", "--cycle", "7", "--steps", "2", "--beta-points", "3", "--jobs", "0"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "2",
         "--samples", "2", "--jobs", "-3"],
        ["run", "--cycle", "4611686018427387904", "--steps", "2"],
        ["run", "--cycle", "100000000000000000000", "--steps", "2"],
        ["run", "--cycle", "9223372036854775807", "--steps", "2"],
        ["run", "--cycle", "7", "--steps", "2", "--coin-file", "/nonexistent/coin.json"],
        ["mix", "--cycle", "7", "--t-max", "10", "--epsilon", "0.5", "--beta", "1.5"],
        ["run", "--cycle", "7", "--steps", "2", "--vertex-dephasing", "nan"],
        ["sweep", "--cycle", "7", "--steps", "2", "--betas", "0,1", "--vertex-dephasing", "2"],
        ["sweep", "--cycle", "7", "--steps", "-1", "--betas", "0,1", "--jobs", "2"],
        ["sweep", "--cycle", "7", "--steps", "2", "--betas", "0,1.5"],
        ["mix", "--cycle", "7", "--t-max", "10", "--epsilon", "1.5"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "-1", "--samples", "2"],
        # argparse's own errors: a bad value, the removed --coin custom, a
        # missing flag, clashing flags, an unknown option, command or none
        ["run", "--cycle", "5", "--steps", "x"],
        ["run", "--cycle", "5", "--steps", "2", "--coin", "custom"],
        ["run", "--cycle", "5"],
        ["run", "--cycle", "5", "--graph", "g.json", "--steps", "2"],
        ["run", "--cycle", "5", "--steps", "2", "--colour", "red"],
        ["walk", "--cycle", "5"],
        [],
    ],
)
def test_bad_configurations_exit_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "never.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# the (N, 2) intp port array of 2**62 or more vertices has more bytes than an intp counts
@pytest.mark.parametrize("n", [4611686018427387904, 100000000000000000000, 9223372036854775807])
def test_cycles_beyond_their_port_array_exit_2_naming_the_count(tmp_path, capsys, n):
    assert main(["run", "--cycle", str(n), "--steps", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        f"coinwalk: configuration error: cycle of {n} vertices is too large for its port array\n"
    )


BAD_GRAPH_FILES = {
    "directory": None,  # a directory in place of the file
    "scalar": b"5",
    "array": b"[1, 2]",
    "not-utf8": b"\xff\xfe{}",
    "edges-not-a-list": b'{"vertices": 3, "degree": 2, "edges": 5}',
    "vertices-not-an-int":
        b'{"vertices": "x", "degree": 1, "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}]}',
    "vertex-beyond-intp": b'{"vertices": 3, "degree": 1, '
        b'"edges": [{"u": 0, "pu": 0, "v": 100000000000000000000, "pv": 0}]}',
    "vertex-equal-to-vertices":
        b'{"vertices": 2, "degree": 1, "edges": [{"u": 0, "pu": 0, "v": 2, "pv": 0}]}',
    "declared-vertices-beyond-intp": b'{"vertices": 100000000000000000000, "degree": 1, '
        b'"edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}]}',
    # fits an intp, but its (N, 1) intp port array has 2**64 bytes
    "declared-vertices-beyond-the-port-array": b'{"vertices": 2305843009213693952, '
        b'"degree": 1, "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}]}',
    "edge-field-infinite":
        b'{"vertices": 2, "degree": 1, "edges": [{"u": Infinity, "pu": 0, "v": 1, "pv": 0}]}',
    "edge-field-fractional":
        b'{"vertices": 2, "degree": 1, "edges": [{"u": 0.9, "pu": 0, "v": 1, "pv": 0}]}',
    "edge-field-string":
        b'{"vertices": 2, "degree": 1, "edges": [{"u": "0", "pu": 0, "v": 1, "pv": 0}]}',
    "edge-field-boolean":
        b'{"vertices": 2, "degree": 1, "edges": [{"u": 0, "pu": 0, "v": true, "pv": 0}]}',
}
# 10**14 vertices fit an intp, but their ports need more than 2**47 bytes,
# beyond any address space, so numpy refuses the allocation at once
TOO_LARGE_TO_HOLD = b'{"vertices": 100000000000000, "degree": 1, ' \
    b'"edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}]}'


@pytest.mark.parametrize("source", [["--graph", None], ["--cycle", "100000000000000"]])
def test_inputs_too_large_for_memory_exit_2_with_one_line(tmp_path, capsys, source):
    if source[1] is None:
        source[1] = str(tmp_path / "huge.json")
        (tmp_path / "huge.json").write_bytes(TOO_LARGE_TO_HOLD)
    out = tmp_path / "never.csv"
    assert main(["run", *source, "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error: out of memory:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_large_cycle_run_holds_each_output_once(tmp_path):
    """The sidecar's 10^5 edges are written block by block and the shared coin
    block is held once, so the peak stays near the graph and the state."""
    argv = ["run", "--cycle", "100000", "--steps", "20", "--beta", "0.5",
            "--vertex-dephasing", "0.1", "--out", str(tmp_path / "run.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def _peak_growth(argv_at, small: int, large: int) -> float:
    """Traced peak of main(argv_at(large)) less that of main(argv_at(small)), in bytes."""
    def peak(size):
        tracemalloc.start()
        try:
            assert main(argv_at(size)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(small)  # the first call of a process builds what every later call reuses
    return peak(large) - peak(small)


@pytest.mark.parametrize("beta", ["0.5", "1.0"])
def test_trajectory_records_and_paths_are_written_one_sample_at_a_time(tmp_path, beta):
    """The records, and at beta 1 the paths, go out a sample at a time from each
    block's arrays, so the peak grows with what the sampler keeps, its outcomes
    and their probabilities (16 bytes a record) beside a block's uniforms (8) or,
    at beta 1, beside the paths and the checks of the outcomes (9), not with about
    100 bytes a record of CSV lines held at once. Whole-run copies of the outcomes
    and probabilities, and a vertex buffer at vertex dephasing 0, made it 32 at beta 0.5."""
    def argv(steps):
        return ["trajectory", "--cycle", "16", "--beta", beta, "--steps", str(steps),
                "--samples", "100", "--seed", "3", "--out", str(tmp_path / f"t{steps}.csv")]

    assert _peak_growth(argv, 50, 250) / (100 * 200) < {"0.5": 26, "1.0": 32}[beta]


def test_mix_rows_are_written_one_at_a_time(tmp_path):
    """The mix rows are made as they are written, so the peak grows with the two
    curves the race keeps, about 120 bytes a row; a list of the rows held at once
    made it about 210."""
    def argv(t_max):
        return ["mix", "--cycle", "31", "--t-max", str(t_max), "--epsilon", "0.01",
                "--out", str(tmp_path / f"m{t_max}.csv")]

    assert _peak_growth(argv, 200, 2200) / 2000 < 150


def test_declared_degree_is_checked_before_isolated_vertices_are_added(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_bytes(TOO_LARGE_TO_HOLD.replace(b'"degree": 1', b'"degree": 3'))
    assert main(["run", "--graph", str(path), "--steps", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert "'degree' is 3 but the edge list gives 1" in capsys.readouterr().err


BAD_COIN_FILES = {
    "directory": None,
    "scalar": b"5",
    "array": b"[1, 2]",
    "not-utf8": b"\xff\xfe{}",
    "blocks-not-a-list": b'{"type": "custom", "blocks": 5}',
    "phi-not-a-number": b'{"type": "hadamard", "phi": "x"}',
}


@pytest.mark.parametrize(
    "flag, content",
    [pytest.param("--graph", c, id=name) for name, c in BAD_GRAPH_FILES.items()]
    + [pytest.param("--coin-file", c, id=f"coin-file-{name}")
       for name, c in BAD_COIN_FILES.items()],
)
def test_unreadable_graph_file_exits_2_with_one_line(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if flag == "--graph":
        source = ["--graph", str(path)]
    else:
        source = ["--cycle", "5", "--coin-file", str(path)]
    out = tmp_path / "never.csv"
    assert main(["run", *source, "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error:")
    assert err.count("\n") == 1
    assert not out.exists()


IDENTITY_BLOCK = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("where", ["blocks", "phi"])
def test_non_finite_coin_file_numbers_exit_2_with_one_line(tmp_path, where, value):
    # a child process, so that a numpy warning reaches stderr as it would from the shell
    if where == "blocks":
        bad = [[[value, 0], [0, 0]], [[0, 0], [1, 0]]]
        text = json.dumps([bad, IDENTITY_BLOCK, IDENTITY_BLOCK]).replace(f'"{value}"', value)
        config, message = f'{{"type": "custom", "blocks": {text}}}', "coin blocks[0]"
    else:
        config, message = f'{{"type": "hadamard", "phi": {value}}}', "coin 'phi'"
    path = tmp_path / "coin.json"
    path.write_text(config)
    source = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "coinwalk.cli", "run", "--cycle", "3",
         "--steps", "2", "--coin-file", str(path),
         "--out", str(tmp_path / "never.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": source},
    )
    assert result.returncode == 2
    assert result.stderr.startswith(f"coinwalk: configuration error: {message}")
    assert result.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("flags", [
    pytest.param(["--phi", "0.3"], id="phi"),
    pytest.param(["--coin", "dft"], id="dft"),
    pytest.param(["--coin", "hadamard", "--phi", "0.3"], id="hadamard-phi"),
])
def test_coin_file_takes_no_coin_or_phi_and_reads_no_file(tmp_path, capsys, flags):
    # neither file exists, so an error that reached either would name it
    argv = ["run", "--graph", str(tmp_path / "graph.json"), "--steps", "2",
            "--coin-file", str(tmp_path / "coin.json"), *flags,
            "--out", str(tmp_path / "never.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "coinwalk: configuration error: --coin-file holds the whole coin, so it takes no "
        "--coin or --phi\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("vertex", [2, 7, 10**20])
def test_graph_file_edges_stay_below_the_declared_vertices(tmp_path, capsys, vertex):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": 2, "degree": 1, "edges": [
        {"u": 0, "pu": 0, "v": 1, "pv": 0}, {"u": vertex, "pu": 0, "v": 0, "pv": 1}]}))
    assert main(["run", "--graph", str(path), "--steps", "2",
                 "--out", str(tmp_path / "never.csv")]) == 2
    assert capsys.readouterr().err == (
        f"coinwalk: configuration error: {path}: edges[1] references vertex {vertex}, "
        "but 'vertices' is 2\n"
    )
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("value", [True, 0.9, "0"])
def test_graph_file_with_a_non_integer_end_exits_2_naming_its_edge(tmp_path, capsys, value):
    # numpy would read each of these as an intp without a word
    path = tmp_path / "graph.json"
    save_graph(build_cycle(6), str(path))
    raw = json.loads(path.read_text())
    raw["edges"][3]["pv"] = value
    path.write_text(json.dumps(raw))
    assert main(["run", "--graph", str(path), "--steps", "2",
                 "--out", str(tmp_path / "never.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"coinwalk: configuration error: {path}: edges[3]: endpoints must be integers, got ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("target", ["a-directory", "a-file/out.csv"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, target):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-file").write_text("x")
    out = tmp_path / target
    assert main(["run", "--cycle", "5", "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error: cannot write")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "a-file"]
    assert not list((tmp_path / "a-directory").iterdir())


@pytest.mark.parametrize("command", [
    ["run", "--cycle", "5", "--steps", "2"],
    ["trajectory", "--cycle", "5", "--steps", "2", "--beta", "1", "--samples", "3",
     "--seed", "1"],
])
def test_unwritable_sidecar_leaves_no_output_at_all(tmp_path, capsys, command):
    (tmp_path / "po" / "x.meta.json").mkdir(parents=True)
    assert main([*command, "--out", str(tmp_path / "po" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error: cannot write")
    assert err.count("\n") == 1
    assert sorted(p.name for p in (tmp_path / "po").iterdir()) == ["x.meta.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        out = tmp_path / "walk.csv"
        assert main(["run", "--cycle", "5", "--steps", "2", "--out", str(out)]) == 0
        save_graph(build_cycle(5), str(tmp_path / "graph.json"))
    finally:
        os.umask(old)
    expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    assert expected == 0o666 & ~umask
    for path in (out, tmp_path / "walk.meta.json", tmp_path / "graph.json"):
        assert stat.S_IMODE(path.stat().st_mode) == expected


def test_no_write_sets_the_process_umask(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    assert main(["run", "--cycle", "5", "--steps", "2", "--out", str(tmp_path / "run.csv")]) == 0
    assert main(["trajectory", "--cycle", "5", "--steps", "2", "--beta", "1", "--samples", "2",
                 "--seed", "1", "--out", str(tmp_path / "traj.csv")]) == 0
    save_graph(build_cycle(5), str(tmp_path / "graph.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "graph.json", "run.csv", "run.meta.json", "traj.meta.json", "traj_histogram.csv",
        "traj_paths.csv", "traj_records.csv",
    ]


def test_sweep_sidecar_records_its_grid_and_no_beta(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--cycle", "5", "--steps", "2", "--betas", "0,1",
                 "--out", str(out)]) == 0
    configuration = json.loads((tmp_path / "sweep.meta.json").read_text())["configuration"]
    assert configuration["betas"] == [0.0, 1.0]
    assert "beta" not in configuration


def test_default_coin_runs_graphs_with_isolated_vertices(tmp_path):
    graph_path = tmp_path / "iso.json"
    graph_path.write_text(json.dumps({
        "vertices": 5, "degree": 2,
        "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}, {"u": 1, "pu": 1, "v": 2, "pv": 0},
                  {"u": 2, "pu": 1, "v": 0, "pv": 1}],
    }))
    out = tmp_path / "iso.csv"
    with pytest.warns(UserWarning, match="isolated"):
        assert main(["run", "--graph", str(graph_path), "--steps", "3",
                     "--out", str(out)]) == 0
        graph = load_graph(str(graph_path))
    hist = marginal_history(basis_state(graph, 0, 0), make_step(graph), 3)
    table = marginal_table(out)
    assert table == {(t, v): p for t, row in enumerate(hist) for v, p in enumerate(row) if p}
    meta = json.loads((tmp_path / "iso.meta.json").read_text())
    assert meta["configuration"]["coin"]["type"] == "dft"


def test_jobs_is_capped_at_the_core_count(monkeypatch):
    from coinwalk.cli import _worker_count

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _worker_count(1) == 1
    assert _worker_count(3) == 3
    assert _worker_count(10**6) == 4
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _worker_count(8) == 1
    with pytest.raises(ConfigError, match="at least 1"):
        _worker_count(0)


def test_graph_file_and_custom_coin_round_trip(tmp_path, multi_graph):
    graph_path = tmp_path / "multi.json"
    save_graph(multi_graph, str(graph_path))

    blocks = []
    for dj in multi_graph.vertex_degrees:
        mat = dft_coin(dj)
        blocks.append([[[z.real, z.imag] for z in row] for row in mat])
    coin_path = tmp_path / "coin.json"
    coin_path.write_text(json.dumps({"type": "custom", "blocks": blocks}))

    out = tmp_path / "multi.csv"
    assert main(
        ["run", "--graph", str(graph_path),
         "--coin-file", str(coin_path), "--steps", "4", "--out", str(out)]
    ) == 0
    table = marginal_table(out)

    step = make_step(multi_graph)
    hist = marginal_history(basis_state(multi_graph, 0, 0), step, 4)
    for t in range(5):
        for v in range(6):
            assert table.get((t, v), 0.0) == pytest.approx(hist[t][v], abs=1e-12)
    meta = json.loads((tmp_path / "multi.meta.json").read_text())
    assert meta["configuration"]["coin"]["type"] == "custom"
    assert meta["configuration"]["shift"] == "port-swap"


# a sidecar holds these paths as JSON strings: quotes, a backslash,
# non-ASCII text and a newline
AWKWARD_PATH = ("q'uo\"te", "back\\slash", "\u00fcn\u00ef \u20ac \u2713", "new\nline")
SIDECAR_ARGS = {
    "run": ["--steps", "3", "--beta", "0.3"],
    "sweep": ["--steps", "3", "--betas", "0,0.5"],
    "mix": ["--t-max", "5", "--epsilon", "0.1"],
    "trajectory": ["--steps", "3", "--samples", "2", "--beta", "0.5", "--seed", "1"],
}


@pytest.mark.filterwarnings("ignore:graph has isolated vertices")
@pytest.mark.parametrize("command", sorted(SIDECAR_ARGS))
@pytest.mark.parametrize("source", ["cycle", "graph", "isolated", "custom-cycle", "custom-graph"])
def test_sidecar_is_the_json_dump_of_its_materialised_dict(tmp_path, multi_graph, command, source):
    """The sidecar is the text json.dumps(indent=1, sort_keys=True) gives of
    the whole dict, it names the graph it walked, and no user path is touched."""
    base = tmp_path.joinpath(*AWKWARD_PATH)
    base.mkdir(parents=True)
    if source.endswith("cycle"):
        graph = build_cycle(6)
        argv = ["--cycle", "6"]
    else:
        graph = port_permuted_torus(3, np.random.default_rng(4))
        if source == "isolated":
            with pytest.warns(UserWarning, match="isolated"):
                graph = PortGraph(np.vstack([multi_graph.partner, np.full((2, 4), -1)]))
        graph_path = base / (AWKWARD_PATH[-1] + ".json")
        save_graph(graph, str(graph_path))
        argv = ["--graph", str(graph_path)]
    if source.startswith("custom"):
        block = [[[z.real, z.imag] for z in row] for row in dft_coin(graph.degree)]
        coin_path = base / ("coin " + AWKWARD_PATH[0] + ".json")
        blocks = [block] * graph.num_vertices
        coin_path.write_text(json.dumps({"type": "custom", "blocks": blocks}))
        argv += ["--coin-file", str(coin_path)]
    out = base / (AWKWARD_PATH[-1] + ".csv")
    assert main([command, *argv, *SIDECAR_ARGS[command], "--out", str(out)]) == 0

    text = out.with_suffix(".meta.json").read_text(encoding="utf-8")
    meta = json.loads(text)
    assert text == json.dumps(meta, indent=1, sort_keys=True) + "\n"
    configuration = meta["configuration"]
    walked = graph if argv[0] == "--cycle" else load_graph(argv[1])
    assert configuration["graph"]["partner_sha256"] == partner_sha256(walked)
    assert configuration["graph"]["source"] == ("cycle:6" if argv[0] == "--cycle" else argv[1])
    if source.startswith("custom"):
        assert configuration["coin"]["file"] == str(coin_path)
    if command == "trajectory":
        assert meta["output"]["records_csv"] == str(out)[: -len(".csv")] + "_records.csv"
    else:
        assert meta["output"]["csv"] == str(out)


@pytest.mark.parametrize("command", sorted(SIDECAR_ARGS))
def test_sidecar_records_the_tolerance_table_the_guards_read(tmp_path, command):
    out = tmp_path / "out.csv"
    assert main([command, "--cycle", "6", *SIDECAR_ARGS[command], "--out", str(out)]) == 0
    tolerances = json.loads((tmp_path / "out.meta.json").read_text())["tolerances"]
    assert tolerances == asdict(DEFAULT_TOLERANCES)
    assert "hermiticity" not in tolerances and "eigenvalue" not in tolerances


def test_edge_order_of_a_graph_file_does_not_change_the_results(tmp_path):
    # a saved port-permuted d=4 torus, and the same edges shuffled with half
    # of them written end first: the classical chain sums four terms per
    # vertex, so an order that followed the file would change its last bits
    rng = np.random.default_rng(6)
    sorted_path, shuffled_path = tmp_path / "sorted.json", tmp_path / "shuffled.json"
    save_graph(port_permuted_torus(7, rng), str(sorted_path))
    raw = json.loads(sorted_path.read_text())
    raw["edges"] = [raw["edges"][i] for i in rng.permutation(len(raw["edges"]))]
    for e in raw["edges"][::2]:
        e["u"], e["pu"], e["v"], e["pv"] = e["v"], e["pv"], e["u"], e["pu"]
    shuffled_path.write_text(json.dumps(raw))
    assert np.array_equal(load_graph(str(sorted_path)).partner,
                          load_graph(str(shuffled_path)).partner)

    commands = {
        "mix": ["mix", "--t-max", "300", "--epsilon", "0.05", "--start", "3,2"],
        "sweep": ["sweep", "--steps", "6", "--beta-points", "3", "--start", "3,2",
                  "--vertex-dephasing", "0.1"],
    }
    for name, argv in commands.items():
        csv = {}
        for path in (sorted_path, shuffled_path):
            out = tmp_path / f"{name}-{path.stem}.csv"
            assert main(argv + ["--graph", str(path), "--out", str(out)]) == 0
            csv[path] = out.read_bytes()
        assert csv[sorted_path] == csv[shuffled_path], name


def test_sidecar_hash_names_the_graph_and_not_its_file(tmp_path):
    # the same edges in another order keep the hash; swapping ports 0 and 1
    # at one vertex gives another graph, and another hash
    rng = np.random.default_rng(8)
    paths = {name: tmp_path / f"{name}.json" for name in ("saved", "shuffled", "swapped")}
    save_graph(port_permuted_torus(5, rng), str(paths["saved"]))
    raw = json.loads(paths["saved"].read_text())
    raw["edges"] = [raw["edges"][i] for i in rng.permutation(len(raw["edges"]))]
    paths["shuffled"].write_text(json.dumps(raw))
    for e in raw["edges"]:
        for end, port in (("u", "pu"), ("v", "pv")):
            if e[end] == 0 and e[port] in (0, 1):
                e[port] = 1 - e[port]
    paths["swapped"].write_text(json.dumps(raw))
    hashes = {}
    for name, path in paths.items():
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--graph", str(path), "--steps", "1", "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        hashes[name] = meta["configuration"]["graph"]["partner_sha256"]
        assert hashes[name] == partner_sha256(load_graph(str(path)))
    assert hashes["shuffled"] == hashes["saved"]
    assert hashes["swapped"] != hashes["saved"]


def test_hadamard_coin_rejected_on_irregular_graph(tmp_path, multi_graph, capsys):
    graph_path = tmp_path / "multi.json"
    save_graph(multi_graph, str(graph_path))
    code = main(
        ["run", "--graph", str(graph_path), "--coin", "hadamard", "--steps", "2",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "degree 2" in capsys.readouterr().err


def test_directed_shift_needs_a_cycle(tmp_path, multi_graph, capsys):
    graph_path = tmp_path / "multi.json"
    save_graph(multi_graph, str(graph_path))
    code = main(
        ["run", "--graph", str(graph_path), "--shift", "direction-preserving",
         "--steps", "2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "--cycle" in capsys.readouterr().err


def test_metadata_is_enough_to_reproduce_a_run(tmp_path):
    out = tmp_path / "first.csv"
    assert main(
        ["run", "--cycle", "9", "--steps", "12", "--beta", "0.3",
         "--vertex-dephasing", "0.1", "--phi", "0.7", "--start", "2,1",
         "--shift", "port-swap", "--out", str(out)]
    ) == 0
    cfg = json.loads((tmp_path / "first.meta.json").read_text())["configuration"]

    source = cfg["graph"]["source"]
    assert source.startswith("cycle:")
    rebuilt = [
        "run",
        "--cycle", source.split(":")[1],
        "--steps", str(cfg["steps"]),
        "--beta", repr(cfg["beta"]),
        "--vertex-dephasing", repr(cfg["vertex_dephasing"]),
        "--phi", repr(cfg["coin"]["phi"]),
        "--start", f"{cfg['start']['vertex']},{cfg['start']['port']}",
        "--shift", cfg["shift"],
        "--dephasing-placement", cfg["dephasing_placement"],
        "--out", str(tmp_path / "second.csv"),
    ]
    assert main(rebuilt) == 0
    assert out.read_bytes() == (tmp_path / "second.csv").read_bytes()

    # a coin file: the sidecar's coin.file, with no --phi, walks the same coin
    coin_path = tmp_path / "coin.json"
    blocks = [[[[z.real, z.imag] for z in row] for row in hadamard_phi(0.1 * j)] for j in range(9)]
    coin_path.write_text(json.dumps({"type": "custom", "blocks": blocks}))
    out = tmp_path / "third.csv"
    assert main(["run", "--cycle", "9", "--steps", "12", "--beta", "0.3",
                 "--coin-file", str(coin_path), "--out", str(out)]) == 0
    cfg = json.loads((tmp_path / "third.meta.json").read_text())["configuration"]
    assert cfg["coin"] == {"type": "custom", "file": str(coin_path)}
    rebuilt = ["run", "--cycle", cfg["graph"]["source"].split(":")[1],
               "--steps", str(cfg["steps"]), "--beta", repr(cfg["beta"]),
               "--coin-file", cfg["coin"]["file"], "--out", str(tmp_path / "fourth.csv")]
    assert main(rebuilt) == 0
    assert out.read_bytes() == (tmp_path / "fourth.csv").read_bytes()


def test_sidecar_records_the_phase_walked(tmp_path, capsys):
    with_phi, without_phi = tmp_path / "with.json", tmp_path / "without.json"
    with_phi.write_text('{"type": "hadamard", "phi": 0.3}')
    without_phi.write_text('{"type": "hadamard"}')
    runs = {
        "flag": ["--phi", "0.3"],
        "file": ["--coin-file", str(with_phi)],
    }
    for name, extra in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--cycle", "5", "--steps", "4", *extra, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert meta["configuration"]["coin"]["phi"] == 0.3
        assert out.read_bytes() == (tmp_path / "flag.csv").read_bytes()
    # the file holds the whole coin: --phi beside it is rejected, whether
    # the file sets a phase or not
    for path in (with_phi, without_phi):
        argv = ["run", "--cycle", "5", "--steps", "4", "--coin-file", str(path),
                "--phi", "0.3", "--out", str(tmp_path / "never.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("coinwalk: configuration error: --coin-file") and err.count("\n") == 1
        assert not (tmp_path / "never.csv").exists()
    # without --phi a hadamard coin records pi/2, and a coin of another type no phase
    for coin in ("hadamard", "dft"):
        assert main(["run", "--cycle", "5", "--steps", "4", "--coin", coin,
                     "--out", str(tmp_path / f"{coin}.csv")]) == 0
    meta = json.loads((tmp_path / "hadamard.meta.json").read_text())
    assert meta["configuration"]["coin"]["phi"] == math.pi / 2
    meta = json.loads((tmp_path / "dft.meta.json").read_text())
    assert meta["configuration"]["coin"] == {"type": "dft"}


def test_console_entry_point_is_installed(tmp_path):
    # the child imports the coinwalk these tests imported, installed or not
    source = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "coinwalk.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    # the version pyproject.toml declares (tomllib needs Python 3.11)
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert result.stdout.strip() == declared


# ----------------------------------------------------------------------
# fuzzing main(): whatever the flags and files, exit 0, 2 or 3 and never
# a traceback. Sizes stay small, and --jobs is always 1, so no worker
# process is ever started.

FUZZ_FILES = {
    "cycle": json.dumps({"vertices": 3, "degree": 2, "edges": [
        {"u": 0, "pu": 0, "v": 1, "pv": 1}, {"u": 1, "pu": 0, "v": 2, "pv": 1},
        {"u": 2, "pu": 0, "v": 0, "pv": 1}]}).encode(),
    "isolated": json.dumps({"vertices": 4, "degree": 1, "edges": [
        {"u": 0, "pu": 0, "v": 1, "pv": 0}]}).encode(),
    "self-loop": b'{"vertices": 1, "degree": 2, "edges": [{"u": 0, "pu": 0, "v": 0, "pv": 1}]}',
    "bad-port": b'{"vertices": 2, "degree": 1, "edges": [{"u": 0, "pu": 3, "v": 1, "pv": 0}]}',
    "missing-key": b'{"vertices": 2, "degree": 1, "edges": [{"u": 0}]}',
    "negative": b'{"vertices": -1, "degree": 0, "edges": []}',
    "no-edges": b'{"vertices": 2, "degree": 1, "edges": []}',
    "coin-custom": b'{"type": "custom", "blocks": [[[1, 0], [0, 1]]]}',
    "coin-not-unitary": b'{"type": "custom", "blocks": [[[1, 1], [0, 1]]]}',
    "coin-ragged": b'{"type": "custom", "blocks": [[[1, 0], [0]]]}',
    "coin-strings": b'{"type": "custom", "blocks": [[["a", 0], [0, 1]]]}',
    "coin-dft": b'{"type": "dft"}',
    "coin-unknown": b'{"type": "spin"}',
    "scalar": b"5",
    "text": b"not json",
    "empty": b"",
    "not-utf8": b"\xff\xfe{}",
}
# each flag's values: (ones a command accepts, ones it must reject)
FUZZ_UNIT = (["0", "0.5", "1"], ["-0.25", "1.5", "nan", "inf", "x", ""])
FUZZ_COUNTS = (["0", "1", "3"], ["-1", "x", "2.5"])
FUZZ_OPTIONS = {
    "--beta": FUZZ_UNIT,
    "--vertex-dephasing": FUZZ_UNIT,
    "--phi": (["0.3", "1.5707963267948966"], ["nan", "inf", "-inf", "x"]),
    "--dephasing-placement": (["before-shift", "after-shift"], ["sideways"]),
    "--coin": (["hadamard", "dft"], ["custom", "spin"]),
    "--shift": (["port-swap", "direction-preserving"], ["sideways"]),
    "--start": (["0,0", "1,1", "2,1"], ["9,0", "0,-1", "a,b", "0", ""]),
    "--seed": (["0", "7", str(2**64)], ["-1", "x"]),
    "--steps": FUZZ_COUNTS,
    "--samples": FUZZ_COUNTS,
    "--t-max": FUZZ_COUNTS,
    "--epsilon": (["0.1", "1"], ["0", "2", "nan", "x"]),
    "--betas": (["0,0.5", "1", "0.5,0"], ["0.5,x", "2", "nan", ""]),
    "--beta-points": (["2", "3"], ["1", "0", "-1", "x"]),
}
FUZZ_REQUIRED = {
    "run": ["--steps"],
    "sweep": ["--steps", "--betas"],
    "mix": ["--t-max", "--epsilon"],
    "trajectory": ["--steps", "--samples", "--beta"],
}
# hypothesis leans to the first entry of sampled_from, so the common
# choice leads each list
OFTEN = st.sampled_from([True] * 9 + [False])


@st.composite
def fuzz_argv(draw):
    """Mostly complete command lines, so that most reach the commands."""
    command = draw(st.sampled_from(sorted(FUZZ_REQUIRED) * 3 + ["walk"]))
    argv = [command]
    for _ in range(draw(st.sampled_from([1] * 8 + [0, 2]))):
        if draw(st.booleans()):
            cycles = ["5"] * 4 + ["3", "4", "2", "0", "-1", "x"]
            argv += ["--cycle", draw(st.sampled_from(cycles))]
        else:
            names = ["cycle"] * 8 + ["isolated"] * 4 + sorted(FUZZ_FILES) + ["missing"]
            argv += ["--graph", "@" + draw(st.sampled_from(names))]
    if not draw(OFTEN):
        argv += ["--coin-file", "@" + draw(st.sampled_from(["coin-custom", *sorted(FUZZ_FILES)]))]
    flags = [f for f in FUZZ_REQUIRED.get(command, []) if draw(OFTEN)]
    flags += draw(st.lists(st.sampled_from(sorted(FUZZ_OPTIONS)), max_size=4))
    for flag in dict.fromkeys(flags):
        good, bad = FUZZ_OPTIONS[flag]
        argv += [flag, draw(st.sampled_from(good if draw(OFTEN) else bad))]
    # --jobs defaults to 1, and 1 is the only value drawn: no pool starts
    argv += ["--jobs", "1"]
    if draw(OFTEN):
        outs = ["out.csv"] * 4 + ["new/dir/out.csv", "out", "a-directory", "cycle/out.csv"]
        argv += ["--out", "@" + draw(st.sampled_from(outs))]
    return argv


@pytest.mark.filterwarnings("ignore:graph has isolated vertices:UserWarning")
@settings(max_examples=150, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_command_lines_exit_cleanly(argv):
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in FUZZ_FILES.items():
            (root / name).write_bytes(content)
        (root / "a-directory").mkdir()
        argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, err.getvalue())
    # a failure is reported in one line, a success in none
    assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())
