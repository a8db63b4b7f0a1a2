import json
import subprocess
import sys

import numpy as np
import pytest

from coinwalk import (
    ConfigError,
    basis_state,
    build_cycle_shift,
    classical_run,
    load_graph,
    make_step,
    marginal_history,
    reconstruct_cycle_path,
    save_graph,
    tvd,
)
from coinwalk.cli import main
from coinwalk.coin import dft_coin

from conftest import MULTI_ADJACENCY


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
    assert len(meta["configuration"]["graph"]["port_labeling"]) == 7


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
    base = ["sweep", "--cycle", "5", "--steps", "8", "--betas", "0.75,0.0,0.25,1.0"]
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, rows = read_rows(out1)
    assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.75, 1.0]


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
    for sample, walk in paths.items():
        assert walk == reconstruct_cycle_path(tuple(outcomes[sample]), 0, 7)

    _, hist_rows = read_rows(tmp_path / "traj_histogram.csv")
    hist = {int(v): float(p) for v, p in hist_rows}
    finals = [walk[-1] for walk in paths.values()]
    for v in range(7):
        assert hist[v] == pytest.approx(finals.count(v) / 3, abs=1e-12)

    meta = json.loads((tmp_path / "traj.meta.json").read_text())
    assert meta["seed"]["root"] == 11
    assert meta["output"]["path_reconstruction"] is True


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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--cycle", "7", "--steps", "2", "--beta", "1.5"],
        ["run", "--cycle", "7", "--steps", "-1"],
        ["run", "--cycle", "2", "--steps", "2"],
        ["run", "--cycle", "7", "--steps", "2", "--start", "9,0"],
        ["run", "--cycle", "7", "--steps", "2", "--start", "zero"],
        ["run", "--graph", "/nonexistent/graph.json", "--steps", "2"],
        ["sweep", "--cycle", "7", "--steps", "2", "--betas", "0.0,oops"],
        ["sweep", "--cycle", "7", "--steps", "2", "--beta-points", "1"],
        ["mix", "--cycle", "7", "--t-max", "0", "--epsilon", "0.05"],
        ["mix", "--cycle", "7", "--t-max", "10", "--epsilon", "0.0"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "2",
         "--samples", "0"],
        ["run", "--cycle", "5", "--steps", "2", "--phi", "nan"],
        ["run", "--cycle", "5", "--steps", "2", "--phi", "nan", "--beta", "0.5"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "2",
         "--samples", "2", "--seed", "-1"],
        ["sweep", "--cycle", "7", "--steps", "2", "--beta-points", "3", "--jobs", "0"],
        ["trajectory", "--cycle", "7", "--beta", "1.0", "--steps", "2",
         "--samples", "2", "--jobs", "-3"],
    ],
)
def test_bad_configurations_exit_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "never.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("coinwalk: configuration error:")
    assert list(tmp_path.iterdir()) == []


BAD_GRAPH_FILES = {
    "directory": None,  # a directory in place of the file
    "scalar": b"5",
    "array": b"[1, 2]",
    "not-utf8": b"\xff\xfe{}",
    "edges-not-a-list": b'{"vertices": 3, "degree": 2, "edges": 5}',
    "vertices-not-an-int":
        b'{"vertices": "x", "degree": 1, "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}]}',
}
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
        source = ["--cycle", "5", "--coin", "custom", "--coin-file", str(path)]
    out = tmp_path / "never.csv"
    assert main(["run", *source, "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinwalk: configuration error:")
    assert err.count("\n") == 1
    assert not out.exists()


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
        ["run", "--graph", str(graph_path), "--coin", "custom",
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


def test_console_entry_point_is_installed(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "coinwalk.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.1.0"
