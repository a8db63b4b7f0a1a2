"""coinwalk benchmark: end-to-end CLI timings, or a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload cycle-density --seed 1 --seconds 20 --trace 0

Every workload calls `coinwalk.cli.main` in-process, from this one
process, with `--jobs 1`, on inputs generated from `--seed` (see
workloads.py). The package is imported from `src/` next to this
directory, never from an installed copy. BLAS threads are capped at the
usable core count before numpy loads.

`--trace 0` measures the end-to-end metrics:

- wall_s: median seconds per invocation of the full command, repeated
  for `--seconds` seconds.
- setup_s: median seconds of the same command at its smallest step
  count (`--steps 0`, or `--t-max 1`), run between the full invocations.
- steps_per_s: walk steps advanced (samples * steps for trajectory),
  divided by wall_s - setup_s.
- peak_mb: tracemalloc peak of one separate, untimed invocation, in 1e6 bytes.
- success_ratio: invocations that passed every output check, over attempted.

`--trace 1` runs the full command for `--seconds` seconds, alternating
untraced invocations with ones where every layer is wrapped (spans.py),
and reports each layer's median self time and call count per traced
invocation, plus the tracing overhead. The spans are written to
`.bench_out/`.

Every invocation's outputs are checked outside the timed region, and
each failed check counts as a failed invocation. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds provenance and detail.
`--workload all` runs each workload in turn and ends with one combined
line whose metric names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cycle-density", "torus-trajectory", "torus-mix")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_mb": "MB",
    "success_ratio": "ratio",
}

# Public functions of each module under src/coinwalk/, wrapped in the traced run.
LAYERS = [
    "graph.build_cycle",
    "graph.load_graph",
    "graph.from_edge_list",
    "state.basis_state",
    "state.to_density",
    "state.position_marginal",
    "state.pure_position_marginal",
    "coin.default_coin_spec",
    "coin.coin_spec_from_config",
    "coin.build_coin_operator",
    "shift.build_shift",
    "shift.build_cycle_shift",
    "shift.ShiftOperator.apply",
    "shift.ShiftOperator.conjugate",
    "meter.apply_kraus",
    "evolution.make_step",
    "evolution.marginal_history",
    "evolution.cp_step",
    "evolution.vertex_dephasing",
    "evolution.unitary_step",
    "evolution.sample_trajectory",
    "classical.classical_run",
    "classical.classical_step",
    "analysis.compare_mixing",
    "analysis.tvd",
    "cli.main",
]


def limit_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_threads() -> int:
    """Thread count OpenBLAS reports, else the OPENBLAS_NUM_THREADS in force."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        cdll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(cdll, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, an identity that needs no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "python": platform.python_version(),
        "seed": seed,
    }


class Session:
    """Invokes the CLI in-process, checks every invocation and counts failures."""

    def __init__(self, cli, prepared) -> None:
        self.cli = cli
        self.prepared = prepared
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def _call(self, steps: int):
        argv = self.prepared.argv(steps)
        if self.tracer is not None:
            self.tracer.invocation = self.attempted
        start = perf_counter()
        try:
            rc = self.cli.main(argv)  # looked up per call, so the tracer's wrapper is used
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = traceback.format_exc(limit=-3)
        return perf_counter() - start, rc

    def _record(self, steps: int, rc) -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc!r}"]
        else:
            try:
                problems = self.prepared.check(steps)
            except Exception:
                problems = ["output check raised: " + traceback.format_exc(limit=-3)]
        if problems:
            self.failed += 1
            self.failures.append({"steps": steps, "problems": problems[:5]})

    def invoke(self, steps: int) -> float:
        wall, rc = self._call(steps)
        self._record(steps, rc)
        return wall

    def peak_mb(self, steps: int) -> float:
        tracemalloc.start()
        try:
            _wall, rc = self._call(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._record(steps, rc)
        return peak / 1e6


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    p = session.prepared
    session.invoke(p.setup_steps)  # warm-up: first-call costs and allocations
    # Set-up-size invocations are interleaved with the full ones, about a
    # tenth of the time, so that both medians see the same machine load.
    walls: list[float] = []
    setup: list[float] = []
    start = perf_counter()
    while len(walls) < 3 or len(setup) < 9 or perf_counter() - start < seconds:
        walls.append(session.invoke(p.full_steps))
        spent = 0.0
        while spent < walls[-1] / 10:
            setup.append(session.invoke(p.setup_steps))
            spent += setup[-1]
    peak = session.peak_mb(p.full_steps)
    wall_s, setup_s = statistics.median(walls), statistics.median(setup)
    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "steps_per_s": p.walk_steps / (wall_s - setup_s),
        "peak_mb": peak,
        "success_ratio": 1.0 - session.failed / session.attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {
        "wall_s": {"n": len(walls), "quartiles": statistics.quantiles(walls, n=4)},
        "setup_s": {"n": len(setup), "quartiles": statistics.quantiles(setup, n=4)},
        "ms_per_walk_step": 1e3 / values["steps_per_s"],
    }
    return metrics, detail


def measure_traced(session: Session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from spans import Tracer

    p = session.prepared
    session.invoke(p.setup_steps)  # warm-up
    # Untraced and traced invocations alternate, so that their difference,
    # the tracing overhead, is not swamped by drifting machine load.
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        untraced.append(session.invoke(p.full_steps))
        tracer.install(LAYERS)
        session.tracer = tracer
        try:
            traced.append(session.invoke(p.full_steps))
        finally:
            session.tracer = None
            tracer.uninstall()
    values = tracer.layer_metrics(LAYERS)
    metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
               for k, v in values.items()}
    metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    tracer.write(spans_path)
    detail = {
        "untraced_wall_s": {"n": len(untraced), "quartiles": statistics.quantiles(untraced, n=4)},
        "traced_wall_s": {"n": len(traced), "quartiles": statistics.quantiles(traced, n=4)},
        "missing_layers": tracer.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def run_workload(name: str, args, nproc: int) -> dict:
    import coinwalk.cli
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(coinwalk.cli, WORKLOADS[name](args.seed, workdir))
        if args.trace:
            spans_path = OUT_DIR / f"spans-{name}-seed{args.seed}.json"
            metrics, detail = measure_traced(session, args.seconds, spans_path)
        else:
            metrics, detail = measure(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "trace": args.trace,
        "provenance": provenance(args.seed, nproc),
        "detail": detail,
        "failures": session.failures[:10],
    }
    for metric, entry in metrics.items():
        print(f"{name:>16}  {metric:<42} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(report, sort_keys=True))
    (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "result": result}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    if not (SRC / "coinwalk" / "__init__.py").is_file():
        print(f"bench: no coinwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coinwalk

    if Path(coinwalk.__file__).resolve().parent != (SRC / "coinwalk").resolve():
        print(f"bench: imported coinwalk from {coinwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, nproc) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
