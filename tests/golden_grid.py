"""The golden grid: fixed command lines and the outputs a release wrote for them.

golden/commands.txt lists the command lines. run_grid runs each one
in-process into a directory of its own and returns, per line, the CSVs
it wrote as text and its sidecar as a dict, without "version" and with
{inputs} and {out} in place of the input and output directories.
golden/manifest.json.gz holds those results as the release wrote them,
and golden/environment.json the numpy version and BLAS build they were
written with: products of floats can round otherwise under another BLAS
kernel, so outputs are compared byte for byte only in that environment.
"""

from __future__ import annotations

import gzip
import json
import math
import shlex
from pathlib import Path

import numpy as np

from coinwalk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = GOLDEN / "commands.txt"
MANIFEST = GOLDEN / "manifest.json.gz"
ENVIRONMENT = GOLDEN / "environment.json"
# largest |delta| between two numbers of a CSV allowed under another BLAS build
OTHER_BLAS_BOUND = 1e-12


def commands() -> list[str]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def environment() -> dict:
    """The numpy version and the BLAS entry of np.show_config(mode="dicts")."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    keys = ("name", "version", "openblas configuration")
    return {"numpy": np.__version__, "blas": {k: blas.get(k) for k in keys}}


def run_grid(workdir: Path) -> list[dict]:
    """Run every command line into workdir and collect what each wrote."""
    results = []
    for index, line in enumerate(commands()):
        out = workdir / f"{index:02d}"
        out.mkdir()
        argv = shlex.split(line.replace("{inputs}", str(GOLDEN)))
        code = main(argv + ["--out", str(out / "out.csv")])
        if code != 0:
            raise AssertionError(f"exit code {code}: {line}")
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.glob("*.csv"))}
        sidecar = (out / "out.meta.json").read_text(encoding="utf-8")
        sidecar = json.loads(sidecar.replace(str(out), "{out}").replace(str(GOLDEN), "{inputs}"))
        del sidecar["version"]
        results.append({"command": line, "files": files, "sidecar": sidecar})
    return results


def read_manifest() -> list[dict]:
    return json.loads(gzip.decompress(MANIFEST.read_bytes()))


def write_manifest(results: list[dict]) -> None:
    text = json.dumps(results, indent=0, sort_keys=True).encode()
    MANIFEST.write_bytes(gzip.compress(text, compresslevel=9, mtime=0))
    ENVIRONMENT.write_text(json.dumps(environment(), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


def largest_delta(expected: str, got: str) -> float:
    """Largest |a - b| over the numbers of two CSV texts; inf if anything else differs."""
    rows, other = expected.splitlines(), got.splitlines()
    if len(rows) != len(other):
        return math.inf
    delta = 0.0
    for row, other_row in zip(rows, other):
        fields, other_fields = row.split(","), other_row.split(",")
        if len(fields) != len(other_fields):
            return math.inf
        for a, b in zip(fields, other_fields):
            if a == b:
                continue
            try:
                delta = max(delta, abs(float(a) - float(b)))
            except ValueError:
                return math.inf
    return delta
