"""Rewrite the golden manifest from the outputs of the code in src/.

Run from the repository root:

    python tests/update_golden.py

Every command line of tests/golden/commands.txt is run, and for each
output file the largest |delta| of its numbers against the stored
manifest is printed ("new" for a file the manifest lacks, "inf" where
more than numbers differ), followed by the number of files whose bytes
moved. The manifest and tests/golden/environment.json are then
rewritten. A change that moves outputs on purpose states this table.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import golden_grid  # noqa: E402


def main() -> int:
    try:
        stored = {entry["command"]: entry for entry in golden_grid.read_manifest()}
    except FileNotFoundError:
        stored = {}
    with tempfile.TemporaryDirectory() as workdir:
        results = golden_grid.run_grid(Path(workdir))
    moved = 0
    for index, entry in enumerate(results):
        old = stored.get(entry["command"])
        names = [*entry["files"], "out.meta.json"]
        for name in names:
            if old is None:
                delta = "new"
            elif name == "out.meta.json":
                delta = "0" if old["sidecar"] == entry["sidecar"] else "inf"
            elif name not in old["files"]:
                delta = "new"
            elif old["files"][name] == entry["files"][name]:
                delta = "0"
            else:
                delta = repr(golden_grid.largest_delta(old["files"][name], entry["files"][name]))
            moved += delta != "0"
            print(f"{index:02d} {name:<22} {delta:<24} {entry['command']}")
    print(f"{moved} file(s) moved")
    golden_grid.write_manifest(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
