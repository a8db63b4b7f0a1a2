"""Every golden command line still writes the outputs the manifest holds.

In the numpy and BLAS build that wrote the manifest (golden/environment.json)
every CSV must keep its bytes. Under another build the products of floats may
round otherwise, so there each number of a CSV must lie within
OTHER_BLAS_BOUND of the stored one and everything else must match; the
test's name says which comparison ran. Sidecars, version and output paths
aside, must be equal in either case. tests/update_golden.py rewrites the
manifest.
"""

from __future__ import annotations

import json

import golden_grid


def test_the_manifest_lists_every_golden_command_line():
    assert [entry["command"] for entry in golden_grid.read_manifest()] == golden_grid.commands()


def _compare(tmp_path, exact: bool) -> None:
    expected = {entry["command"]: entry for entry in golden_grid.read_manifest()}
    moved = []
    for entry in golden_grid.run_grid(tmp_path):
        old = expected[entry["command"]]
        if entry["sidecar"] != old["sidecar"]:
            moved.append(f"sidecar of {entry['command']}")
        if entry["files"].keys() != old["files"].keys():
            moved.append(f"files {sorted(entry['files'])} of {entry['command']}")
            continue
        for name, text in entry["files"].items():
            if exact and text != old["files"][name]:
                delta = golden_grid.largest_delta(old["files"][name], text)
                moved.append(f"{name} of {entry['command']} (largest |delta| {delta!r})")
            elif not exact:
                delta = golden_grid.largest_delta(old["files"][name], text)
                if not delta <= golden_grid.OTHER_BLAS_BOUND:
                    moved.append(f"{name} of {entry['command']} (largest |delta| {delta!r})")
    assert not moved, "\n".join(moved)


def _same_environment() -> bool:
    recorded = json.loads(golden_grid.ENVIRONMENT.read_text(encoding="utf-8"))
    return recorded == golden_grid.environment()


if _same_environment():

    def test_golden_outputs_keep_their_bytes(tmp_path):
        _compare(tmp_path, exact=True)

else:

    def test_golden_outputs_lie_within_the_other_blas_bound(tmp_path):
        _compare(tmp_path, exact=False)
