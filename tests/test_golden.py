"""Byte identity of the shipped protocol's outputs against tests/golden.

Regenerates the four golden files with the CLI into a temporary directory
and compares bytes, so a refactor that moves any result by one ulp fails
here.  See tests/golden/README.md for how the files were made.
"""

from pathlib import Path

import numpy as np

from guidedflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    ("rows.csv", "summary.json"): ["sweep", "--episodes", "10", "--seed-base", "0"],
    ("grid_sigma.csv",): ["grid-sigma", "--episodes", "4"],
    ("grid_rho.csv",): ["grid-rho", "--episodes", "4"],
}


def _first_difference(expected: bytes, got: bytes) -> str:
    want, have = expected.decode().splitlines(), got.decode().splitlines()
    for lineno, (a, b) in enumerate(zip(want, have), start=1):
        if a != b:
            return f"line {lineno}: golden {a!r}, regenerated {b!r}"
    return f"golden has {len(want)} lines, regenerated {len(have)}"


def test_golden_outputs_byte_identical(tmp_path):
    golden_numpy = (GOLDEN / "numpy_version.txt").read_text().strip()
    mismatches = []
    for names, command in COMMANDS.items():
        assert main([*command, "--out", str(tmp_path)]) == 0
        for name in names:
            expected, got = (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes()
            if expected != got:
                mismatches.append(f"{name}: {_first_difference(expected, got)}")
    assert not mismatches, (
        f"outputs differ from tests/golden (golden numpy {golden_numpy}, "
        f"running numpy {np.__version__}):\n" + "\n".join(mismatches)
    )
