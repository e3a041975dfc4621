"""Byte-for-byte golden files for every CLI artifact.

Each case runs one subcommand on a small grid and compares the file it
writes with tests/golden/<case>/<file>. After an intended output change,
regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
and review the diff.
"""

import sys
from pathlib import Path

import pytest

from d2dcache.cli import main

GOLDEN = Path(__file__).parent / "golden"

SIM = ("simulate", "--omega-grid=-2:-1:2", "--horizon", "20", "--seed", "3")

CASES = {
    "cost": (("cost", "--omega-grid=-3:-1:3", "--sigma", "2", "--sigma", "0.5"), "cost_sweep.csv"),
    "optimize": (
        ("optimize", "--omega-grid=-3:-1:3", "--sigma", "0.01", "--sigma", "100"),
        "optimize_sweep.csv",
    ),
    "gain": (
        ("gain", "--omega-grid=-2:-1:2", "--v", "10", "--v", "20", "--theta", "4"),
        "gain_sweep.csv",
    ),
    "tables": (("tables",), "savings_tables.csv"),
    "geometry": (("geometry", "--n-max", "3", "--v", "15"), "geometry_table.json"),
    "simulate-chain": ((*SIM, "--reps", "2"), "simulate_sweep.csv"),
    "simulate-spatial": (
        (*SIM, "--methods", "simple,msr", "--fidelity", "spatial"),
        "simulate_sweep.csv",
    ),
}


def _run(case: str, out: Path) -> Path:
    argv, name = CASES[case]
    assert main([*argv, "--out", str(out)]) == 0
    return out / name


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return {case: _run(case, root / case) for case in CASES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(outputs, case):
    expected = GOLDEN / case / CASES[case][1]
    assert outputs[case].read_bytes() == expected.read_bytes()


TEXT_COLUMNS = {"method", "best_method", "fidelity"}


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][1].endswith(".csv")))
def test_numeric_fields_parse(outputs, case):
    header, *rows = outputs[case].read_text().splitlines()
    names = header.split(",")
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(names)
        for name, value in zip(names, fields):
            if name not in TEXT_COLUMNS:
                float(value)


if __name__ == "__main__":
    for case in CASES:
        print(_run(case, GOLDEN / case), file=sys.stderr)
