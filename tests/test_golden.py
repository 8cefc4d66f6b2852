"""Stdout of fixed command lines, compared byte for byte with recorded files.

Each ``tests/golden/<name>.out`` holds the stdout that ``latcomm <argv>``
printed when it was recorded.  The commands stay inside the supported lattice
domain and cover every serialization path: JSON, CSV, the subdivision table,
seeded Monte Carlo and the verification report.
"""

from pathlib import Path

import pytest

from latcomm.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

HEX = "1.0471975511965976"  # pi/3
SQUARE = "1.5707963267948966"  # pi/2, the degenerate one-cell subdivision

GOLDEN = {
    "verify_all": ("verify", "converse", "--all", "--json"),
    "rates_hex_json": ("lattice-rates", "--rho", "1", "--theta", HEX, "--json"),
    "rates_hex_csv": ("lattice-rates", "--rho", "1", "--theta", HEX, "--format", "csv"),
    "rates_2_1.2_json": ("lattice-rates", "--rho", "2", "--theta", "1.2", "--json"),
    "rates_2_1.2_csv": ("lattice-rates", "--rho", "2", "--theta", "1.2", "--format", "csv"),
    "rates_square_json": ("lattice-rates", "--rho", "1", "--theta", SQUARE, "--json"),
    "rates_square_csv": ("lattice-rates", "--rho", "1", "--theta", SQUARE, "--format", "csv"),
    "rates_hex_samples": (
        "lattice-rates", "--rho", "1", "--theta", HEX, "--samples", "20000", "--seed", "7",
        "--json",
    ),
    "partition_bx4": (
        "partition-show", "--protocol", "bit-exchange", "--max-depth", "4", "--json",
    ),
    "partition_v0.3": ("partition-show", "--v", "0.3", "--max-depth", "4", "--json"),
    "plot_subdivision": ("plot-data", "--which", "subdivision", "--rho", "1", "--theta", "1.0"),
    "optimize_ratio": ("optimize-ratio", "--json"),
    "simulate_70000": ("simulate", "--samples", "70000", "--max-depth", "6", "--json"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_recording(capsys, name):
    code = main(list(GOLDEN[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
