"""Stdout of fixed command lines, compared byte for byte with recorded files.

Each ``tests/golden/<name>.out`` holds the stdout that ``latcomm <argv>``
printed when it was recorded.  The commands stay inside the supported lattice
domain and cover every serialization path: JSON, CSV, the human-readable
format, the subdivision table, the plot tables, seeded Monte Carlo, the
nearest-point query and the verification report.
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
    "simulate_70000_csv": (
        "simulate", "--samples", "70000", "--max-depth", "6", "--format", "csv",
    ),
    "convergence": ("plot-data", "--which", "convergence"),
    "ratio_curve_16": ("plot-data", "--which", "ratio-curve", "--resolution", "16"),
    "nearest_2.5_0.3": (
        "lattice-nearest", "--rho", "2.5", "--theta", "0.3", "--x", "0.52", "--y", "-0.26",
        "--json",
    ),
    "verify_human": ("verify", "converse"),
    "entropy_ratio_human": ("entropy-ratio", "--v", "0.3"),
    "simulate_70000_human": ("simulate", "--samples", "70000", "--max-depth", "6"),
    "rates_hex_human": ("lattice-rates", "--rho", "1", "--theta", HEX),
    "partition_v0.3_human": ("partition-show", "--v", "0.3", "--max-depth", "2"),
    "ratio_curve_16_human": (
        "plot-data", "--which", "ratio-curve", "--resolution", "16", "--format", "human",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_recording(capsys, name):
    code = main(list(GOLDEN[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")


def test_one_process_runs_every_recording_between_errors(capsys):
    # The parser is shared across main calls: no option value, default or
    # failed parse may carry over from one run into the next.
    names = sorted(GOLDEN)
    for name in names + names[::-1]:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--format", "yaml"])
        assert exc.value.code == 2
        assert main(["simulate", "--samples", "0"]) == 2
        capsys.readouterr()
        assert main(list(GOLDEN[name])) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8"), name
