"""Tests of the benchmark's own code, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import checks
import run
import speed
import tracing
import workloads

TINY = {
    "achievability": {"samples": 3000},
    "transcripts": {"samples": 2000},
    "converse": {"depth": 3},
    "lattice": {"samples": 2000, "queries": 3},
}

cli = run.load_cli(run.SRC)


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_to_its_end(name, traced, tmp_path):
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        meter = None if traced else speed.Speedometer()
        setup = run.SetupTimer(run.SRC, 2, 0.0)
        stats = run.run(cli, workloads.rounds(name, 7, str(tmp_path), TINY[name]), 0.0, setup,
                        meter, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert stats.attempted >= 1
    assert (stats.failed, stats.wrong) == (0, 0), stats.errors
    assert list(tmp_path.iterdir()) == []
    assert len(setup.samples["setup_s"]) == 2
    setup = setup.samples
    if tracer is None:
        assert len(meter.samples_ms) >= stats.attempted * speed.LOOPS_AFTER_OP
        assert len(stats.scaled) == stats.attempted
        assert all(v > 0 for v, _ in run.end_to_end(stats, setup, meter).values())
        return
    layers = run.per_layer(stats, setup, tracer)  # raises unless self times add up
    assert layers["cli.build_parser_ms"][0] > 0
    if name == "transcripts":
        assert layers["protocol_engine.run_protocol_calls"][0] == TINY[name]["samples"]
    if name == "lattice":
        assert layers["lattice_geometry.nearest_calls"][0] == TINY[name]["queries"]
        assert layers["lattice_geometry.mc_samples"][0] == TINY[name]["samples"]
    if name == "converse":
        assert layers["partition_core.cells_validated"][0] > 0
        assert layers["protocol_engine.sum_rate_calls"][0] > 0


def test_speedometer_takes_its_own_time_out_and_restores_the_handler():
    meter = speed.Speedometer()
    before = signal.getsignal(signal.SIGALRM)
    with meter.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    net, scaled = meter.settle(elapsed)
    assert len(meter.samples_ms) >= 5 + speed.LOOPS_AFTER_OP
    assert 0 < net < elapsed
    expected = net * speed.REF_NOMINAL_MS / statistics.fmean(meter.samples_ms)
    assert scaled == pytest.approx(expected)


def test_tracing_keeps_stdout_and_restores_functions():
    argvs = [
        ["simulate", "--samples", "700", "--seed", "3", "--json"],
        ["partition-show", "--v", "0.4", "--max-depth", "3", "--json"],
        ["lattice-rates", "--rho", "1.2", "--theta", "1.1", "--samples", "500", "--json"],
    ]
    plain = [stdout_of(a) for a in argvs]
    original = cli.engine.monte_carlo
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_op()
        traced = [stdout_of(a) for a in argvs]
        tracer.end_op(root)
        assert cli.engine.monte_carlo is not original
    finally:
        tracer.uninstall()
    assert traced == plain
    assert cli.engine.monte_carlo is original
    assert len(tracer.counts) == 1 and tracer.counts[0]["protocol_engine.samples"] == 700


def test_flipped_transcript_bit_is_rejected(tmp_path):
    path = tmp_path / "t.txt"
    result = json.loads(stdout_of(["simulate", "--samples", "500", "--seed", "11",
                                   "--transcripts", str(path), "--json"]))
    text = path.read_bytes()
    checks.check_transcripts(text, result, 11, 500, 30)
    i = text.index(b"\n") + 1  # first symbol of the second line
    flipped = text[:i] + (b"1" if text[i:i + 1] == b"0" else b"0") + text[i + 1:]
    with pytest.raises(checks.CheckFailed, match="line 2"):
        checks.check_transcripts(flipped, result, 11, 500, 30)


def test_mean_bits_off_by_one_sample_is_rejected():
    n = 5000
    result = json.loads(stdout_of(["simulate", "--samples", str(n), "--seed", "9",
                                   "--max-depth", "5", "--json"]))
    checks.check_simulate(result, 9, n, 5)
    result["mean_bits"] += 1.0 / n
    with pytest.raises(checks.CheckFailed, match="mean_bits"):
        checks.check_simulate(result, 9, n, 5)


def test_p_cell_across_the_diagonal_is_rejected():
    doc = json.loads(stdout_of(["partition-show", "--protocol", "bit-exchange",
                                "--max-depth", "4", "--json"]))
    checks.check_partition(doc, 4, 0.5)
    cell = next(c for c in doc["cells"] if c["label"] == "p")
    a, b, c, d = cell["rect"]
    cell["rect"] = [c, d, a, b]  # its mirror image above the diagonal
    with pytest.raises(checks.CheckFailed, match="crosses the diagonal"):
        checks.check_partition(doc, 4, 0.5)


def test_overlap_and_gap_are_rejected():
    checks.tiles_exactly([(0, 1, 0, 0.5), (0, 1, 0.5, 1)], (0, 1, 0, 1))
    with pytest.raises(checks.CheckFailed, match="overlap"):
        checks.tiles_exactly([(0, 1, 0, 0.5), (0, 1, 0.25, 1)], (0, 1, 0, 1))
    with pytest.raises(checks.CheckFailed, match="gap"):
        checks.tiles_exactly([(0, 1, 0, 0.5), (0, 1, 0.75, 1)], (0, 1, 0, 1))


def test_nearest_point_one_lattice_vector_away_is_rejected():
    rho, theta, x, y = 1.3, 1.2, 0.45, 0.55
    result = json.loads(stdout_of(["lattice-nearest", "--rho", repr(rho), "--theta", repr(theta),
                                   "--x", repr(x), "--y", repr(y), "--json"]))
    checks.check_nearest(result, rho, theta, x, y)
    result["nearest_point"][0] += 1.0
    with pytest.raises(checks.CheckFailed, match="nearest point"):
        checks.check_nearest(result, rho, theta, x, y)


def test_lattice_rates_match_the_paper_formulas():
    rho, theta = 1.0, 1.0471975511965976  # hexagonal: R_bar = 2.7925 bits, N_bar = 4/3
    result = json.loads(stdout_of(["lattice-rates", "--rho", repr(rho), "--theta", repr(theta),
                                   "--samples", "4000", "--json"]))
    checks.check_lattice_rates(result, rho, theta, 4000)
    assert abs(checks.lattice_formulas(rho, theta)["N_bar"] - 4.0 / 3.0) < 1e-12
    result["R_bar"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="R_bar"):
        checks.check_lattice_rates(result, rho, theta, 4000)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
