"""Smoke tests: each script in ``scripts/`` runs as ``__main__`` and prints its anchor."""

import runpy
from pathlib import Path

from latcomm.cli import emit_plot_data

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_convergence_table(tmp_path, monkeypatch, capsys):
    out = run_script("convergence_table.py", tmp_path, monkeypatch, capsys)
    lines = out.splitlines()
    assert "   30    3.999999996274710    3.999999996274710    3.725e-09" in lines
    assert "closed-form assembly: 4.0 bits" in lines
    assert lines[-1] == "monte carlo (200000 samples): 4.0111 bits, 2.0055 rounds"


def test_subdivision_report(tmp_path, monkeypatch, capsys):
    out = run_script("subdivision_report.py", tmp_path, monkeypatch, capsys)
    lines = out.splitlines()
    headers = [line for line in lines if line.startswith("--- rho=")]
    assert len(headers) == 4
    # The hexagonal lattice's rates.
    assert "R_bar=2.792481 bits, N_bar=1.333333 rounds, crossed mass=0.166667" in lines


def test_ratio_curve(tmp_path, monkeypatch, capsys):
    out = run_script("ratio_curve.py", tmp_path, monkeypatch, capsys)
    assert out.startswith("wrote ratio_curve.csv; minimum 3.000000000000 bits")
    csv_text = (tmp_path / "ratio_curve.csv").read_text(encoding="utf-8")
    assert csv_text == emit_plot_data("ratio-curve", 512)
