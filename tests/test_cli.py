import contextlib
import copy
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latcomm import LabeledPartition, Lattice2D, self_similar_partition
import latcomm.cli as cli_module
import latcomm.protocol_engine as engine
from latcomm.cli import DEFAULT_SEED, emit_plot_data, main

from oracles import (
    closed_form_truncated_bits,
    first_differ_round,
    fraction_bits,
    random_zero_error_partition,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_quietly(*argv):
    """``run_cli`` for hypothesis tests, which cannot take a per-test fixture.

    An argparse usage error returns its exit code instead of raising.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_default_seed_documented_constant():
    assert DEFAULT_SEED == 0x5EED


def test_config_validation():
    for argv in (["no-such-command"], ["simulate", "--format", "yaml"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_simulate_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--samples", "5000", "--max-depth", "20", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"samples", "mean_bits", "mean_rounds", "seed"}
    assert data["samples"] == 5000
    assert data["seed"] == DEFAULT_SEED
    assert 3.0 < data["mean_bits"] < 5.0


def test_outputs_byte_identical_across_runs(capsys):
    args = ("simulate", "--samples", "70000", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, other_seed, _ = run_cli(capsys, *args, "--seed", "7")
    assert other_seed != first


def test_lattice_rates_csv_and_json(capsys):
    theta = repr(math.pi / 3)
    code, out, _ = run_cli(capsys, "lattice-rates", "--rho", "1", "--theta", theta, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["N_bar"] == pytest.approx(4 / 3, abs=1e-12)
    assert len(data["subdivision"]["cells"]) == 7
    code, out, _ = run_cli(capsys, "lattice-rates", "--rho", "1", "--theta", theta,
                           "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "x_lo,x_hi,y_lo,y_hi,error_free,prob"
    assert len(lines) == 8


def test_lattice_nearest(capsys):
    code, out, _ = run_cli(
        capsys, "lattice-nearest", "--rho", "1", "--theta", "1.5707963",
        "--x", "0.6", "--y", "0.2", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["babai_coeffs"] == [1, 0]
    assert data["nearest_point"] == pytest.approx([1.0, 0.0], abs=1e-6)


def test_entropy_ratio_command(capsys):
    code, out, _ = run_cli(capsys, "entropy-ratio", "--v", "0.5", "--json")
    assert code == 0
    assert json.loads(out) == {"ratio_bits": 3.0, "v": 0.5}


def test_optimize_ratio_command(capsys):
    code, out, _ = run_cli(capsys, "optimize-ratio", "--json")
    assert code == 0
    assert json.loads(out) == {"ratio_min": 3.0, "v_star": 0.5}


def test_optimize_ratio_has_no_tolerance(capsys):
    # The minimum is proved, not searched for: there is nothing to tune.
    with pytest.raises(SystemExit) as exc:
        main(["optimize-ratio", "--tolerance", "1e-6"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tolerance 1e-6" in err


def test_verify_converse_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "converse", "--all", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["thm5"]["total_bits"] == 4.0
    assert data["example1"]["pass"] and data["thm3"]["pass"] and data["thm5"]["pass"]


def test_verify_fails_when_entropy_ratio_leaves_its_mass_formula(capsys, monkeypatch):
    real_ratio = cli_module.conv.entropy_ratio

    def off_at_a_quarter(v):
        return real_ratio(v) + (1e-9 if v == 0.25 else 0.0)

    monkeypatch.setattr(cli_module.conv, "entropy_ratio", off_at_a_quarter)
    code, out, _ = run_cli(capsys, "verify", "converse", "--json")
    assert code == 1
    data = json.loads(out)
    assert not data["thm5"]["pass"] and not data["pass"]
    assert data["thm5"]["ratio_min"] == 3.0


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_checks(include_oracle=True):
        return {"example1": {}, "thm3": {}, "thm5": {}, "pass": False}

    monkeypatch.setattr(cli_module.conv, "run_all_checks", fake_checks)
    code, _, _ = run_cli(capsys, "verify", "converse", "--json")
    assert code == 1


def test_usage_and_domain_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--format", "yaml"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "entropy-ratio", "--v", "1.5")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "lattice-rates", "--rho", "0.5", "--theta", "0.3")
    assert code == 2 and "skewed" in err


def test_partition_show_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "partition-show", "--protocol", "bit-exchange", "--max-depth", "3", "--json"
    )
    assert code == 0
    path = tmp_path / "part.json"
    path.write_text(out, encoding="utf-8")
    code, again, _ = run_cli(capsys, "partition-show", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(again) == json.loads(out)
    part = LabeledPartition.from_json(out)
    assert abs(sum(part.all_probs()) - 1.0) < 1e-12


def test_partition_show_echoes_integer_coordinates_as_floats(tmp_path, capsys):
    # A partition is held as a float array, so integer JSON coordinates, and
    # the area of an all-integer cell, come back as floats.
    path = tmp_path / "part.json"
    path.write_text(
        '{"cells": [{"rect": [0, 1, 0, 0.5], "label": "q"},'
        ' {"rect": [0, 1, 0.5, 1], "label": "u"}]}',
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "partition-show", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"cells": [
        {"label": "q", "prob": 0.5, "rect": [0.0, 1.0, 0.0, 0.5]},
        {"label": "u", "prob": 0.5, "rect": [0.0, 1.0, 0.5, 1.0]},
    ]}
    assert '"rect": [\n        0.0,\n        1.0,\n        0.0,\n        0.5\n      ]' in out
    path.write_text('{"cells": [{"rect": [0, 1, 0, 1], "label": "u"}]}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "partition-show", "--in", str(path), "--json")
    assert code == 0
    assert '"prob": 1.0,' in out and '"prob": 1,' not in out


def test_partition_show_self_similar(capsys):
    code, out, _ = run_cli(capsys, "partition-show", "--v", "0.3", "--max-depth", "2", "--json")
    assert code == 0
    data = json.loads(out)
    labels = sorted(entry["label"] for entry in data["cells"])
    assert labels.count("p") == 3 and labels.count("q") == 3 and labels.count("u") == 4


def test_partition_show_requires_one_source(capsys):
    for sources in ((), ("--v", "0.3", "--protocol", "bit-exchange")):
        with pytest.raises(SystemExit) as exc:
            main(["partition-show", *sources])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_plot_data_ratio_curve(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--which", "ratio-curve",
                           "--resolution", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,entropy_ratio_bits"
    assert len(lines) == 16  # header plus 15 interior grid points
    assert "0.5,3.0" in lines
    table = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert table["0.25"] == table["0.75"]  # symmetry


def test_plot_data_convergence(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--which", "convergence",
                           "--resolution", "16")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "depth,entropy_bits"
    assert lines[1] == "1,2.0"
    assert lines[2] == "2,3.0"


def test_plot_data_resolution_floor():
    for which in ("ratio-curve", "convergence"):
        with pytest.raises(ValueError, match="resolution must be >= 16"):
            emit_plot_data(which, 8)
    with pytest.raises(ValueError):
        emit_plot_data("subdivision", 16)  # lattice parameters missing


def test_plot_data_subdivision_ignores_the_resolution(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--which", "subdivision", "--rho", "1",
                           "--theta", "1.0", "--resolution", "8")
    assert code == 0
    assert out == (GOLDEN_DIR / "plot_subdivision.out").read_text(encoding="utf-8")


def test_csv_output_serializes_no_json(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called for CSV output")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out, _ = run_cli(capsys, "plot-data", "--which", "ratio-curve", "--resolution", "16")
    assert code == 0
    assert out == (GOLDEN_DIR / "ratio_curve_16.out").read_text(encoding="utf-8")


def test_lattice_rates_rejects_negative_samples(capsys):
    code, out, err = run_cli(capsys, "lattice-rates", "--rho", "1", "--theta", "1.0",
                             "--samples", "-5")
    assert (code, out, err) == (2, "", "error: samples must be >= 1\n")


@pytest.mark.parametrize("rho, theta", [
    ("157851556.49016285", "1.5707963221965726"),
    ("141222.2698497264", "1.5707963267937057"),
])
def test_lattice_rates_names_a_cell_too_tall_for_doubles(capsys, rho, theta):
    # The crossed rows are c(1-c)/(2h) tall, below the spacing of doubles near h/2.
    code, out, err = run_cli(capsys, "lattice-rates", "--rho", rho, "--theta", theta)
    assert code == 2 and out == ""
    assert err.startswith(f"error: rho = {rho}, theta = {theta}: ")
    assert "degenerate" not in err


def test_lattice_rates_without_samples_has_no_monte_carlo(capsys):
    code, out, _ = run_cli(capsys, "lattice-rates", "--rho", "1", "--theta", "1.0",
                           "--samples", "0", "--json")
    assert code == 0
    assert "mc_mean_rounds" not in json.loads(out)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "entropy-ratio", "--v", "0.5", "--json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"ratio_bits": 3.0, "v": 0.5}


def test_simulate_transcript_dump(tmp_path, capsys):
    path = tmp_path / "runs.txt"
    code, out, _ = run_cli(
        capsys, "simulate", "--samples", "50", "--transcripts", str(path), "--json"
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 50
    for line in lines:
        symbols = line.split(",")
        assert len(symbols) >= 2 and all(s in ("0", "1") for s in symbols)


def test_simulate_transcripts_accept_a_zero_draw(tmp_path, capsys, monkeypatch):
    # Generator.random draws from [0, 1), so an input can be exactly 0.0.
    pairs = np.array([[0.0, 0.1], [0.75, 0.0], [0.0, 0.0], [0.3, 0.6]])
    monkeypatch.setattr(engine, "sample_inputs", lambda seed, samples: iter([pairs]))
    path = tmp_path / "runs.txt"
    code, _, _ = run_cli(capsys, "simulate", "--samples", "4", "--max-depth", "5",
                         "--transcripts", str(path), "--json")
    assert code == 0
    expected = []
    for x1, x2 in pairs.tolist():
        rounds = first_differ_round(x1, x2, 5) or 5
        bits = zip(fraction_bits(x1, rounds), fraction_bits(x2, rounds))
        expected.append(",".join(f"{b1},{b2}" for b1, b2 in bits))
    assert path.read_text().splitlines() == expected
    assert expected[0] == "0,0,0,0,0,0,0,1"


_SAMPLES_ERROR = "error: samples must be >= 1\n"
_DEPTH_ERROR = "error: max_depth must be in [1, 50]\n"


@pytest.mark.parametrize("argv, error", [
    pytest.param(["--samples", "0"], _SAMPLES_ERROR, id="0"),
    pytest.param(["--samples", "-3"], _SAMPLES_ERROR, id="-3"),
    pytest.param(["--max-depth", "0"], _DEPTH_ERROR, id="max-depth-0"),
    pytest.param(["--max-depth", "51"], _DEPTH_ERROR, id="max-depth-51"),
    # The depth is checked before the samples.
    pytest.param(["--max-depth", "0", "--samples", "0"], _DEPTH_ERROR, id="max-depth-0-samples-0"),
])
def test_rejected_simulate_keeps_the_transcript_file(tmp_path, capsys, argv, error):
    path = tmp_path / "runs.txt"
    path.write_bytes(b"keep me\n")
    code, out, err = run_cli(capsys, "simulate", *argv, "--transcripts", str(path))
    assert (code, out, err) == (2, "", error)
    assert path.read_bytes() == b"keep me\n"


def test_parser_is_built_once_and_shared():
    assert cli_module.build_parser() is cli_module.build_parser()


def test_parser_builder_runs_once_across_main_calls(capsys, monkeypatch):
    builds = []
    new_parser = cli_module._new_parser

    def counting_builder():
        builds.append(None)
        return new_parser()

    monkeypatch.setattr(cli_module, "_parser", None)
    monkeypatch.setattr(cli_module, "_new_parser", counting_builder)
    shape = ("--rho", "1", "--theta", repr(math.pi / 3))
    assert run_cli(capsys, "lattice-rates", *shape, "--samples", "200", "--json")[0] == 0
    for k in range(24):
        query = ("--x", repr(0.1 * k - 1.0), "--y", repr(0.05 * k))
        assert run_cli(capsys, "lattice-nearest", *shape, *query, "--json")[0] == 0
    assert len(builds) == 1


def test_human_inputs_come_from_this_run_only(capsys):
    theta = repr(math.pi / 3)
    assert run_cli(capsys, "lattice-rates", "--rho", "1", "--theta", theta,
                   "--samples", "100", "--json")[0] == 0
    code, out, _ = run_cli(capsys, "entropy-ratio", "--v", "0.3")
    assert code == 0
    inputs = [line for line in out.splitlines() if line.startswith("  in  ")]
    assert inputs == ["  in  v = 0.3"]


def test_dispatch_reports_inputs_and_elapsed(capsys):
    code, out, err = run_cli(capsys, "entropy-ratio", "--v", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert "  in  v = 0.5" in lines
    assert not any(line.startswith("  in  seed") for line in lines)
    assert err.startswith("elapsed: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "converse"),
        ("lattice-nearest", "--rho", "1", "--theta", "1.2", "--x", "0.1", "--y", "0.2"),
        ("optimize-ratio",),
        ("partition-show", "--protocol", "bit-exchange", "--max-depth", "2"),
    ],
)
def test_csv_without_a_table_is_a_usage_error(capsys, monkeypatch, argv):
    def must_not_run(include_oracle=True):
        raise AssertionError("the format must be rejected before dispatch")

    monkeypatch.setattr(cli_module.conv, "run_all_checks", must_not_run)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'csv'" in err


# Every subcommand except the two that draw random inputs.
_UNSEEDED = [
    ("verify", "converse"),
    ("entropy-ratio", "--v", "0.3"),
    ("optimize-ratio",),
    ("partition-show", "--v", "0.3"),
    ("lattice-nearest", "--rho", "1", "--theta", "1.2", "--x", "0.1", "--y", "0.2"),
    ("plot-data", "--which", "ratio-curve"),
]


@pytest.mark.parametrize("argv", _UNSEEDED, ids=lambda argv: argv[0])
def test_seed_is_rejected_where_nothing_is_random(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "7"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --seed 7" in err


def test_the_later_of_json_and_format_wins(capsys):
    argv = ("entropy-ratio", "--v", "0.5")
    _, out, _ = run_cli(capsys, *argv, "--format", "csv", "--json")
    assert out == '{\n  "ratio_bits": 3.0,\n  "v": 0.5\n}\n'
    _, out, _ = run_cli(capsys, *argv, "--json", "--format", "human")
    assert out == run_cli(capsys, *argv)[1] and out.startswith("entropy-ratio\n")


@pytest.mark.parametrize("value", ["-4.69e-05", "-1E+2", "-.5e1", "-3.", "-7"])
def test_negative_numbers_in_exponent_notation(capsys, value):
    base = ("lattice-nearest", "--rho", "1.2", "--theta", "1.0", "--x", "0.1", "--json")
    code, spaced, _ = run_cli(capsys, *base, "--y", value)
    assert code == 0
    code, joined, _ = run_cli(capsys, *base, f"--y={value}")
    assert code == 0
    assert spaced == joined
    assert json.loads(spaced)["input"] == [0.1, float(value)]


def test_lattice_nearest_outside_the_subdivision_domain(capsys):
    # rho*cos(theta) > 1: the Babai point (1, 0) is 0.546 away, the lattice
    # point with coefficients (3, -1) only 0.487.
    code, out, _ = run_cli(
        capsys, "lattice-nearest", "--rho", "2.5", "--theta", "0.3",
        "--x", "0.52", "--y", "-0.26", "--json",
    )
    assert code == 0
    data = json.loads(out)
    lat = Lattice2D(2.5, 0.3)
    assert data["babai_coeffs"] == [1, 0]
    assert data["nearest_point"] == list(lat.point(3, -1))


@pytest.mark.parametrize(
    "query",
    [
        ("--rho", "1", "--theta", "1.0", "--x", "inf", "--y", "0"),
        ("--rho", "1", "--theta", "1.0", "--x=-inf", "--y", "0"),
        ("--rho", "1", "--theta", "1.0", "--x", "0.1", "--y", "nan"),
        ("--rho", "0.5", "--theta", "1.0", "--x", "0.1", "--y", "1e308"),
        ("--rho", "1", "--theta", "1.0", "--x", "1e200", "--y", "1e200"),
    ],
)
def test_lattice_nearest_rejects_non_finite_and_overflowing_queries(capsys, query):
    code, out, err = run_cli(capsys, "lattice-nearest", *query, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: query ")


def test_lattice_nearest_rejects_a_query_far_from_the_origin(capsys):
    # Past 2^18 the float search loses the query's fractional part: it would
    # print a point 0.4002 away, where one 0.3890 away exists.
    code, out, err = run_cli(
        capsys, "lattice-nearest", "--rho", "1", "--theta", repr(math.pi / 3),
        "--x", repr(1e15 + 0.3), "--y", repr(3e14 + 0.1), "--json",
    )
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: query (1000000000000000.2, 300000000000000.1) is not finite or too far"
        " from the origin"
    )


_FUZZ_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, 1e-300, 0.5, 1.0]),
    st.floats(),
)
_FUZZ_COMMANDS = {
    "lattice-nearest": ("rho", "theta", "x", "y"),
    "lattice-rates": ("rho", "theta"),
    "entropy-ratio": ("v",),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_COMMANDS)), st.tuples(*[_FUZZ_FLOATS] * 4))
@example("lattice-nearest", (1.0, 1.0, math.inf, 0.0))
def test_cli_survives_any_float(command, values):
    names = _FUZZ_COMMANDS[command]
    argv = [command, "--json"] + [f"--{n}={v!r}" for n, v in zip(names, values)]
    assert run_cli_quietly(*argv)[0] in (0, 1, 2)


def test_elapsed_includes_rendering(capsys, monkeypatch):
    real_render = cli_module.render

    def slow_render(*args):
        time.sleep(0.2)
        return real_render(*args)

    monkeypatch.setattr(cli_module, "render", slow_render)
    code, _, err = run_cli(capsys, "entropy-ratio", "--v", "0.5", "--json")
    assert code == 0
    assert float(re.fullmatch(r"elapsed: ([0-9.]+) ms\n", err).group(1)) >= 200.0


def test_stdout_holds_only_the_rendered_report(capsys):
    code, out, err = run_cli(capsys, "entropy-ratio", "--v", "0.5", "--json")
    assert code == 0
    assert out == '{\n  "ratio_bits": 3.0,\n  "v": 0.5\n}\n'
    assert err.startswith("elapsed: ")
    code, out, _ = run_cli(capsys, "entropy-ratio", "--v", "0.5", "--format", "csv")
    assert out == "v,entropy_ratio_bits\n0.5,3.0\n"


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '"cells"',
        "{}",
        '{"cells": 3}',
        '{"cells": [7]}',
        '{"cells": [{"label": "p"}]}',
        '{"cells": [{"rect": [0, 1, 0, 1]}]}',
        '{"cells": [{"rect": [0, 1, 0], "label": "u"}]}',
        '{"cells": [{"rect": [0, 1, 0, 1, 2], "label": "u"}]}',
        '{"cells": [{"rect": [0, 1, 0, "1"], "label": "u"}]}',
        '{"cells": [{"rect": [0, 1, 0, null], "label": "u"}]}',
        '{"cells": [{"rect": [0, 1, 0, true], "label": "u"}]}',
        '{"cells": [{"rect": [0, 1, 0, 1e999], "label": "u"}]}',
        '{"cells": [{"rect": "0 1 0 1", "label": "u"}]}',
        '{"cells": [{"rect": [0, 1, 0, 1], "label": "u", "prob": "1"}]}',
        '{"cells": [{"rect": [0, 1, 0, 1], "label": [1, [2]]}]}',
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
    ],
)
def test_partition_show_rejects_malformed_json(tmp_path, capsys, text):
    with pytest.raises(ValueError):
        LabeledPartition.from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "partition-show", "--in", str(path), "--json")
    assert code == 2 and out == "" and err.startswith("error: ")


_PARTITIONS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda s: random_zero_error_partition(np.random.default_rng(s))),
    st.builds(self_similar_partition, st.floats(0.05, 0.95), st.integers(1, 5)),
)
_MUTATIONS = ("drop", "duplicate", "swap-x", "shift", "string", "bool", "null", "1e400",
              "label", "prob")


def _mutated(doc: dict, mutation: str, index: int, coord: int) -> str:
    """JSON text of ``doc`` with one cell damaged as ``mutation`` names."""
    doc = copy.deepcopy(doc)
    cells = doc["cells"]
    cell = cells[index % len(cells)]
    rect = cell["rect"]
    if mutation == "drop":
        cells.remove(cell)
    elif mutation == "duplicate":
        cells.append(copy.deepcopy(cell))
    elif mutation == "swap-x":
        rect[0], rect[1] = rect[1], rect[0]
    elif mutation == "shift":
        width = rect[1] - rect[0]
        rect[0] += width
        rect[1] += width
    elif mutation == "label":
        cell["label"] = "x"
    elif mutation == "prob":
        cell["prob"] += 1e-6
    else:
        rect[coord] = {"string": str(rect[coord]), "bool": True, "null": None,
                       "1e400": "1e400"}[mutation]
    # json.dumps writes an infinite float as Infinity; the literal stays a literal.
    return json.dumps(doc).replace('"1e400"', "1e400")


@settings(max_examples=150, deadline=None)
@given(_PARTITIONS, st.sampled_from(_MUTATIONS), st.integers(0, 10**6), st.integers(0, 3))
# Drops the ~1e-13 cell at the origin: a hole however small is still a hole.
@example(self_similar_partition(0.05, 5), "drop", 62, 0)
# Shifts a cell ~1e-13 wide onto its neighbour: an overlap however thin.
@example(self_similar_partition(0.05, 10), "shift", 0, 0)
def test_partition_show_round_trips_and_rejects_damage(
    tmp_path_factory, part, mutation, index, coord
):
    path = tmp_path_factory.mktemp("partition") / "part.json"
    path.write_text(part.to_json(), encoding="utf-8")
    code, out, _ = run_cli_quietly("partition-show", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out) == part.to_json_dict()
    path.write_text(out, encoding="utf-8")
    assert run_cli_quietly("partition-show", "--in", str(path), "--json")[:2] == (0, out)
    path.write_text(_mutated(json.loads(out), mutation, index, coord), encoding="utf-8")
    code, out, err = run_cli_quietly("partition-show", "--in", str(path), "--json")
    assert code == 2 and out == "" and err.startswith("error: "), (mutation, err)


def test_plot_data_convergence_default_resolution(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--which", "convergence")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth,entropy_bits"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(d) for d, _ in rows] == list(range(1, 51))
    for d, value in rows:
        assert abs(float(value) - closed_form_truncated_bits(int(d))) < 1e-12


_DEFAULT_RUNS = [
    ("simulate",),
    ("lattice-rates", "--rho", "1", "--theta", "1.0"),
    ("lattice-nearest", "--rho", "1", "--theta", "1.0", "--x", "0.1", "--y", "0.2"),
    ("entropy-ratio", "--v", "0.3"),
    ("optimize-ratio",),
    ("partition-show", "--v", "0.3"),
    ("partition-show", "--protocol", "bit-exchange"),
    ("verify", "converse"),
    ("plot-data", "--which", "ratio-curve"),
    ("plot-data", "--which", "convergence"),
    ("plot-data", "--which", "subdivision", "--rho", "1", "--theta", "1.0"),
]


@pytest.mark.parametrize("argv", _DEFAULT_RUNS)
def test_every_subcommand_runs_at_its_parser_defaults(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("argv", _DEFAULT_RUNS)
def test_json_flag_is_format_json(capsys, argv):
    code, flag, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert run_cli(capsys, *argv, "--format", "json")[:2] == (0, flag)
    json.loads(flag)


@pytest.mark.parametrize("depth", ["0", "51"])
def test_max_depth_range_is_one_message(capsys, depth):
    code, out, err = run_cli(capsys, "simulate", "--samples", "10", "--max-depth", depth)
    assert code == 2 and out == ""
    assert err == "error: max_depth must be in [1, 50]\n"


@pytest.mark.parametrize("source", [("--v", "0.3"), ("--protocol", "bit-exchange")])
def test_partition_show_depth_limit(capsys, source):
    code, out, err = run_cli(capsys, "partition-show", *source, "--max-depth", "17")
    assert code == 2 and out == ""
    assert err == "error: a depth-17 partition has 393214 cells; the limit is depth 16\n"


@pytest.mark.parametrize("depth", ["0", "17", "51"])
def test_partition_show_depth_messages_agree(capsys, depth):
    errors = []
    for source in (("--v", "0.3"), ("--protocol", "bit-exchange")):
        code, out, err = run_cli(capsys, "partition-show", *source, "--max-depth", depth)
        assert code == 2 and out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    if depth != "17":
        assert errors[0] == "error: max_depth must be in [1, 50]\n"


@pytest.mark.parametrize("depth", ["1", "4", "11"])
def test_partition_show_bit_exchange_is_v_one_half(capsys, depth):
    code, bit_exchange, _ = run_cli(
        capsys, "partition-show", "--protocol", "bit-exchange", "--max-depth", depth, "--json"
    )
    assert code == 0
    assert run_cli(capsys, "partition-show", "--v", "0.5", "--max-depth", depth, "--json")[:2] == (
        0, bit_exchange
    )


@pytest.mark.parametrize("v, depth", [("0.05", "15"), ("1e-300", "2")])
def test_partition_show_names_a_v_too_fine_for_doubles(capsys, v, depth):
    # A cut that rounds onto its square's edge is reported as the user's v
    # and depth, not as an internal rectangle.
    code, out, err = run_cli(capsys, "partition-show", "--v", v, "--max-depth", depth)
    assert code == 2 and out == ""
    assert err.startswith(f"error: v = {float(v)!r} at depth {depth} is too fine for double precision")
    assert "degenerate" not in err


def test_partition_show_deepest_fine_v_still_succeeds(tmp_path, capsys):
    path = tmp_path / "part.json"
    code, out, _ = run_cli(
        capsys, "partition-show", "--v", "0.05", "--max-depth", "14", "--json", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert len(json.loads(path.read_text(encoding="utf-8"))["cells"]) == 3 * 2**14 - 2


def readme_block(heading):
    """The first fenced block under ``## heading`` in README.md, fences removed."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_library_sketch_runs_and_prints_its_comments():
    names = {}
    exec(readme_block("Library sketch"), names)
    tree, sub, rates = names["tree"], names["sub"], names["rates"]
    assert repr(names["run_protocol"](tree, 0.6, 0.55)) == (
        "Transcript(messages=(1, 1, 0, 0, 0, 0, 1, 0), output=1)"
    )
    assert names["sum_rate"](tree) == 3.9999999962747097
    assert names["assemble_four_bits"]() == 4.0
    assert names["minimize_entropy_ratio"]() == (0.5, 3.0)
    assert isinstance(sub, engine.ProtocolTree)
    assert abs(names["sum_rate"](sub) - 2.1258) <= 1e-4
    assert abs(rates.R_bar - 2.7925) <= 1e-4 and abs(rates.N_bar - 1.3333) <= 1e-4
