"""Command-line entry point: simulation, geometry, optimization, verification.

Outputs are deterministic for a fixed (config, seed): JSON bodies are the
results map with sorted keys, floats serialized by shortest round-trip repr;
CSV always carries a header row.  Elapsed time never reaches stdout, so
repeated runs are byte-identical.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import converse_verification as conv
from . import lattice_geometry as latgeo
from . import protocol_engine as engine
from .partition_core import LabeledPartition

__all__ = ["DEFAULT_SEED", "CommandConfig", "Report", "dispatch", "emit_plot_data", "main"]

DEFAULT_SEED = 0x5EED

# Subcommands whose report has a CSV table.
_CSV_SUBCOMMANDS = ("simulate", "lattice-rates", "entropy-ratio", "plot-data")

# argparse's default matcher misses exponent notation, so "--y -4.69e-05"
# would read the value as an unknown option.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


@dataclass
class CommandConfig:
    subcommand: str
    options: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    fmt: str = "human"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.subcommand not in _RUNNERS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.fmt not in ("json", "csv", "human"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.fmt == "csv" and self.subcommand not in _CSV_SUBCOMMANDS:
            raise ValueError(f"csv output is not defined for {self.subcommand!r}")


@dataclass
class Report:
    subcommand: str
    inputs: dict
    results: dict
    csv_text: Optional[str] = None
    failed: bool = False


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _lattice_from(options: dict) -> latgeo.Lattice2D:
    _require(options, "rho", "theta")
    return latgeo.Lattice2D(options["rho"], options["theta"])


def _subdivision_csv(subdivision: dict) -> str:
    """CSV table of the cells of a :func:`latgeo.subdivision_to_json` dict."""
    lines = ["x_lo,x_hi,y_lo,y_hi,error_free,prob"]
    for cell in subdivision["cells"]:
        coords = ",".join(repr(v) for v in cell["rect"])
        lines.append(f"{coords},{str(cell['error_free']).lower()},{cell['prob']!r}")
    return "\n".join(lines) + "\n"


def emit_plot_data(
    which: str,
    resolution: int,
    rho: Optional[float] = None,
    theta: Optional[float] = None,
) -> str:
    """Plot-ready CSV: the ratio curve, entropy convergence, or subdivision cells.

    ``resolution`` sets the grid size of the ratio curve and the largest depth
    of the convergence table, capped at the deepest bit-exchange tree.  It is
    ignored for the subdivision listing, which needs the lattice parameters
    instead.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    lines: list[str] = []
    if which == "ratio-curve":
        lines.append("v,entropy_ratio_bits")
        for i in range(1, resolution):
            v = i / resolution
            lines.append(f"{v!r},{conv.entropy_ratio(v)!r}")
    elif which == "convergence":
        lines.append("depth,entropy_bits")
        for depth in range(1, min(resolution, engine.MAX_TREE_DEPTH) + 1):
            rate = engine.sum_rate(engine.bit_exchange_protocol(depth))
            lines.append(f"{depth},{rate!r}")
    elif which == "subdivision":
        if rho is None or theta is None:
            raise ValueError("subdivision plot data needs --rho and --theta")
        sub = latgeo.babai_subdivision(latgeo.Lattice2D(rho, theta))
        return _subdivision_csv(latgeo.subdivision_to_json(sub))
    else:
        raise ValueError(f"unknown plot kind {which!r}")
    return "\n".join(lines) + "\n"


def _run_simulate(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    opts = config.options
    protocol = opts.get("protocol", "bit-exchange")
    if protocol != "bit-exchange":
        raise ValueError(f"unknown protocol {protocol!r}")
    samples = opts.get("samples", 1_000_000)
    max_depth = opts.get("max_depth", 30)
    tree = engine.bit_exchange_protocol(max_depth)
    transcripts_path = opts.get("transcripts")
    if transcripts_path:
        with open(transcripts_path, "w", encoding="utf-8") as fh:
            for chunk in engine.sample_inputs(config.seed, samples):
                for x1, x2 in chunk.tolist():
                    run = engine.run_protocol(tree, x1, x2)
                    fh.write(",".join(str(s) for s in run.messages) + "\n")
    stats = engine.monte_carlo(tree, samples, config.seed)
    results = {
        "samples": stats.sample_count,
        "mean_bits": stats.mean_bits,
        "mean_rounds": stats.mean_rounds,
        "seed": stats.seed,
    }
    csv_text = (
        "samples,mean_bits,mean_rounds,seed\n"
        f"{stats.sample_count},{stats.mean_bits!r},{stats.mean_rounds!r},{stats.seed}\n"
    )
    return results, csv_text, False


def _run_lattice_rates(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    lat = _lattice_from(config.options)
    sub = latgeo.babai_subdivision(lat)
    rates = latgeo.round_rates(sub)
    subdivision = latgeo.subdivision_to_json(sub)
    results = {
        "rho": lat.rho,
        "theta": lat.theta,
        "Q": list(rates.Q),
        "P": list(rates.P),
        "Q0": rates.Q0,
        "P0": rates.P0,
        "R_bar": rates.R_bar,
        "N_bar": rates.N_bar,
        "crossed_mass": latgeo.crossed_cell_mass(sub),
        "subdivision": subdivision,
    }
    mc_samples = config.options.get("samples") or 0
    if mc_samples:
        results["mc_mean_rounds"] = latgeo.simulate_round_count(sub, mc_samples, config.seed)
    return results, _subdivision_csv(subdivision), False


def _run_lattice_nearest(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    lat = _lattice_from(config.options)
    _require(config.options, "x", "y")
    x = (config.options["x"], config.options["y"])
    coeffs, babai_pt = latgeo.nearest_plane_point(lat, x)
    nearest = latgeo.nearest_lattice_point(lat, x)
    results = {
        "input": [x[0], x[1]],
        "babai_coeffs": [coeffs[0], coeffs[1]],
        "babai_point": [babai_pt.x1, babai_pt.x2],
        "nearest_point": [nearest.x1, nearest.x2],
    }
    return results, None, False


def _run_entropy_ratio(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    _require(config.options, "v")
    v = config.options["v"]
    value = conv.entropy_ratio(v)
    return {"v": v, "ratio_bits": value}, f"v,entropy_ratio_bits\n{v!r},{value!r}\n", False


def _run_optimize_ratio(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    tolerance = config.options.get("tolerance", 1e-6)
    v_star, value = conv.minimize_entropy_ratio(tolerance)
    return {"tolerance": tolerance, "v_star": v_star, "ratio_min": value}, None, False


def _run_partition_show(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    opts = config.options
    sources = [opts.get("infile"), opts.get("v"), opts.get("protocol")]
    if sum(s is not None for s in sources) != 1:
        raise ValueError("choose exactly one of --in, --v, --protocol")
    if opts.get("infile"):
        with open(opts["infile"], "r", encoding="utf-8") as fh:
            part = LabeledPartition.from_json(fh.read())
    elif opts.get("v") is not None:
        part = conv.self_similar_partition(opts["v"], opts.get("max_depth", 4))
    else:
        if opts["protocol"] != "bit-exchange":
            raise ValueError(f"unknown protocol {opts['protocol']!r}")
        part = engine.induced_partition(engine.bit_exchange_protocol(opts.get("max_depth", 4)))
    return part.to_json_dict(), None, False


def _run_verify(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    target = config.options.get("target", "converse")
    if target != "converse":
        raise ValueError(f"unknown verification target {target!r}")
    report = conv.run_all_checks(include_oracle=bool(config.options.get("all", False)))
    return report, None, not report["pass"]


def _run_plot_data(config: CommandConfig) -> tuple[dict, Optional[str], bool]:
    opts = config.options
    _require(opts, "which")
    csv_text = emit_plot_data(
        opts["which"], opts.get("resolution", 64), rho=opts.get("rho"), theta=opts.get("theta")
    )
    return {"which": opts["which"], "rows": csv_text.count("\n") - 1}, csv_text, False


_RUNNERS = {
    "simulate": _run_simulate,
    "lattice-rates": _run_lattice_rates,
    "lattice-nearest": _run_lattice_nearest,
    "entropy-ratio": _run_entropy_ratio,
    "optimize-ratio": _run_optimize_ratio,
    "partition-show": _run_partition_show,
    "verify": _run_verify,
    "plot-data": _run_plot_data,
}


def dispatch(config: CommandConfig) -> Report:
    """Route a validated config to its module operation."""
    results, csv_text, failed = _RUNNERS[config.subcommand](config)
    inputs = {k: v for k, v in config.options.items() if v is not None}
    inputs["seed"] = config.seed
    return Report(config.subcommand, inputs, results, csv_text, failed)


def _render_human(report: Report) -> str:
    lines = [f"{report.subcommand}"]
    for key, value in sorted(report.inputs.items()):
        lines.append(f"  in  {key} = {value}")
    body = json.dumps(report.results, sort_keys=True, indent=2)
    for line in body.splitlines():
        lines.append(f"  out {line}")
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.results, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        if report.csv_text is None:
            raise ValueError(f"csv output is not defined for {report.subcommand!r}")
        return report.csv_text
    return _render_human(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcomm",
        description="Interactive-communication cost calculations at desk scale",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=("json", "csv", "human"), default=None)
        p.add_argument("--json", action="store_true", help="shorthand for --format json")
        p.add_argument("--out", type=str, default=None, help="write output to a file")

    p = sub.add_parser("simulate", help="Monte Carlo protocol statistics")
    p.add_argument("--protocol", default="bit-exchange")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--max-depth", type=int, default=30, dest="max_depth")
    p.add_argument("--transcripts", type=str, default=None,
                   help="dump one comma-separated transcript per run to this file")
    add_common(p)

    p = sub.add_parser("lattice-rates", help="two-round refinement statistics")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta", type=float, required=True, help="radians in (0, pi/2]")
    p.add_argument("--samples", type=int, default=0,
                   help="optional Monte Carlo round-count sample size")
    add_common(p)

    p = sub.add_parser("lattice-nearest", help="Babai and exact nearest points")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    add_common(p)

    p = sub.add_parser("entropy-ratio", help="conditional entropy ratio at v")
    p.add_argument("--v", type=float, required=True)
    add_common(p)

    p = sub.add_parser("optimize-ratio", help="golden-section ratio minimization")
    p.add_argument("--tolerance", type=float, default=1e-6)
    add_common(p)

    p = sub.add_parser("partition-show", help="emit or round-trip a partition")
    p.add_argument("--protocol", type=str, default=None)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--max-depth", type=int, default=4, dest="max_depth")
    p.add_argument("--in", type=str, default=None, dest="infile")
    add_common(p)

    p = sub.add_parser("verify", help="run the verification checks")
    p.add_argument("target", choices=("converse",))
    p.add_argument("--all", action="store_true",
                   help="include the exhaustive grid-search oracle")
    add_common(p)

    p = sub.add_parser("plot-data", help="plot-ready CSV tables")
    p.add_argument("--which", choices=("ratio-curve", "convergence", "subdivision"),
                   required=True)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> CommandConfig:
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "seed", "format", "json", "out")
    }
    fmt = args.format
    if args.json:
        fmt = "json"
    elif fmt is None:
        fmt = "csv" if args.subcommand == "plot-data" else "human"
    return CommandConfig(args.subcommand, options, args.seed, fmt, args.out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        config = _config_from_args(args)
        report = dispatch(config)
        text = render(report, config.fmt)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {1e3 * (time.perf_counter() - start):.1f} ms", file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
