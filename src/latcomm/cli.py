"""Command-line entry point: simulation, geometry, optimization, verification.

:func:`build_parser` holds every option with its default and choices.  The
parser is built once per process, on the first call, and every :func:`main`
call shares it: ``parse_args`` leaves the parser unchanged and returns a
fresh namespace.  :func:`main` parses the command line, rejects
``--format csv`` for a subcommand without a table, runs the subcommand on
the parsed namespace, renders and writes.  Outputs are deterministic for
fixed options and seed: JSON bodies are the results map with sorted keys,
floats serialized by shortest round-trip repr; CSV always carries a header
row; the human format lists the parsed options as ``in`` lines before the
results.  Elapsed time never reaches stdout, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Optional

from . import converse_verification as conv
from . import lattice_geometry as latgeo
from . import protocol_engine as engine
from .partition_core import LabeledPartition

__all__ = ["DEFAULT_SEED", "emit_plot_data", "main"]

DEFAULT_SEED = 0x5EED

# Subcommands whose report has a CSV table.
_CSV_SUBCOMMANDS = ("simulate", "lattice-rates", "entropy-ratio", "plot-data")

# Namespace attributes that select the output, not the computation.
_OUTPUT_OPTIONS = ("subcommand", "format", "json", "out")

# argparse's default matcher misses exponent notation, so "--y -4.69e-05"
# would read the value as an unknown option.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


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
    if which == "subdivision":
        if rho is None or theta is None:
            raise ValueError("subdivision plot data needs --rho and --theta")
        sub = latgeo.babai_subdivision(latgeo.Lattice2D(rho, theta))
        return _subdivision_csv(latgeo.subdivision_to_json(sub))
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
    else:
        raise ValueError(f"unknown plot kind {which!r}")
    return "\n".join(lines) + "\n"


def _run_simulate(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    # Before the transcript file is opened, so a rejected run leaves it as it was.
    mean_bits, mean_rounds = engine.monte_carlo(args.max_depth, args.samples, args.seed)
    if args.transcripts:
        tree = engine.bit_exchange_protocol(args.max_depth)
        with open(args.transcripts, "w", encoding="utf-8") as fh:
            for chunk in engine.sample_inputs(args.seed, args.samples):
                for x1, x2 in chunk.tolist():
                    run = engine.run_protocol(tree, x1, x2)
                    fh.write(",".join(str(s) for s in run.messages) + "\n")
    results = {
        "samples": args.samples,
        "mean_bits": mean_bits,
        "mean_rounds": mean_rounds,
        "seed": args.seed,
    }
    csv_text = (
        "samples,mean_bits,mean_rounds,seed\n"
        f"{args.samples},{mean_bits!r},{mean_rounds!r},{args.seed}\n"
    )
    return results, csv_text


def _run_lattice_rates(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    lat = latgeo.Lattice2D(args.rho, args.theta)
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
    if args.samples:
        results["mc_mean_rounds"] = latgeo.simulate_round_count(sub, args.samples, args.seed)
    return results, _subdivision_csv(subdivision)


def _run_lattice_nearest(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    lat = latgeo.Lattice2D(args.rho, args.theta)
    x = (args.x, args.y)
    coeffs, babai_pt = latgeo.nearest_plane_point(lat, x)
    nearest = latgeo.nearest_lattice_point(lat, x)
    results = {
        "input": [x[0], x[1]],
        "babai_coeffs": [coeffs[0], coeffs[1]],
        "babai_point": [babai_pt.x1, babai_pt.x2],
        "nearest_point": [nearest.x1, nearest.x2],
    }
    return results, None


def _run_entropy_ratio(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    value = conv.entropy_ratio(args.v)
    return {"v": args.v, "ratio_bits": value}, f"v,entropy_ratio_bits\n{args.v!r},{value!r}\n"


def _run_optimize_ratio(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    v_star, value = conv.minimize_entropy_ratio(args.tolerance)
    return {"tolerance": args.tolerance, "v_star": v_star, "ratio_min": value}, None


def _run_partition_show(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    if sum(s is not None for s in (args.infile, args.v, args.protocol)) != 1:
        raise ValueError("choose exactly one of --in, --v, --protocol")
    if args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            part = LabeledPartition.from_json(fh.read())
    elif args.v is not None:
        part = conv.self_similar_partition(args.v, args.max_depth)
    else:
        part = engine.induced_partition(engine.bit_exchange_protocol(args.max_depth))
    return part.to_json_dict(), None


def _run_verify(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    return conv.run_all_checks(include_oracle=args.all), None


def _run_plot_data(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    csv_text = emit_plot_data(args.which, args.resolution, rho=args.rho, theta=args.theta)
    return {"which": args.which, "rows": csv_text.count("\n") - 1}, csv_text


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


def render(args: argparse.Namespace, fmt: str, results: dict, csv_text: Optional[str]) -> str:
    """Output text of a run; the human format lists the parsed options first."""
    if fmt == "csv":
        return csv_text
    body = json.dumps(results, sort_keys=True, indent=2)
    if fmt == "json":
        return body + "\n"
    lines = [args.subcommand]
    for key, value in sorted(vars(args).items()):
        if key not in _OUTPUT_OPTIONS and value is not None:
            lines.append(f"  in  {key} = {value}")
    lines.extend(f"  out {line}" for line in body.splitlines())
    return "\n".join(lines) + "\n"


_parser: Optional[argparse.ArgumentParser] = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`main` call."""
    global _parser
    if _parser is None:
        _parser = _new_parser()
    return _parser


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcomm",
        description="Interactive-communication cost calculations at desk scale",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        p.add_argument("--json", action="store_true", help="shorthand for --format json")
        p.add_argument("--out", type=str, default=None, help="write output to a file")

    p = sub.add_parser("simulate", help="Monte Carlo protocol statistics")
    p.add_argument("--protocol", choices=("bit-exchange",), default="bit-exchange")
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
    p.add_argument("--protocol", choices=("bit-exchange",), default=None)
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
    p.set_defaults(format="csv")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    fmt = "json" if args.json else args.format
    start = time.perf_counter()
    try:
        if fmt == "csv" and args.subcommand not in _CSV_SUBCOMMANDS:
            raise ValueError(f"csv output is not defined for {args.subcommand!r}")
        results, csv_text = _RUNNERS[args.subcommand](args)
        text = render(args, fmt, results, csv_text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {1e3 * (time.perf_counter() - start):.1f} ms", file=sys.stderr)
    return 1 if args.subcommand == "verify" and not results["pass"] else 0


if __name__ == "__main__":
    sys.exit(main())
