#!/usr/bin/env python3
"""Benchmark of the latcomm command line, one workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload achievability --seed 1 --seconds 25 --trace 0

The run repeats whole rounds of the workload's seeded operations through
``latcomm.cli.main(argv)`` in this process, one after another (a closed
loop with one client), until the operations have taken ``--seconds``.
Every output is checked against an independent computation after its
operation's timer stops.  Fresh interpreter starts, which give
``setup_s``, are spread over the run between operations.

``--trace 0`` reports the end-to-end metrics.  It samples the CPU speed
while each operation runs (``speed.py``) and reports timings at a nominal
speed.  ``--trace 1`` wraps latcomm's public functions in spans and reports
the per-layer metrics instead.  The last line of stdout is the result object;
the same object with the raw latencies goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("achievability", "transcripts", "converse", "lattice")
# Fresh interpreter starts per run, spread over it; setup_s is their median.
SETUP_STARTS = 11
# The self times of a traced operation's spans must add up to its latency
# within this share.
SELF_SUM_TOLERANCE = 0.03
_SINGLE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import latcomm.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, latcomm.cli.__file__)\n"
)


def configure_environment() -> None:
    """One BLAS thread, and latcomm's own worker count left at its default."""
    for var in _SINGLE_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LATCOMM_THREADS", None)


def load_cli(src: Path):
    """Import latcomm.cli from the checkout's sources, never from elsewhere."""
    if not (src / "latcomm" / "cli.py").is_file():
        raise FileNotFoundError(f"no latcomm sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import latcomm.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "latcomm").resolve():
        raise ImportError(f"latcomm.cli was imported from {cli.__file__}, not {src}")
    return cli


class SetupTimer:
    """Fresh interpreters importing latcomm.cli, spread evenly over a run.

    Each start records its wall time and the split between the numpy and
    the latcomm imports.  Spreading the starts over the run lets the run's
    CPU-speed samples, taken over the same stretch of time, scale them.
    """

    def __init__(self, src: Path, starts: int, seconds: float) -> None:
        self.src, self.starts, self.seconds = src, starts, seconds
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.samples: dict[str, list[float]] = {"setup_s": [], "numpy_ms": [], "latcomm_ms": []}

    def start(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE], env=self.env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        self.samples["setup_s"].append(time.perf_counter() - t0)
        numpy_s, latcomm_s, where = proc.stdout.split()
        if Path(where).resolve().parent != (self.src / "latcomm").resolve():
            raise ImportError(f"setup imported latcomm from {where}")
        self.samples["numpy_ms"].append(float(numpy_s) * 1e3)
        self.samples["latcomm_ms"].append(float(latcomm_s) * 1e3)

    def catch_up(self, busy_s: float) -> None:
        """The starts due once the operations have taken ``busy_s`` seconds."""
        while (len(self.samples["setup_s"]) < self.starts
               and busy_s >= len(self.samples["setup_s"]) * self.seconds / self.starts):
            self.start()

    def finish(self) -> None:
        while len(self.samples["setup_s"]) < self.starts:
            self.start()


@dataclass
class RunStats:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    # Latencies at the nominal CPU speed, in untraced runs.
    scaled: list[float] = field(default_factory=list)


def execute(cli, argvs: list[list[str]], tracer=None,
            meter=None) -> tuple[float, list[str], str | None]:
    """Run the command lines back to back; returns elapsed seconds, stdouts, error."""
    outs: list[str] = []
    error = None
    root = tracer.begin_op() if tracer is not None else None
    with meter.sampling() if meter is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            for argv in argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                outs.append(buf.getvalue())
                if code != 0:
                    error = f"exit code {code} from {' '.join(argv)}"
                    break
        except (Exception, SystemExit) as exc:  # the operation failed; the run goes on
            error = f"{type(exc).__name__}: {exc} from {' '.join(argv)}"
        elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(root)
    return elapsed, outs, error


def run(cli, rounds, seconds: float, setup, meter=None, tracer=None) -> RunStats:
    """Whole rounds until the operations have taken ``seconds`` (at least one round).

    ``setup`` makes its fresh starts between operations, outside the timers.
    ``meter``, in untraced runs, samples the CPU speed during and after
    every operation; its own time is taken out of the latency.
    """
    stats = RunStats()
    busy_s = 0.0
    while True:
        for op in next(rounds):
            setup.catch_up(busy_s)
            elapsed, outs, error = execute(cli, op.argvs, tracer, meter)
            if meter is not None:
                elapsed, scaled = meter.settle(elapsed)
                stats.scaled.append(scaled)
            stats.latencies.append(elapsed)
            busy_s += elapsed
            stats.attempted += 1
            if error is None:
                wrong = op.failure(outs)
                if wrong is not None:
                    error = f"wrong output: {wrong}"
                    stats.wrong += 1
            if tracer is not None:
                size = sum(len(o.encode()) for o in outs)
                size += sum(os.path.getsize(p) for p in op.files if os.path.exists(p))
                tracer.count("cli.output_bytes", size)
            for path in op.files:
                if os.path.exists(path):
                    os.remove(path)
            if error is not None:
                stats.failed += 1
                stats.errors.append(error)
        if busy_s >= seconds:
            setup.finish()
            return stats


def end_to_end(stats: RunStats, setup: dict, meter) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; timings are scaled to the nominal CPU speed."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup["setup_s"]) * meter.scale(), "s"),
        "ops_per_s": ((stats.attempted - stats.failed) / sum(stats.scaled), "1/s"),
        "op_p50_ms": (statistics.median(stats.scaled) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def wall_times(stats: RunStats, setup: dict) -> dict[str, float]:
    """The unscaled timings, for the record."""
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "ops_per_s": (stats.attempted - stats.failed) / sum(stats.latencies),
        "op_p50_ms": statistics.median(stats.latencies) * 1e3,
    }


def _layer_unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "bytes" if metric.endswith("_bytes") else "count"


def per_layer(stats: RunStats, setup: dict, tracer) -> dict[str, tuple[float, str]]:
    for i, (attributed, latency) in enumerate(zip(tracer.self_time_sums_ms(), stats.latencies)):
        if abs(attributed - latency * 1e3) > SELF_SUM_TOLERANCE * latency * 1e3:
            raise RuntimeError(
                f"operation {i}: self times add to {attributed:.3f} ms of {latency * 1e3:.3f} ms"
            )
    out = {k: (v, _layer_unit(k)) for k, v in tracer.per_op_metrics().items()}
    out["trace.op_p50_ms"] = (statistics.median(stats.latencies) * 1e3, "ms")
    out["trace.op_mean_ms"] = (statistics.fmean(stats.latencies) * 1e3, "ms")
    out["setup.numpy_import_ms"] = (statistics.median(setup["numpy_ms"]), "ms")
    out["setup.latcomm_import_ms"] = (statistics.median(setup["latcomm_ms"]), "ms")
    return out


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configure_environment()
    try:
        cli = load_cli(SRC)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Imported after configure_environment: numpy reads the thread counts at import.
    import speed
    import tracing
    import workloads

    meter = None if args.trace else speed.Speedometer()
    setup_timer = SetupTimer(SRC, SETUP_STARTS, args.seconds)
    OUT.mkdir(exist_ok=True)
    rounds = workloads.rounds(args.workload, args.seed, str(OUT))
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        stats = run(cli, rounds, args.seconds, setup_timer, meter, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for error in stats.errors[:5]:
        print(f"failed: {error}", file=sys.stderr)
    setup = setup_timer.samples
    wall = wall_times(stats, setup)
    if meter is not None:
        wall["ref_ms"] = meter.mean_ms()
    print("unscaled: " + json.dumps(wall), file=sys.stderr)

    if tracer is not None:
        metrics = per_layer(stats, setup, tracer)
    else:
        metrics = end_to_end(stats, setup, meter)
    result = {
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  latencies_ms=[t * 1e3 for t in stats.latencies], setup=setup, wall=wall,
                  ref_ms=meter.samples_ms if meter is not None else [],
                  machine=machine_facts())
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        import numpy as np

        np.savez_compressed(OUT / f"{stem}.spans.npz", names=tracer.names, **tracer.columns())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
