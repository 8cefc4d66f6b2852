"""The benchmark's workloads: seeded rounds of latcomm CLI operations.

An operation is one or more ``latcomm`` command lines timed together, plus
the check its outputs must pass.  A workload is an endless stream of rounds
drawn from the benchmark seed; a round is a fixed list of operations, so
every run attempts whole rounds of the same kinds of operation.  The
program sees only the generated command lines.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import checks


@dataclass
class Op:
    """Command lines run back to back, and the check over their stdout texts."""

    argvs: list[list[str]]
    check: Callable[[list[str]], None]
    files: list[str] = field(default_factory=list)

    def failure(self, outs: list[str]) -> str | None:
        """Why the outputs are wrong, or None when they pass the check."""
        try:
            self.check(outs)
        except checks.CheckFailed as exc:
            return str(exc)
        return None


Rounds = Iterator[list[Op]]

# Sizes of the full benchmark; the tests pass smaller ones.
SIZES = {
    "achievability": {"samples": 1_000_000},
    "transcripts": {"samples": 65_536},
    "converse": {"depth": 11},
    "lattice": {"samples": 200_000, "queries": 24},
}


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 31)


def _check_simulate(outs: list[str], seed: int, samples: int, max_depth: int) -> None:
    checks.check_simulate(checks.parse_json(outs[0]), seed, samples, max_depth)


def achievability(seed: int, work_dir: str, samples: int) -> Rounds:
    """README's headline `simulate`: three depth-30 runs and one shallow run per round.

    The shallow depth (4 to 8) leaves 0.4-6% of pairs undecided, which
    exercises the depth cap at nearly the same cost per sample.
    """
    rng = random.Random(seed)
    while True:
        ops = []
        for depth in (30, 30, 30, rng.randint(4, 8)):
            s = _program_seed(rng)
            argv = ["simulate", "--protocol", "bit-exchange", "--samples", str(samples),
                    "--seed", str(s), "--max-depth", str(depth), "--json"]
            ops.append(Op([argv], partial(_check_simulate, seed=s, samples=samples, max_depth=depth)))
        yield ops


def _check_transcripts(outs: list[str], path: str, seed: int, samples: int) -> None:
    result = checks.parse_json(outs[0])
    checks.check_simulate(result, seed, samples, 30)
    with open(path, "rb") as fh:
        checks.check_transcripts(fh.read(), result, seed, samples, 30)


def transcripts(seed: int, work_dir: str, samples: int) -> Rounds:
    """`simulate --transcripts`: one transcript line per sample, then the Monte Carlo."""
    rng = random.Random(seed)
    path = os.path.join(work_dir, "transcripts.txt")
    while True:
        s = _program_seed(rng)
        argv = ["simulate", "--samples", str(samples), "--seed", str(s),
                "--transcripts", path, "--json"]
        yield [Op([argv], partial(_check_transcripts, path=path, seed=s, samples=samples), [path])]


def _check_verify(outs: list[str]) -> None:
    checks.check_verify(checks.parse_json(outs[0]))


def _check_partition(outs: list[str], depth: int, v: float) -> None:
    checks.check_partition(checks.parse_json(outs[0]), depth, v)


def converse(seed: int, work_dir: str, depth: int) -> Rounds:
    """`verify converse --all`, then bit-exchange and self-similar `partition-show`.

    At depth 11 each partition costs about as much as `verify`.  The seed
    draws the split ratio v of the self-similar partition.
    """
    rng = random.Random(seed)
    verify = Op([["verify", "converse", "--all", "--json"]], _check_verify)
    bit_exchange = Op(
        [["partition-show", "--protocol", "bit-exchange", "--max-depth", str(depth), "--json"]],
        partial(_check_partition, depth=depth, v=0.5),
    )
    while True:
        v = rng.uniform(0.25, 0.75)
        self_similar = Op(
            [["partition-show", "--v", repr(v), "--max-depth", str(depth), "--json"]],
            partial(_check_partition, depth=depth, v=v),
        )
        yield [verify, bit_exchange, self_similar]


def _check_lattice_case(outs: list[str], rho: float, theta: float, samples: int,
                        queries: list[tuple[float, float]]) -> None:
    checks.check_lattice_rates(checks.parse_json(outs[0]), rho, theta, samples)
    for out, (x, y) in zip(outs[1:], queries):
        checks.check_nearest(checks.parse_json(out), rho, theta, x, y)


# A negative number argparse does not recognise as one (exponent notation).
_OPTION_LIKE = re.compile(r"-(?!\d+$|\d*\.\d+$).*")


def draw_lattice(rng: random.Random) -> tuple[float, float]:
    """A lattice inside the corner-cut domain cos(theta) < rho, rho cos(theta) < 1."""
    while True:
        theta = rng.uniform(0.3, math.pi / 2 - 0.05)
        rho = rng.uniform(math.cos(theta) + 0.05, 2.5)
        if 0.02 < rho * math.cos(theta) < 0.95:
            return rho, theta


def lattice(seed: int, work_dir: str, samples: int, queries: int) -> Rounds:
    """One lattice case: `lattice-rates --samples`, then nearest-point queries in its Babai cell."""
    rng = random.Random(seed)
    while True:
        rho, theta = draw_lattice(rng)
        h = rho * math.sin(theta)
        shape = ["--rho", repr(rho), "--theta", repr(theta)]
        argvs = [["lattice-rates", *shape, "--samples", str(samples),
                  "--seed", str(_program_seed(rng)), "--json"]]
        points = []
        while len(points) < queries:
            x, y = rng.uniform(-0.5, 0.5), rng.uniform(-h / 2.0, h / 2.0)
            # The CLI's argparse reads a value such as "-4e-05" as an option and
            # exits 2; such queries are left out (a known fault of the parser).
            if not any(_OPTION_LIKE.fullmatch(repr(v)) for v in (x, y)):
                points.append((x, y))
        for x, y in points:
            argvs.append(["lattice-nearest", *shape, "--x", repr(x), "--y", repr(y), "--json"])
        yield [Op(argvs, partial(_check_lattice_case, rho=rho, theta=theta,
                                 samples=samples, queries=points))]


WORKLOADS = {
    "achievability": achievability,
    "transcripts": transcripts,
    "converse": converse,
    "lattice": lattice,
}


def rounds(name: str, seed: int, work_dir: str, sizes: dict | None = None) -> Rounds:
    return WORKLOADS[name](seed, work_dir, **(sizes or SIZES[name]))
