"""Independent computations that latcomm's outputs are checked against.

Nothing here imports latcomm.  Each expected value is recomputed from its
definition by another route: the documented Monte Carlo input stream with
exact integer bit arithmetic, the paper's closed forms, exhaustive lattice
scans and an exact sweep over rectangle edges.  Every check raises
:class:`CheckFailed` with a reason; returning means the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

CHUNK = 1 << 16
MANTISSA_BITS = 53
# Rows of a chunk expanded to bit matrices at once; keeps the checker's
# memory small next to the program's, so peak RSS reflects the program.
_ROW_BLOCK = 4096
# Standard errors allowed between a Monte Carlo mean and its expectation.
_MC_SIGMAS = 6.0


class CheckFailed(Exception):
    """An output differs from its independent recomputation."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def entropy(probs: Sequence[float]) -> float:
    return math.fsum(-p * math.log2(p) for p in probs if p > 0.0)


# --- Achievability: bit exchange over the documented input stream ----------


def input_chunks(seed: int, samples: int) -> Iterator[np.ndarray]:
    """The documented stream: chunks of 2^16 pairs, one spawned child seed each."""
    n_chunks = -(-samples // CHUNK)
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        n = min(CHUNK, samples - j * CHUNK)
        yield np.random.default_rng(child).random((n, 2))


def stopping_rounds(pairs: np.ndarray, max_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Round at which bit exchange stops on each pair, and the integer mantissas.

    Every draw is a multiple of 2^-53, so bit k of x is bit 53-k of
    floor(x * 2^53) and the first differing bit is the leading set bit of the
    XOR of the two mantissas.  Equal inputs, and pairs agreeing past
    ``max_depth``, stop at the cap.
    """
    mant = (pairs * float(1 << MANTISSA_BITS)).astype(np.uint64)
    diff = mant[:, 0] ^ mant[:, 1]
    # diff < 2^53 converts to float exactly; frexp's exponent is its bit length.
    _, bit_length = np.frexp(diff.astype(np.float64))
    rounds = np.minimum(MANTISSA_BITS + 1 - bit_length, max_depth).astype(np.int64)
    return rounds, mant


def closed_form_mean_bits(depth: int) -> float:
    """Expected bit-exchange messages at depth d: sum_{k<=d} 2^-k 2k + 2^-d 2d."""
    return math.fsum(2.0**-k * 2 * k for k in range(1, depth + 1)) + 2.0**-depth * 2 * depth


def bit_exchange_totals(seed: int, samples: int, max_depth: int) -> tuple[int, int, int]:
    """Total messages, total rounds and the sum of squared message counts."""
    messages = rounds_total = squares = 0
    for pairs in input_chunks(seed, samples):
        rounds, _ = stopping_rounds(pairs, max_depth)
        messages += 2 * int(rounds.sum())
        rounds_total += int(rounds.sum())
        squares += 4 * int((rounds * rounds).sum())
    return messages, rounds_total, squares


def check_simulate(result: dict, seed: int, samples: int, max_depth: int) -> None:
    """Exact means from the recomputed stream, and the closed-form mean within 6 SE."""
    if result.get("samples") != samples or result.get("seed") != seed:
        _fail(f"simulate echoed samples/seed {result.get('samples')}/{result.get('seed')}")
    messages, rounds, squares = bit_exchange_totals(seed, samples, max_depth)
    if result.get("mean_bits") != messages / samples:
        _fail(f"mean_bits {result.get('mean_bits')!r} != {messages}/{samples}")
    if result.get("mean_rounds") != rounds / samples:
        _fail(f"mean_rounds {result.get('mean_rounds')!r} != {rounds}/{samples}")
    mean = messages / samples
    variance = max(squares / samples - mean * mean, 0.0)
    expected = closed_form_mean_bits(max_depth)
    if abs(mean - expected) > _MC_SIGMAS * math.sqrt(variance / samples) + 1e-12:
        _fail(f"mean_bits {mean!r} is far from the closed form {expected!r}")


def expected_transcripts(seed: int, samples: int, max_depth: int) -> bytes:
    """The transcript file bit exchange must write: one line per input pair.

    A line is the interleaved bit prefix x1_1, x2_1, x1_2, x2_2, ... up to the
    first differing pair (or the depth cap), comma separated.
    """
    width = 4 * max_depth
    shifts = (MANTISSA_BITS - np.arange(1, max_depth + 1)).astype(np.uint64)
    positions = np.arange(width)
    parts = []
    for pairs in input_chunks(seed, samples):
        for lo in range(0, len(pairs), _ROW_BLOCK):
            rounds, mant = stopping_rounds(pairs[lo : lo + _ROW_BLOCK], max_depth)
            n = len(rounds)
            chars = np.full((n, width), ord(","), dtype=np.uint8)
            chars[:, 0::4] = ((mant[:, 0:1] >> shifts) & 1) + ord("0")
            chars[:, 2::4] = ((mant[:, 1:2] >> shifts) & 1) + ord("0")
            chars[np.arange(n), 4 * rounds - 1] = ord("\n")
            parts.append(chars[positions < 4 * rounds[:, None]].tobytes())
    return b"".join(parts)


def check_transcripts(text: bytes, result: dict, seed: int, samples: int, max_depth: int) -> None:
    """Every line equals its pair's bit prefix; their symbols total mean_bits * samples."""
    expected = expected_transcripts(seed, samples, max_depth)
    if text != expected:
        got_lines = text.split(b"\n")
        want_lines = expected.split(b"\n")
        for i, (got, want) in enumerate(zip(got_lines, want_lines)):
            if got != want:
                _fail(f"transcript line {i + 1} is {got[:80]!r}, expected {want[:80]!r}")
        _fail(f"transcript file has {len(got_lines) - 1} lines, expected {samples}")
    symbols = len(text) - text.count(b",") - text.count(b"\n")
    if symbols / samples != result.get("mean_bits"):
        _fail(f"{symbols} transcript symbols over {samples} samples != mean_bits")


# --- Converse: the verify report and induced partitions ---------------------


def check_verify(report: dict) -> None:
    if report.get("pass") is not True:
        _fail("verify did not report pass")
    sections = ("example1", "thm3", "thm5")
    if any(report.get(s, {}).get("pass") is not True for s in sections):
        _fail("a verify section did not pass")
    thm5 = report["thm5"]
    if thm5.get("total_bits") != 4.0:
        _fail(f"total_bits {thm5.get('total_bits')!r} != 4.0")
    if abs(thm5["sum_rate_depth30"] - closed_form_mean_bits(30)) > 1e-12:
        _fail(f"sum_rate_depth30 {thm5['sum_rate_depth30']!r} != closed form")
    if abs(thm5["ratio_min"] - 3.0) > 1e-9 or abs(thm5["v_star"] - 0.5) > 1e-6:
        _fail(f"ratio minimum {thm5['ratio_min']!r} at {thm5['v_star']!r}, expected 3 at 1/2")
    ex1 = report["example1"]
    if abs(ex1["min_entropy_bits"] - 1.5) > 1e-12 or abs(ex1["oracle_min_bits"] - 1.5) > 1e-9:
        _fail("quadrant minimum is not 3/2 bits")
    if ex1["vertex_p"] != [0.25] or ex1["vertex_q"] != [0.5, 0.25]:
        _fail(f"quadrant vertex {ex1['vertex_p']}, {ex1['vertex_q']}")
    if report["thm3"].get("partitions_checked") != 13:
        _fail("verify checked another number of partitions than 13")


def tiles_exactly(rects: Sequence[Sequence[float]], box: Sequence[float]) -> None:
    """Check that rectangles tile ``box`` with no gap and no overlap, exactly.

    Sweeps the distinct x coordinates; within each slab the y-intervals of
    the rectangles spanning it must chain from the bottom edge to the top
    edge, each starting exactly where the previous one ends.
    """
    x_lo, x_hi, y_lo, y_hi = box
    starts: dict[float, list[int]] = {}
    ends: dict[float, list[int]] = {}
    for i, (a, b, c, d) in enumerate(rects):
        if not (a < b and c < d):
            _fail(f"degenerate rectangle {[a, b, c, d]}")
        starts.setdefault(a, []).append(i)
        ends.setdefault(b, []).append(i)
    xs = sorted(set(starts) | set(ends))
    if xs[0] != x_lo or xs[-1] != x_hi:
        _fail(f"rectangles span x in [{xs[0]!r}, {xs[-1]!r}], not [{x_lo!r}, {x_hi!r}]")
    active: dict[int, tuple[float, float]] = {}
    for x in xs[:-1]:
        for i in ends.get(x, ()):
            del active[i]
        for i in starts.get(x, ()):
            active[i] = (rects[i][2], rects[i][3])
        top = y_lo
        for lo, hi in sorted(active.values()):
            if lo != top:
                kind = "overlap" if lo < top else "gap"
                _fail(f"{kind} at x={x!r}, y={min(lo, top)!r}")
            top = hi
        if top != y_hi:
            _fail(f"column at x={x!r} ends at y={top!r}, not {y_hi!r}")


def exact_area(rects: Sequence[Sequence[float]]) -> Fraction:
    """Total area in exact rational arithmetic.

    Every float is a dyadic rational, so scaling all coordinates to their
    largest power-of-two denominator makes each area an integer product.
    """
    ratios = [[float(v).as_integer_ratio() for v in r] for r in rects]
    scale = max(den for r in ratios for _, den in r)
    total = 0
    for (a, da), (b, db), (c, dc), (d, dd) in ratios:
        width = b * (scale // db) - a * (scale // da)
        height = d * (scale // dd) - c * (scale // dc)
        total += width * height
    return Fraction(total, scale * scale)


def check_partition(doc: dict, depth: int, v: float) -> None:
    """Self-similar corner-rectangle partition of the unit square at split ratio v.

    Bit exchange is the case v = 1/2.  Checks the cell counts, the recorded
    probabilities, zero error by label, the split ratio of every labelled
    cell within its diagonal square, exact tiling, and the exact total area.
    """
    cells = doc.get("cells")
    if not isinstance(cells, list):
        _fail("partition has no cell list")
    labelled = [c for c in cells if c.get("label") in ("p", "q")]
    residual = [c for c in cells if c.get("label") == "u"]
    if len(labelled) + len(residual) != len(cells):
        _fail("unknown cell label")
    if len(labelled) != 2 * (2**depth - 1) or len(residual) != 2**depth:
        _fail(f"{len(labelled)} labelled + {len(residual)} residual cells at depth {depth}")
    rects = []
    for cell in cells:
        a, b, c, d = cell["rect"]
        if not math.isclose(cell["prob"], (b - a) * (d - c), rel_tol=1e-12, abs_tol=0.0):
            _fail(f"cell {cell['rect']} records prob {cell['prob']!r}")
        label = cell["label"]
        if label == "p":  # below the diagonal: [cut, hi] x [lo, cut]
            if d > a:
                _fail(f"p-cell {cell['rect']} crosses the diagonal")
            lo, cut, hi = c, a, b
        elif label == "q":  # above the diagonal: [lo, cut] x [cut, hi]
            if b > c:
                _fail(f"q-cell {cell['rect']} crosses the diagonal")
            lo, cut, hi = a, b, d
        else:
            if a != c or b != d:
                _fail(f"residual cell {cell['rect']} is not a diagonal square")
            rects.append((a, b, c, d))
            continue
        # The program rounds lo + v*(hi - lo) once; coordinates are at most 1.
        if abs((cut - lo) - v * (hi - lo)) > 1e-15:
            _fail(f"{label}-cell {cell['rect']} does not split its square at v={v!r}")
        rects.append((a, b, c, d))
    tiles_exactly(rects, (0.0, 1.0, 0.0, 1.0))
    area = exact_area(rects)
    if area != 1:
        _fail(f"cell areas sum to {float(area)!r} in exact arithmetic")
    if v == 0.5:
        h = entropy([(b - a) * (d - c) for a, b, c, d in rects])
        if abs(h - closed_form_mean_bits(depth)) > 1e-12:
            _fail(f"bit-exchange partition entropy {h!r} != closed form")


# --- Lattice: rates, refinement, round counts and nearest points ------------


def lattice_formulas(rho: float, theta: float) -> dict:
    """The refinement's statistics from (rho, theta) by the paper's formulas."""
    c, h = rho * math.cos(theta), rho * math.sin(theta)
    q_mid = min(c, 1.0 - c)
    y_c = (rho * rho - c) / (2.0 * h)
    p_mid = 2.0 * y_c / h
    Q = ((1.0 - q_mid) / 2.0, q_mid, (1.0 - q_mid) / 2.0)
    P = ((1.0 - p_mid) / 2.0, p_mid, (1.0 - p_mid) / 2.0)
    crossed = (1.0 - q_mid) * (1.0 - p_mid)
    return {
        "h": h,
        "Q": Q,
        "P": P,
        "crossed_mass": crossed,
        "R_bar": entropy(Q) + (1.0 - q_mid) * entropy(P) + 4.0 * crossed,
        "N_bar": 1.0 + 2.0 * crossed,
    }


def nearest_by_scan(rho: float, theta: float, x: float, y: float, radius: int = 3) -> tuple[float, float]:
    """Closest lattice point over a coefficient window around the rounded point."""
    c, h = rho * math.cos(theta), rho * math.sin(theta)
    n2c = round(y / h)
    n1c = round(x - n2c * c)
    best = None
    for n2 in range(n2c - radius, n2c + radius + 1):
        for n1 in range(n1c - radius, n1c + radius + 1):
            px, py = n1 + n2 * c, n2 * h
            key = ((x - px) ** 2 + (y - py) ** 2, n1, n2)
            if best is None or key < best:
                best = key
    _, n1, n2 = best
    return n1 + n2 * c, n2 * h


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def check_lattice_rates(result: dict, rho: float, theta: float, samples: int) -> None:
    """Rates against the formulas, a tiling of the Babai cell, and the round-count mean."""
    want = lattice_formulas(rho, theta)
    h = want["h"]
    for key in ("R_bar", "N_bar", "crossed_mass"):
        if not _close(result[key], want[key]):
            _fail(f"{key} {result[key]!r} != {want[key]!r}")
    for key in ("Q", "P"):
        if len(result[key]) != 3 or not all(map(_close, result[key], want[key])):
            _fail(f"{key} {result[key]} != {list(want[key])}")
    if not (_close(result["Q0"], want["Q"][1]) and _close(result["P0"], want["P"][1])):
        _fail("Q0/P0 differ from the middle column/row masses")
    sub = result["subdivision"]
    box = sub["babai_cell"]
    if not all(map(_close, box, (-0.5, 0.5, -h / 2.0, h / 2.0))):
        _fail(f"Babai cell {box} != [-1/2, 1/2] x [-h/2, h/2]")
    cells = sub["cells"]
    if len(cells) != 7:
        _fail(f"refinement has {len(cells)} cells, not 7")
    tiles_exactly([cell["rect"] for cell in cells], box)
    for cell in cells:
        a, b, c, d = cell["rect"]
        if not _close(cell["prob"], (b - a) * (d - c) / h):
            _fail(f"cell {cell['rect']} records prob {cell['prob']!r}")
        inside = []
        for x, y in ((a, c), (a, d), (b, c), (b, d)):
            px, py = nearest_by_scan(rho, theta, x, y)
            inside.append(x * x + y * y <= (x - px) ** 2 + (y - py) ** 2 + 1e-9)
        if cell["error_free"] and not all(inside):
            _fail(f"error-free cell {cell['rect']} leaves the Voronoi cell")
        if not cell["error_free"] and all(inside):
            _fail(f"crossed cell {cell['rect']} lies inside the Voronoi cell")
    q = want["crossed_mass"]
    sigma = math.sqrt((6.0 * q - 4.0 * q * q) / samples)
    if abs(result["mc_mean_rounds"] - (1.0 + 2.0 * q)) > _MC_SIGMAS * sigma:
        _fail(f"mc_mean_rounds {result['mc_mean_rounds']!r} far from {1.0 + 2.0 * q!r}")


def check_nearest(result: dict, rho: float, theta: float, x: float, y: float) -> None:
    if result.get("input") != [x, y]:
        _fail(f"lattice-nearest echoed input {result.get('input')}")
    want = nearest_by_scan(rho, theta, x, y)
    got = result["nearest_point"]
    if not (_close(got[0], want[0], 1e-9) and _close(got[1], want[1], 1e-9)):
        _fail(f"nearest point to ({x!r}, {y!r}) is {want}, program gave {got}")


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
