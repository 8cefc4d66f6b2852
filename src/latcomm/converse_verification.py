"""Lower-bound computations for the ordering and quadrant problems.

Covers the quadrant example's polytope minimum (3/2 bits), the conditional
entropy ratio H([v^2, 2v(1-v), (1-v)^2]) / (2v(1-v)) with its minimum of 3
bits at v = 1/2, the self-similar optimal partition family, and the assembly
of the four-bit total for the ordering problem, cross-checked against the
bit-exchange transcript entropy.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .partition_core import (
    PROB_TOL,
    LabeledPartition,
    Rect,
    TargetFunction,
    entropy_bits,
    is_zero_error,
    maximize_staircase_numeric,
    staircase_max,
    satisfies_staircase_bounds,
)
from .protocol_engine import bit_exchange_protocol, induced_partition, sum_rate

__all__ = [
    "quadrant_feasible",
    "quadrant_min_entropy",
    "quadrant_grid_oracle",
    "entropy_ratio",
    "minimize_entropy_ratio",
    "self_similar_partition",
    "side_conditional_entropy",
    "assemble_four_bits",
    "run_all_checks",
]


def quadrant_feasible(p: Sequence[float], q: Sequence[float]) -> bool:
    """Membership in the quadrant example's constraint polytope, to 1e-12.

    The polytope asks that any m components of p sum to at most 1/4, with
    total 1/4, and that any single q_i be at most 1/2 and any m >= 2
    components of q sum to at most 3/4, with total 3/4.  For nonnegative
    masses every subset sum is at most the total, so the subset bounds
    reduce to the totals except for the single-component q bound.  The
    polytope is therefore exactly: p >= 0 entrywise, sum(p) = 1/4, q >= 0
    entrywise, sum(q) = 3/4 and max(q) <= 1/2.  An empty vector carries no
    mass and is infeasible.
    """
    return (
        all(v >= -PROB_TOL for v in p)
        and abs(math.fsum(p) - 0.25) <= PROB_TOL
        and all(v >= -PROB_TOL for v in q)
        and abs(math.fsum(q) - 0.75) <= PROB_TOL
        and all(v <= 0.5 + PROB_TOL for v in q)
    )


def quadrant_min_entropy() -> tuple[tuple[tuple[float, ...], tuple[float, ...]], float]:
    """Entropy minimum of the quadrant polytope over its vertex family.

    The vertices are coordinate permutations of p* = (1/4, 0, ...) and
    q* = (1/2, 1/4, 0, ...).  Entropy is permutation invariant, so every
    vertex evaluates to 3/2 bits; the canonical (nonincreasing,
    zero-stripped) vertex is returned after a feasibility check.
    """
    vertex_p, vertex_q = (0.25,), (0.5, 0.25)
    if not quadrant_feasible(vertex_p, vertex_q):
        raise RuntimeError("minimizing vertex violates the polytope constraints")
    return (vertex_p, vertex_q), entropy_bits(vertex_p + vertex_q)


_ORACLE_SUPPORT = 4


def _bounded_partitions(total: int, max_parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive integers summing to total."""

    def rec(remaining: int, parts_left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    yield from rec(total, max_parts, max_part)


def quadrant_grid_oracle(grid: int = 60) -> float:
    """Exhaustive grid search for the quadrant problem's entropy minimum.

    Enumerates every feasible (p, q) with at most four support points per
    side and components that are multiples of 1/grid; the minimizing vertex
    needs one point for p and two for q.  Entropy is concave, so its minimum
    over the polytope sits at a vertex; the vertex coordinates (1/4 and 1/2)
    lie on any grid divisible by 4, making the search exhaustive for the
    minimum despite the discretization.
    """
    if grid % 4 != 0 or grid < 8:
        raise ValueError("grid must be a multiple of 4, at least 8")
    p_units = grid // 4
    q_units = 3 * grid // 4
    q_cap = grid // 2
    best = math.inf
    q_entropies = []
    for q_part in _bounded_partitions(q_units, _ORACLE_SUPPORT, q_cap):
        q_entropies.append(entropy_bits([u / grid for u in q_part]))
    for p_part in _bounded_partitions(p_units, _ORACLE_SUPPORT, p_units):
        h_p = entropy_bits([u / grid for u in p_part])
        for h_q in q_entropies:
            if h_p + h_q < best:
                best = h_p + h_q
    return best


def entropy_ratio(v: float) -> float:
    """H([v^2, 2v(1-v), (1-v)^2]) / (2v(1-v)) in bits; symmetric in v <-> 1-v."""
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie strictly inside (0, 1), got {v!r}")
    w = 1.0 - v
    return entropy_bits((v * v, 2.0 * v * w, w * w)) / (2.0 * v * w)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_entropy_ratio(tolerance: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimization of :func:`entropy_ratio` over (0, 1).

    Returns (v*, ratio(v*)) with the bracket narrowed below ``tolerance``.
    Local uniqueness is asserted by requiring the ratio to exceed 3 bits at
    v* +- 10*tolerance.  Tolerances below 1e-8 are rejected: ratio(1/2 + d)
    - 3 is about 4.46 d^2, so within about 1e-8 of 1/2 the ratio is flat in
    double precision.
    """
    if not 1e-8 <= tolerance <= 1e-3:
        raise ValueError("tolerance must lie in [1e-8, 1e-3]")
    a, b = 1e-9, 1.0 - 1e-9
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = entropy_ratio(c), entropy_ratio(d)
    while b - a > tolerance:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = entropy_ratio(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = entropy_ratio(d)
    v_star = 0.5 * (a + b)
    value = entropy_ratio(v_star)
    for probe in (v_star - 10.0 * tolerance, v_star + 10.0 * tolerance):
        if not (0.0 < probe < 1.0) or entropy_ratio(probe) <= 3.0:
            raise RuntimeError(f"ratio not locally minimal around v*={v_star!r}")
    return v_star, value


def self_similar_partition(v: float, depth: int) -> LabeledPartition:
    """Recursive corner-rectangle partition for the ordering function.

    Each diagonal square [lo,hi]^2 receives the p-rectangle with upper-left
    corner on the diagonal at lo + v*(hi-lo) and its mirror image on the q
    side, then recurses into the two remaining diagonal squares.  Squares
    left after ``depth`` levels stay as undecided residual cells, so every
    truncation is a genuine partition of the unit square.  Given the lower
    triangle, the first level splits it into the lower half of [0,v]^2, the
    corner rectangle [v,1] x [0,v] and the lower half of [v,1]^2, with
    conditional masses (v^2, 2v(1-v), (1-v)^2): the distribution behind
    :func:`entropy_ratio`.  At v = 1/2 the cells coincide with the
    bit-exchange protocol's induced partition.
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    if not 1 <= depth <= 30:
        raise ValueError("depth must lie in [1, 30]")
    cells: list[tuple[Rect, str]] = []
    residual: list[Rect] = []

    def build(lo: float, hi: float, level: int) -> None:
        cut = lo + v * (hi - lo)
        cells.append((Rect(cut, hi, lo, cut), "p"))
        cells.append((Rect(lo, cut, cut, hi), "q"))
        if level == depth:
            residual.append(Rect(lo, cut, lo, cut))
            residual.append(Rect(cut, hi, cut, hi))
        else:
            build(lo, cut, level + 1)
            build(cut, hi, level + 1)

    build(0.0, 1.0, 1)
    return LabeledPartition(tuple(cells), tuple(residual))


def side_conditional_entropy(part: LabeledPartition, side: str = "p") -> float:
    """Cell entropy conditioned on one side of the diagonal.

    Labeled cells contribute their area over 1/2; each residual diagonal
    square contributes the triangular half that lies on the requested side.
    Residual cells must be diagonal squares for the split to be exact.
    """
    if side not in ("p", "q"):
        raise ValueError("side must be 'p' or 'q'")
    probs = [r.area * 2.0 for r, lbl in part.cells if lbl == side]
    for r in part.residual:
        if abs(r.x_lo - r.y_lo) > 1e-9 or abs(r.width - r.height) > 1e-9:
            raise ValueError(f"residual cell {r.as_list()} is not a diagonal square")
        probs.append(r.area)
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"conditional masses sum to {total!r}, not 1")
    return entropy_bits(probs)


def assemble_four_bits() -> float:
    """Total cost: 1 bit for the side indicator plus 3 conditional bits per side.

    Returns exactly 4.0; :func:`run_all_checks` compares it with the
    bit-exchange transcript entropy at depth 30.
    """
    conditional = entropy_ratio(0.5)
    return 1.0 + 0.5 * conditional + 0.5 * conditional


def run_all_checks(include_oracle: bool = True) -> dict:
    """Full verification report used by the command-line ``verify`` command."""
    (vertex_p, vertex_q), quadrant_value = quadrant_min_entropy()
    quadrant_ok = abs(quadrant_value - 1.5) <= 1e-12
    oracle_min = None
    if include_oracle:
        oracle_min = quadrant_grid_oracle()
        quadrant_ok = quadrant_ok and oracle_min >= 1.5 - 1e-9
    quadrant_report = {
        "vertex_p": list(vertex_p),
        "vertex_q": list(vertex_q),
        "min_entropy_bits": quadrant_value,
        "pass": quadrant_ok,
    }
    if oracle_min is not None:
        quadrant_report["oracle_min_bits"] = oracle_min

    partitions = [
        induced_partition(bit_exchange_protocol(d)) for d in range(1, 11)
    ] + [self_similar_partition(v, 8) for v in (0.3, 0.5, 0.7)]
    bounds_ok = all(
        satisfies_staircase_bounds(part) and is_zero_error(part, TargetFunction.MIN_INDICATOR)
        for part in partitions
    )
    staircase_ok = True
    for m in range(1, 11):
        profile, closed = staircase_max(m)
        numeric_profile, numeric = maximize_staircase_numeric(m)
        staircase_ok = staircase_ok and abs(closed - numeric) <= 1e-9
        staircase_ok = staircase_ok and all(
            abs(a - b) <= 1e-6 for a, b in zip(profile.corners, numeric_profile.corners)
        )
    bounds_report = {
        "partitions_checked": len(partitions),
        "staircase_orders_checked": 10,
        "pass": bool(bounds_ok and staircase_ok),
    }

    v_star, ratio_min = minimize_entropy_ratio(1e-6)
    total_bits = assemble_four_bits()
    deep_rate = sum_rate(bit_exchange_protocol(30))
    ratio_ok = (
        abs(v_star - 0.5) <= 1e-6
        and abs(ratio_min - 3.0) <= 1e-9
        and total_bits == 4.0
        and abs(deep_rate - 4.0) < 1e-7
    )
    ratio_report = {
        "v_star": v_star,
        "ratio_min": ratio_min,
        "total_bits": total_bits,
        "sum_rate_depth30": deep_rate,
        "pass": ratio_ok,
    }

    report = {
        "example1": quadrant_report,
        "thm3": bounds_report,
        "thm5": ratio_report,
    }
    report["pass"] = bool(quadrant_ok and bounds_report["pass"] and ratio_ok)
    return report
