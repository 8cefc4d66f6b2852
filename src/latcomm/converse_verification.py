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
    TargetFunction,
    check_partition_depth,
    entropy_bits,
    is_zero_error,
    maximize_staircase_numeric,
    staircase_max,
    satisfies_staircase_bounds,
)
from .protocol_engine import bit_exchange_protocol, check_max_depth, sum_rate

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
    """H([v^2, 2v(1-v), (1-v)^2]) / (2v(1-v)) in bits; symmetric in v <-> 1-v.

    With a = min(v, 1 - v) the ratio is h(a) / (a(1-a)) - 1 (see
    :func:`minimize_entropy_ratio`), that is -1 - log2(a)/(1-a) - log2(1-a)/a.
    Unlike the three masses, this form keeps every digit of a small a.  The
    tests hold it to 4 ulp of the exact ratio, from the smallest subnormal v
    up to 1/2 and at 1 - v.
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie strictly inside (0, 1), got {v!r}")
    a = min(v, 1.0 - v)
    # log1p(-a)/a comes before the division by ln 2, whose product with a
    # tiny a would be subnormal.
    return -1.0 - math.log2(a) / (1.0 - a) - (math.log1p(-a) / a) / math.log(2.0)


def minimize_entropy_ratio() -> tuple[float, float]:
    """The minimum of :func:`entropy_ratio` over (0, 1): (1/2, 3.0), exactly.

    The ratio exceeds 3 bits at every v other than 1/2.  Let B1 and B2 be
    independent Bernoulli(v) bits.  H(B1, B2) = 2h(v), with h the binary
    entropy, is H(B1 + B2) plus 1 bit on the event B1 != B2 of mass
    2v(1-v); so the ratio H(B1 + B2) / (2v(1-v)) is h(v) / (v(1-v)) - 1,
    and it exceeds 3 exactly where h(v) > 4v(1-v).

    Let f = h - 4v(1-v), so f(0) = f(1/2) = f'(1/2) = 0.  Its second
    derivative f'' = 8 - 1/(ln 2 * v(1-v)) changes sign once on (0, 1/2),
    at the p0 with p0(1-p0) = 1/(8 ln 2) < 1/4: f is concave on (0, p0) and
    convex on (p0, 1/2).  On the convex part f' rises to f'(1/2) = 0, so f
    falls to 0 at 1/2 and is positive before it.  On the concave part f
    lies above its chord from f(0) = 0 to f(p0) > 0.  Hence f > 0 on
    (0, 1/2), and by the symmetry v <-> 1-v the ratio exceeds 3 everywhere
    but at v = 1/2, where it is h(1/2) / (1/4) - 1 = 3.
    """
    return 0.5, entropy_ratio(0.5)


def self_similar_partition(v: float, depth: int) -> LabeledPartition:
    """Recursive corner-rectangle partition for the ordering function.

    Each diagonal square [lo,hi]^2 is cut at lo + v*(hi-lo) on both axes
    into a q-rectangle above the diagonal, its mirror p-rectangle below it,
    and two diagonal squares that recurse.  Squares left after ``depth``
    levels stay as undecided residual cells, so every truncation is a
    genuine partition of the unit square.  Given the lower triangle, the
    first level splits it into the lower half of [0,v]^2, the corner
    rectangle [v,1] x [0,v] and the lower half of [v,1]^2, with conditional
    masses (v^2, 2v(1-v), (1-v)^2): the distribution behind
    :func:`entropy_ratio`.  Cells come in transcript order, the leaf order
    of the protocol in which each party names its side of the cut until the
    two sides differ: low sub-square, q-cell, p-cell, high sub-square.  At
    v = 1/2 that protocol is bit exchange, and this is its induced partition.
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    check_max_depth(depth)
    check_partition_depth(depth)
    cells, residual = [], []

    def build(lo: float, hi: float, level: int) -> None:
        if level > depth:
            residual.append((lo, hi, lo, hi))
            return
        cut = lo + v * (hi - lo)
        if not lo < cut < hi:
            raise ValueError(
                f"v = {v!r} at depth {depth} is too fine for double precision: "
                f"the level-{level} cut of the square [{lo!r}, {hi!r}]^2 rounds onto its edge"
            )
        build(lo, cut, level + 1)
        cells.extend(((lo, cut, cut, hi), (cut, hi, lo, cut)))
        build(cut, hi, level + 1)

    build(0.0, 1.0, 1)
    return LabeledPartition(cells, ["q", "p"] * (len(cells) // 2), residual)


def side_conditional_entropy(part: LabeledPartition, side: str = "p") -> float:
    """Cell entropy conditioned on one side of the diagonal.

    Labeled cells contribute their area over 1/2; each residual diagonal
    square contributes the triangular half that lies on the requested side.
    Residual cells must be diagonal squares for the split to be exact.
    """
    if side not in ("p", "q"):
        raise ValueError("side must be 'p' or 'q'")
    x_lo, x_hi, y_lo, y_hi = part.residual.T
    off = part.residual[(abs(x_lo - y_lo) > 1e-9) | (abs((x_hi - x_lo) - (y_hi - y_lo)) > 1e-9)]
    if len(off):
        raise ValueError(f"residual cell {off[0].tolist()} is not a diagonal square")
    side_probs = part.p_probs() if side == "p" else part.q_probs()
    probs = (side_probs * 2.0).tolist() + part.all_probs()[len(part.cells):].tolist()
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"conditional masses sum to {total!r}, not 1")
    return entropy_bits(probs)


def assemble_four_bits() -> float:
    """Total cost: 1 bit for the side indicator plus 3 conditional bits per side.

    Returns exactly 4.0; :func:`run_all_checks` compares it with the
    bit-exchange transcript entropy at depth 30.
    """
    conditional = minimize_entropy_ratio()[1]
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

    partitions = [self_similar_partition(0.5, d) for d in range(1, 11)]
    partitions += [self_similar_partition(v, 8) for v in (0.3, 0.5, 0.7)]
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
            abs(a - b) <= 1e-6 for a, b in zip(profile, numeric_profile)
        )
    bounds_report = {
        "partitions_checked": len(partitions),
        "staircase_orders_checked": 10,
        "pass": bool(bounds_ok and staircase_ok),
    }

    # An independent route to entropy_ratio: the three-mass definition.
    masses_ok = True
    for k in range(1, 16):
        v, w = k / 16, 1.0 - k / 16
        by_masses = entropy_bits((v * v, 2.0 * v * w, w * w)) / (2.0 * v * w)
        masses_ok = masses_ok and abs(entropy_ratio(v) - by_masses) <= 1e-12 * by_masses
    v_star, ratio_min = minimize_entropy_ratio()
    total_bits = assemble_four_bits()
    deep_rate = sum_rate(bit_exchange_protocol(30))
    ratio_ok = (
        masses_ok
        and ratio_min == 3.0
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
