"""Rectangular partitions of the unit square under the uniform measure.

A partition is a finite collection of axis-aligned cells with pairwise
disjoint interiors whose closures cover ``[0,1]^2``, held as arrays of rows
``(x_lo, x_hi, y_lo, y_hi)``.  Decided cells carry label ``"p"`` (target
function equals 1) or ``"q"`` (equals 0); finite-depth constructions keep
their undecided leftovers as *residual* rows.  Cell probability is plain
area, and each per-cell quantity is one array expression over the rows.

Every partition is validated when it is built.  A mask asks that
``0 <= lo < hi <= 1`` on both axes of every row, and NaN fails it; a
reversed cell must fail here, since its corner weights would cancel those
of its mirror copy in the exact test that follows.  A half-open cell
[a, b) x [c, d) is the signed sum of the quadrant indicators at its corners,
+1 at (a, c) and (b, d) and -1 at (b, c) and (a, d).  The indicators of
distinct points are linearly independent, so the cells tile [0, 1)^2 if and
only if all their corner weights, minus the unit square's, cancel at every
point: no two interiors meet and the areas sum to 1, with no tolerance.

Besides the partition type, this module provides zero-error validation
against the two supported target functions, majorization of probability
vectors, the grow-the-largest-rectangle readjustment move, and the staircase
area machinery that bounds sums of cell probabilities in any zero-error
partition of the below-diagonal triangle.  A staircase profile is a plain
tuple of corner abscissae, validated by :func:`staircase_area`; its maximum
comes both in closed form (:func:`staircase_max`) and from a linear solve of
the first-order condition (:func:`maximize_staircase_numeric`).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PROB_TOL",
    "MAX_PARTITION_DEPTH",
    "TargetFunction",
    "LabeledPartition",
    "entropy_bits",
    "partition_entropy",
    "is_zero_error",
    "majorizes",
    "readjust_max_rectangle",
    "staircase_area",
    "staircase_max",
    "maximize_staircase_numeric",
    "satisfies_staircase_bounds",
    "check_partition_depth",
]

PROB_TOL = 1e-12

# Deepest partition built cell by cell.  The self-similar and the bit-exchange
# partitions of depth d have 3*2^d - 2 cells: 196,606 at depth 16.
MAX_PARTITION_DEPTH = 16


def check_partition_depth(depth: int) -> None:
    """Reject a partition too deep to enumerate, stating its cell count."""
    if depth > MAX_PARTITION_DEPTH:
        raise ValueError(
            f"a depth-{depth} partition has {3 * 2**depth - 2} cells; "
            f"the limit is depth {MAX_PARTITION_DEPTH}"
        )


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention.

    A negative (below -PROB_TOL), NaN or infinite entry raises ValueError.
    A positive entry costs one comparison, and an infinite one makes the
    total -inf.
    """
    terms = []
    for p in probs:
        if p > 0.0:
            terms.append(-p * math.log2(p))
        elif p < -PROB_TOL:
            raise ValueError(f"negative probability {p!r}")
        elif p != p:  # NaN
            raise ValueError(f"probability {p!r} is not finite")
    total = math.fsum(terms)
    if total == -math.inf:
        raise ValueError("a probability is infinite or too large for a finite entropy")
    return total


def _is_number(v: object) -> bool:
    """True for a finite int or float (JSON booleans excluded)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class TargetFunction(Enum):
    """Binary functions of (x1, x2) the partitions are checked against."""

    #: f = 1 iff x1 >= x2 (ordering of the two coordinates).
    MIN_INDICATOR = "min_indicator"
    #: f = 1 iff x1 > 1/2 and x2 > 1/2 (upper-right quadrant).
    QUADRANT = "quadrant"


# Corner weights of a half-open cell [a, b) x [c, d), in the column order of
# the coordinate array (x_lo, x_hi, y_lo, y_hi): the cell's indicator is
# H(a, c) - H(b, c) - H(a, d) + H(b, d), where H(u, v) is the indicator of the
# quadrant [u, inf) x [v, inf).
_CORNER_X = (0, 1, 1, 0)
_CORNER_Y = (2, 3, 2, 3)
_CORNER_W = (1, 1, -1, -1)
_UNIT_SQUARE = np.array([[0.0, 1.0, 0.0, 1.0]])


def _exact_area_excess(coords: np.ndarray) -> tuple[int, int]:
    """Total cell area minus 1, exactly, as an integer over ``den**2``.

    Over the largest denominator every coordinate is an integer, so the sum is
    exact: a missing or doubled cell shows however small it is.
    """
    ratios = {v: v.as_integer_ratio() for v in set(coords.ravel().tolist())}
    den = max(d for _, d in ratios.values())
    s = {v: n * (den // d) for v, (n, d) in ratios.items()}
    excess = sum(
        (s[x_hi] - s[x_lo]) * (s[y_hi] - s[y_lo]) for x_lo, x_hi, y_lo, y_hi in coords.tolist()
    ) - den * den
    return excess, den


def _check_tiles_unit_square(coords: np.ndarray) -> None:
    """Reject cells, rows of ``coords``, that do not tile [0, 1)^2 exactly.

    The test is the bounds mask, then the corner cancellation of the module
    docstring: group the signed corners by point and sum their weights.
    """
    x_lo, x_hi, y_lo, y_hi = coords.T
    inside = (0.0 <= x_lo) & (x_lo < x_hi) & (x_hi <= 1.0)
    inside &= (0.0 <= y_lo) & (y_lo < y_hi) & (y_hi <= 1.0)
    bad = coords[~inside]
    if len(bad):
        raise ValueError(f"cell {bad[0].tolist()} is not a nonempty rectangle in the unit square")
    signed = np.concatenate((coords, _UNIT_SQUARE))
    n = len(coords)
    xs = signed[:, _CORNER_X].T.ravel()
    ys = signed[:, _CORNER_Y].T.ravel()
    weights = np.repeat(_CORNER_W, n + 1)
    weights[n :: n + 1] *= -1  # the square's own corners, last in each block
    order = np.lexsort((ys, xs))
    xs, ys, weights = xs[order], ys[order], weights[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])))
    )
    uncancelled = np.flatnonzero(np.add.reduceat(weights, starts))
    if not uncancelled.size:
        return
    # Only a rejected partition pays for the exact area sum, which picks the
    # message: the cells lie in the square, so at area exactly 1 a corner
    # that fails to cancel means two interiors overlap.
    excess, den = _exact_area_excess(coords)
    if excess:
        amount = excess / (den * den)
        if amount == 0.0:
            # Below the smallest double: give the exact dyadic amount (den
            # is a power of two).
            shift = (excess & -excess).bit_length() - 1
            amount = f"{excess >> shift}*2**{shift - 2 * (den.bit_length() - 1)}"
        else:
            amount = repr(amount)
        raise ValueError(f"partition area differs from 1 by {amount}")
    i = starts[uncancelled[0]]
    raise ValueError(
        f"cell interiors overlap: corner weights do not cancel at {(float(xs[i]), float(ys[i]))}"
    )


def _cell_rows(rows) -> np.ndarray:
    """Read-only (n, 4) float copy of ``rows``; ValueError unless each has 4 numbers."""
    arr = np.array(rows, dtype=float)
    arr = arr.reshape(len(arr), 4)
    arr.flags.writeable = False
    return arr


def _areas(rows: np.ndarray) -> np.ndarray:
    return (rows[:, 1] - rows[:, 0]) * (rows[:, 3] - rows[:, 2])


@dataclass(frozen=True, eq=False)
class LabeledPartition:
    """Read-only arrays: (n, 4) ``cells``, n ``labels`` and (k, 4) ``residual``.

    Rows are (x_lo, x_hi, y_lo, y_hi); each decided cell is labeled ``"p"`` or
    ``"q"``.  The constructor keeps read-only copies of its array-likes and
    enforces, by the bounds mask and the exact corner test of the module
    docstring, 0 <= lo < hi <= 1 on both axes, disjoint interiors and a total
    area (residual included) of exactly 1.  A rejected partition's exact area
    sum picks the message: a total other than 1 is reported as such, and a
    total of exactly 1 means two interiors overlap.
    """

    cells: np.ndarray
    labels: np.ndarray
    residual: np.ndarray = ()

    def __post_init__(self) -> None:
        cells = _cell_rows(self.cells)
        residual = _cell_rows(self.residual)
        labels = np.array(self.labels, dtype=str)
        if labels.shape != (len(cells),):
            raise ValueError(f"{len(cells)} cells need as many labels, got shape {labels.shape}")
        unknown = labels[(labels != "p") & (labels != "q")]
        if unknown.size:
            raise ValueError(f"unknown cell label {str(unknown[0])!r}")
        labels.flags.writeable = False
        for name, value in (("cells", cells), ("labels", labels), ("residual", residual)):
            object.__setattr__(self, name, value)
        if not len(cells) + len(residual):
            raise ValueError("empty partition")
        _check_tiles_unit_square(np.concatenate((cells, residual)))

    def p_probs(self) -> np.ndarray:
        return _areas(self.cells[self.labels == "p"])

    def q_probs(self) -> np.ndarray:
        return _areas(self.cells[self.labels == "q"])

    def all_probs(self) -> np.ndarray:
        return _areas(np.concatenate((self.cells, self.residual)))

    def to_json_dict(self) -> dict:
        rows = np.concatenate((self.cells, self.residual))
        labels = self.labels.tolist() + ["u"] * len(self.residual)
        cells = zip(rows.tolist(), labels, _areas(rows).tolist())
        return {"cells": [{"rect": r, "label": lbl, "prob": p} for r, lbl, p in cells]}

    def to_json(self) -> str:
        # Not a test helper: the benchmark's tracer looks this method up by name.
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LabeledPartition":
        """Partition from its JSON text; malformed input raises ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("partition JSON is nested too deeply") from None
        if not isinstance(data, dict) or not isinstance(data.get("cells"), list):
            raise ValueError('partition JSON must be an object with a "cells" list')
        cells, labels, residual = [], [], []
        for entry in data["cells"]:
            if not isinstance(entry, dict) or "rect" not in entry or "label" not in entry:
                raise ValueError(f'partition cell needs "rect" and "label": {entry!r}')
            coords = entry["rect"]
            if not (
                isinstance(coords, list)
                and len(coords) == 4
                and all(_is_number(v) for v in coords)
            ):
                raise ValueError(f"cell rect must be 4 finite numbers, got {coords!r}")
            area = (float(coords[1]) - coords[0]) * (float(coords[3]) - coords[2])
            prob = entry.get("prob")
            if prob is not None and (not _is_number(prob) or abs(prob - area) > 1e-9):
                raise ValueError(f"stored prob {prob!r} inconsistent with {coords}")
            if entry["label"] == "u":
                residual.append(coords)
            else:
                cells.append(coords)
                labels.append(str(entry["label"]))
        return cls(cells, labels, residual)


def partition_entropy(part: LabeledPartition) -> float:
    """Entropy in bits of the cell-probability vector, residual included."""
    return entropy_bits(part.all_probs())


def is_zero_error(part: LabeledPartition, f: TargetFunction) -> bool:
    """True iff every labeled cell's interior lies in the matching level set.

    Residual cells are not inspected, so the check composes with partial
    (finite-depth) constructions: it validates the decided cells only.
    """
    x_lo, x_hi, y_lo, y_hi = part.cells.T
    if f is TargetFunction.MIN_INDICATOR:
        p_ok, q_ok = y_hi <= x_lo, x_hi <= y_lo
    else:
        p_ok = (x_lo >= 0.5) & (y_lo >= 0.5)
        q_ok = (x_hi <= 0.5) | (y_hi <= 0.5)
    return bool(np.all(np.where(part.labels == "p", p_ok, q_ok)))


def majorizes(p: Sequence[float], q: Sequence[float]) -> bool:
    """True iff sorted-descending prefix sums of p dominate those of q.

    Raises ValueError when an entry is not finite or negative, or when the
    vectors do not carry the same total mass.
    """
    ps = sorted((float(v) for v in p), reverse=True)
    qs = sorted((float(v) for v in q), reverse=True)
    if not all(map(math.isfinite, ps + qs)):
        raise ValueError("probability vectors must be finite")
    if ps and ps[-1] < -PROB_TOL or qs and qs[-1] < -PROB_TOL:
        raise ValueError("probability vectors must be nonnegative")
    if abs(math.fsum(ps) - math.fsum(qs)) > PROB_TOL:
        raise ValueError("mismatched totals")
    n = max(len(ps), len(qs))
    ps += [0.0] * (n - len(ps))
    qs += [0.0] * (n - len(qs))
    run_p = 0.0
    run_q = 0.0
    for a, b in zip(ps, qs):
        run_p += a
        run_q += b
        if run_p < run_q - PROB_TOL:
            return False
    return True


def _subtract(row: list[float], cut: list[float]) -> list[list[float]]:
    """Parts of the cell ``row`` outside the cell ``cut``, as up to four rows."""
    x_lo, x_hi, y_lo, y_hi = row
    cx_lo, cx_hi, cy_lo, cy_hi = cut
    ix_lo, ix_hi = max(x_lo, cx_lo), min(x_hi, cx_hi)
    iy_lo, iy_hi = max(y_lo, cy_lo), min(y_hi, cy_hi)
    if not (ix_lo < ix_hi and iy_lo < iy_hi):  # the open interiors do not meet
        return [row]
    pieces = []
    if x_lo < ix_lo:
        pieces.append([x_lo, ix_lo, y_lo, y_hi])
    if ix_hi < x_hi:
        pieces.append([ix_hi, x_hi, y_lo, y_hi])
    if y_lo < iy_lo:
        pieces.append([ix_lo, ix_hi, y_lo, iy_lo])
    if iy_hi < y_hi:
        pieces.append([ix_lo, ix_hi, iy_hi, y_hi])
    return pieces


def readjust_max_rectangle(part: LabeledPartition) -> LabeledPartition:
    """Grow the largest p-cell into the corner rectangle [v,1] x [0,v].

    The move is defined for the ordering function only
    (:attr:`TargetFunction.MIN_INDICATOR`, p-cells below the diagonal).
    ``v`` is the cell's current top edge, so the grown rectangle keeps its
    upper-left corner on the diagonal and gains the lower-right corner (1,0).
    Cells swallowed by the grown rectangle are dropped, partially covered
    cells are clipped to their outside parts.  The move preserves zero-error
    labeling, and the output probability vector majorizes the input vector
    whenever no donor cell is larger than the chosen p-cell and none is cut
    in two.  Only a residual cell whose interior holds the corner (v, v) is
    cut in two, so a residual square [lo, hi]^2 with lo < v < hi can break
    majorization; recursive corner-cut partitions have no such square.  A
    p-cell that reaches the top edge (v = 1) grows into an empty cell, which
    the partition's bounds check rejects with ValueError.
    """
    p_rows = np.flatnonzero(part.labels == "p")
    if not p_rows.size:
        raise ValueError("partition has no p-labeled cells")
    x_lo, x_hi, y_lo, y_hi = part.cells[p_rows].T
    target = p_rows[np.lexsort((y_hi, x_hi, y_lo, x_lo, -_areas(part.cells[p_rows])))[0]]
    v = float(part.cells[target, 3])
    grown = [v, 1.0, 0.0, v]

    cells, labels = [grown], ["p"]
    for i, (row, label) in enumerate(zip(part.cells.tolist(), part.labels.tolist())):
        if i != target:
            pieces = _subtract(row, grown)
            cells += pieces
            labels += [label] * len(pieces)
    residual = [piece for row in part.residual.tolist() for piece in _subtract(row, grown)]
    return LabeledPartition(cells, labels, residual)


def staircase_area(corners: Sequence[float]) -> float:
    """Area under the staircase with touch points (x_i, x_i) on the diagonal.

    ``corners`` are the abscissae x_1 <= ... <= x_m, each in (0, 1); an empty,
    out-of-range or decreasing profile raises ValueError.
    """
    xs = tuple(float(v) for v in corners)
    if not xs:
        raise ValueError("profile needs at least one corner")
    prev = 0.0
    for v in xs:
        if not (0.0 < v < 1.0):
            raise ValueError(f"corner {v!r} outside (0, 1)")
        if v < prev:
            raise ValueError("corners must be nondecreasing")
        prev = v
    total = xs[0] * (1.0 - xs[0])
    for prev, cur in zip(xs, xs[1:]):
        total += (cur - prev) * (1.0 - cur)
    return total


def _staircase_bound(m: int | np.ndarray) -> float | np.ndarray:
    """Staircase bound m / (2(m+1)) on the sum of any m cell probabilities."""
    return m / (2.0 * (m + 1.0))


def staircase_max(m: int) -> tuple[tuple[float, ...], float]:
    """Closed-form maximizer x_i = i/(m+1) with area m / (2(m+1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(i / (m + 1.0) for i in range(1, m + 1)), _staircase_bound(m)


def maximize_staircase_numeric(m: int) -> tuple[tuple[float, ...], float]:
    """Maximize :func:`staircase_area` from its first-order condition.

    Independent numerical route: never consults the closed form.  The area is
    a concave quadratic with gradient x_{i-1} + x_{i+1} - 2 x_i (boundary
    values x_0 = 0 and x_{m+1} = 1), so its maximizer is the solution of the
    m x m tridiagonal system setting that gradient to zero.  Thomas elimination
    solves it in O(m) time and memory.  The corners are returned with their
    area; :func:`staircase_area` rejects an infeasible solution.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # Thomas elimination.  The forward sweep turns row i into
    # x_i = ratio_i x_{i+1}, starting from x_0 = 0; back substitution then
    # runs down from the boundary value x_{m+1} = 1.
    ratios = []
    ratio = 0.0
    for _ in range(m):
        ratio = 1.0 / (2.0 - ratio)
        ratios.append(ratio)
    xs = [0.0] * m
    x = 1.0
    for i in range(m - 1, -1, -1):
        x = xs[i] = ratios[i] * x
    corners = tuple(xs)
    return corners, staircase_area(corners)


def satisfies_staircase_bounds(part: LabeledPartition) -> bool:
    """Check the staircase constraints on a zero-error partition.

    Every size-m subset of p-cell probabilities (likewise q) must sum to at
    most m/(2(m+1)).  Probabilities are nonnegative, so the m largest cells
    form the binding subset, and each side is checked through the prefix sums
    of its probabilities sorted in decreasing order.

    The totals must both equal 1/2 when the partition has no residual; a
    finite truncation keeps undecided diagonal mass, so there the two sides
    are only required to carry equal mass.
    """
    for probs in (part.p_probs(), part.q_probs()):
        prefix = np.cumsum(np.sort(probs)[::-1])
        if not np.all(prefix <= _staircase_bound(np.arange(1, len(prefix) + 1)) + PROB_TOL):
            return False
    sp = math.fsum(part.p_probs())
    sq = math.fsum(part.q_probs())
    if len(part.residual):
        return abs(sp - sq) <= PROB_TOL
    return abs(sp - 0.5) <= PROB_TOL and abs(sq - 0.5) <= PROB_TOL
