"""Rectangular partitions of the unit square under the uniform measure.

A partition is a finite collection of axis-aligned cells with pairwise
disjoint interiors whose closures cover ``[0,1]^2``.  Decided cells carry
label ``"p"`` (target function equals 1) or ``"q"`` (equals 0); finite-depth
constructions keep their undecided leftovers as *residual* cells.  Cell
probability is plain area.

Besides the bookkeeping types, this module provides zero-error validation
against the two supported target functions, majorization of probability
vectors, the grow-the-largest-rectangle readjustment move, and the staircase
area machinery that bounds sums of cell probabilities in any zero-error
partition of the below-diagonal triangle.
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
    "Rect",
    "TargetFunction",
    "LabeledPartition",
    "StaircaseProfile",
    "entropy_bits",
    "partition_entropy",
    "is_zero_error",
    "majorizes",
    "readjust_max_rectangle",
    "staircase_area",
    "staircase_max",
    "maximize_staircase_numeric",
    "satisfies_staircase_bounds",
]

PROB_TOL = 1e-12

# Cells may share edges; all containment/overlap tests are on open interiors.
_EDGE_TOL = 1e-12
_UNIT_TOL = 1e-9
# Stopping rule of maximize_staircase_numeric.
_STAIRCASE_GRAD_TOL = 1e-12
_STAIRCASE_MAX_STEPS = 200_000


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention."""
    terms = []
    for p in probs:
        if p < -PROB_TOL:
            raise ValueError(f"negative probability {p!r}")
        if p > 0.0:
            terms.append(-p * math.log2(p))
    return math.fsum(terms)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (x_lo, x_hi) x (y_lo, y_hi) with positive area."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        vals = (self.x_lo, self.x_hi, self.y_lo, self.y_hi)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite rectangle coordinates {vals}")
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate rectangle {vals}")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [self.x_lo, self.x_hi, self.y_lo, self.y_hi]

    def corner_key(self) -> tuple[float, float, float, float]:
        """Sort key: lower-left corner first, then upper-right."""
        return (self.x_lo, self.y_lo, self.x_hi, self.y_hi)

    def interior_overlaps(self, other: "Rect") -> bool:
        return (
            min(self.x_hi, other.x_hi) - max(self.x_lo, other.x_lo) > _EDGE_TOL
            and min(self.y_hi, other.y_hi) - max(self.y_lo, other.y_lo) > _EDGE_TOL
        )


def _is_number(v: object) -> bool:
    """True for a finite int or float (JSON booleans excluded)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class TargetFunction(Enum):
    """Binary functions of (x1, x2) the partitions are checked against."""

    #: f = 1 iff x1 >= x2 (ordering of the two coordinates).
    MIN_INDICATOR = "min_indicator"
    #: f = 1 iff x1 > 1/2 and x2 > 1/2 (upper-right quadrant).
    QUADRANT = "quadrant"


def _check_disjoint_interiors(rects: Sequence[Rect]) -> None:
    # Sweep by x_lo: the active set holds rectangles whose x-range contains
    # the current x_lo, so its size is bounded by the partition's column depth.
    order = sorted(range(len(rects)), key=lambda i: rects[i].x_lo)
    active: list[int] = []
    for idx in order:
        r = rects[idx]
        active = [j for j in active if rects[j].x_hi > r.x_lo + _EDGE_TOL]
        for j in active:
            if r.interior_overlaps(rects[j]):
                raise ValueError(
                    f"cell interiors overlap: {r.as_list()} and {rects[j].as_list()}"
                )
        active.append(idx)


@dataclass(frozen=True)
class LabeledPartition:
    """Labeled cells plus optional undecided residual cells.

    Invariants enforced at construction: every cell lies in the unit square,
    interiors are pairwise disjoint, and total area (residual included) is 1
    within ``PROB_TOL``.
    """

    cells: tuple[tuple[Rect, str], ...]
    residual: tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple((r, lbl) for r, lbl in self.cells))
        object.__setattr__(self, "residual", tuple(self.residual))
        for r, lbl in self.cells:
            if lbl not in ("p", "q"):
                raise ValueError(f"unknown cell label {lbl!r}")
        everything = [r for r, _ in self.cells] + list(self.residual)
        if not everything:
            raise ValueError("empty partition")
        for r in everything:
            if (
                r.x_lo < -_UNIT_TOL
                or r.y_lo < -_UNIT_TOL
                or r.x_hi > 1.0 + _UNIT_TOL
                or r.y_hi > 1.0 + _UNIT_TOL
            ):
                raise ValueError(f"cell {r.as_list()} leaves the unit square")
        total = math.fsum(r.area for r in everything)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"partition area {total!r} != 1")
        _check_disjoint_interiors(everything)

    def p_probs(self) -> list[float]:
        return [r.area for r, lbl in self.cells if lbl == "p"]

    def q_probs(self) -> list[float]:
        return [r.area for r, lbl in self.cells if lbl == "q"]

    def residual_probs(self) -> list[float]:
        return [r.area for r in self.residual]

    def all_probs(self) -> list[float]:
        return [r.area for r, _ in self.cells] + self.residual_probs()

    def to_json_dict(self) -> dict:
        out = [
            {"rect": r.as_list(), "label": lbl, "prob": r.area}
            for r, lbl in self.cells
        ]
        out += [
            {"rect": r.as_list(), "label": "u", "prob": r.area}
            for r in self.residual
        ]
        return {"cells": out}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabeledPartition":
        """Partition from its JSON form; malformed input raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("cells"), list):
            raise ValueError('partition JSON must be an object with a "cells" list')
        cells = []
        residual = []
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
            r = Rect(*coords)
            prob = entry.get("prob")
            if prob is not None and (not _is_number(prob) or abs(prob - r.area) > 1e-9):
                raise ValueError(f"stored prob {prob!r} inconsistent with {r.as_list()}")
            label = entry["label"]
            if label == "u":
                residual.append(r)
            else:
                cells.append((r, label))
        return cls(tuple(cells), tuple(residual))

    @classmethod
    def from_json(cls, text: str) -> "LabeledPartition":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("partition JSON is nested too deeply") from None
        return cls.from_json_dict(data)


def partition_entropy(part: LabeledPartition) -> float:
    """Entropy in bits of the cell-probability vector, residual included."""
    return entropy_bits(part.all_probs())


def is_zero_error(part: LabeledPartition, f: TargetFunction) -> bool:
    """True iff every labeled cell's interior lies in the matching level set.

    Residual cells are not inspected, so the check composes with partial
    (finite-depth) constructions: it validates the decided cells only.
    """
    for r, lbl in part.cells:
        if f is TargetFunction.MIN_INDICATOR:
            ok = r.y_hi <= r.x_lo if lbl == "p" else r.x_hi <= r.y_lo
        else:
            if lbl == "p":
                ok = r.x_lo >= 0.5 and r.y_lo >= 0.5
            else:
                ok = r.x_hi <= 0.5 or r.y_hi <= 0.5
        if not ok:
            return False
    return True


def majorizes(p: Sequence[float], q: Sequence[float], tol: float = PROB_TOL) -> bool:
    """True iff sorted-descending prefix sums of p dominate those of q.

    Raises ValueError when the vectors do not carry the same total mass.
    """
    ps = sorted((float(v) for v in p), reverse=True)
    qs = sorted((float(v) for v in q), reverse=True)
    if ps and ps[-1] < -tol or qs and qs[-1] < -tol:
        raise ValueError("probability vectors must be nonnegative")
    if abs(math.fsum(ps) - math.fsum(qs)) > tol:
        raise ValueError("mismatched totals")
    n = max(len(ps), len(qs))
    ps += [0.0] * (n - len(ps))
    qs += [0.0] * (n - len(qs))
    run_p = 0.0
    run_q = 0.0
    for a, b in zip(ps, qs):
        run_p += a
        run_q += b
        if run_p < run_q - tol:
            return False
    return True


def _subtract(r: Rect, s: Rect) -> list[Rect]:
    """Parts of r outside s, as up to four rectangles."""
    if not r.interior_overlaps(s):
        return [r]
    ix_lo, ix_hi = max(r.x_lo, s.x_lo), min(r.x_hi, s.x_hi)
    iy_lo, iy_hi = max(r.y_lo, s.y_lo), min(r.y_hi, s.y_hi)
    pieces = []
    if r.x_lo < ix_lo:
        pieces.append(Rect(r.x_lo, ix_lo, r.y_lo, r.y_hi))
    if ix_hi < r.x_hi:
        pieces.append(Rect(ix_hi, r.x_hi, r.y_lo, r.y_hi))
    if r.y_lo < iy_lo:
        pieces.append(Rect(ix_lo, ix_hi, r.y_lo, iy_lo))
    if iy_hi < r.y_hi:
        pieces.append(Rect(ix_lo, ix_hi, iy_hi, r.y_hi))
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
    whenever no donor cell is larger than the chosen p-cell (always true for
    partitions whose residual squares sit on the diagonal).
    """
    p_cells = [(r, lbl) for r, lbl in part.cells if lbl == "p"]
    if not p_cells:
        raise ValueError("partition has no p-labeled cells")
    target = max(p_cells, key=lambda c: (c[0].area, tuple(-v for v in c[0].corner_key())))[0]
    v = target.y_hi
    grown = Rect(v, 1.0, 0.0, v)

    new_cells: list[tuple[Rect, str]] = [(grown, "p")]
    for r, lbl in part.cells:
        if r is target:
            continue
        for piece in _subtract(r, grown):
            new_cells.append((piece, lbl))
    new_residual: list[Rect] = []
    for r in part.residual:
        new_residual.extend(_subtract(r, grown))
    return LabeledPartition(tuple(new_cells), tuple(new_residual))


@dataclass(frozen=True)
class StaircaseProfile:
    """Nondecreasing corner abscissae (x_1, ..., x_m), each in (0, 1)."""

    corners: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "corners", tuple(float(v) for v in self.corners))
        if not self.corners:
            raise ValueError("profile needs at least one corner")
        prev = 0.0
        for v in self.corners:
            if not (0.0 < v < 1.0):
                raise ValueError(f"corner {v!r} outside (0, 1)")
            if v < prev:
                raise ValueError("corners must be nondecreasing")
            prev = v


def staircase_area(profile: StaircaseProfile | Sequence[float]) -> float:
    """Area under the staircase with touch points (x_i, x_i) on the diagonal."""
    if not isinstance(profile, StaircaseProfile):
        profile = StaircaseProfile(tuple(profile))
    xs = profile.corners
    total = xs[0] * (1.0 - xs[0])
    for prev, cur in zip(xs, xs[1:]):
        total += (cur - prev) * (1.0 - cur)
    return total


def _staircase_bound(m: int | np.ndarray) -> float | np.ndarray:
    """Staircase bound m / (2(m+1)) on the sum of any m cell probabilities."""
    return m / (2.0 * (m + 1.0))


def staircase_max(m: int) -> tuple[StaircaseProfile, float]:
    """Closed-form maximizer x_i = i/(m+1) with area m / (2(m+1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    profile = StaircaseProfile(tuple(i / (m + 1.0) for i in range(1, m + 1)))
    return profile, _staircase_bound(m)


def maximize_staircase_numeric(m: int) -> tuple[StaircaseProfile, float]:
    """Projected-gradient maximization of :func:`staircase_area`.

    Independent numerical route: never consults the closed form.  The area is
    a concave quadratic with gradient x_{i-1} + x_{i+1} - 2 x_i (boundary
    values 0 and 1), so gradient ascent with step 1/4 is a contraction.  The
    ascent stops once every gradient component is below 1e-12, or after
    200,000 steps.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.arange(1, m + 1, dtype=float) / (m + 2.0)
    step = 0.25
    for _ in range(_STAIRCASE_MAX_STEPS):
        ext = np.concatenate(([0.0], x, [1.0]))
        grad = ext[:-2] + ext[2:] - 2.0 * ext[1:-1]
        x += step * grad
        np.clip(x, 1e-12, 1.0 - 1e-12, out=x)
        np.maximum.accumulate(x, out=x)
        if np.max(np.abs(grad)) < _STAIRCASE_GRAD_TOL:
            break
    profile = StaircaseProfile(tuple(float(v) for v in x))
    return profile, staircase_area(profile)


def satisfies_staircase_bounds(part: LabeledPartition, tol: float = PROB_TOL) -> bool:
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
        prefix = np.cumsum(np.sort(np.asarray(probs, dtype=float))[::-1])
        if not np.all(prefix <= _staircase_bound(np.arange(1, len(prefix) + 1)) + tol):
            return False
    sp = math.fsum(part.p_probs())
    sq = math.fsum(part.q_probs())
    if part.residual:
        return abs(sp - sq) <= tol
    return abs(sp - 0.5) <= tol and abs(sq - 0.5) <= tol
