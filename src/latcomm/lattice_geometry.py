"""Exact 2-D lattice geometry for upper-triangular bases.

The lattice is spanned by the columns of ``[[1, rho*cos(theta)],
[0, rho*sin(theta)]]``.  The module provides Babai (nearest-plane) rounding,
exact closest-point search and the Voronoi cell of the origin, both from the
Lagrange-Gauss reduced basis, and the seven-rectangle refinement of the Babai
cell together with the two-round message statistics it induces.

Geometry of the refinement, writing c = rho*cos(theta), h = rho*sin(theta):
the Babai cell of the origin is [-1/2, 1/2] x [-h/2, h/2], and for
0 < c < 1 and rho > cos(theta) the Voronoi boundary enters it as four
straight segments, one per corner.  The corner neighbors are the lattice
points (c, h), (c-1, h) and their negatives; the segments meet the vertical
cell edges at height y_c = (rho^2 - c) / (2h) and the horizontal edges at
abscissae c/2 and (1-c)/2 (up to sign).  Column cuts at +-min(c, 1-c)/2 and
row cuts at +-y_c then tile the cell into seven rectangles: the middle
column, plus three rows in each outer column, of which exactly the two
corner-adjacent rows are crossed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .partition_core import Rect, entropy_bits
from .protocol_engine import _stopping_rounds, sample_inputs

__all__ = [
    "Lattice2D",
    "Point2",
    "Segment",
    "ConvexPolygon",
    "SubdivisionCell",
    "BabaiSubdivision",
    "RoundRates",
    "UnsupportedGeometryError",
    "babai_cell",
    "nearest_plane_point",
    "voronoi_cell",
    "nearest_lattice_point",
    "babai_subdivision",
    "round_rates",
    "crossed_cell_mass",
    "simulate_round_count",
    "subdivision_to_json",
]

_GEOM_TOL = 1e-12
_AREA_TOL = 1e-9


class UnsupportedGeometryError(ValueError):
    """Voronoi/Babai configuration outside the supported corner-cut topology."""


class Point2(NamedTuple):
    x1: float
    x2: float


class Segment(NamedTuple):
    a: Point2
    b: Point2


@dataclass(frozen=True)
class Lattice2D:
    """Lattice parameters: basis-length ratio rho > 0, angle 0 < theta <= pi/2."""

    rho: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be positive, got {self.rho!r}")
        if not (0.0 < self.theta <= math.pi / 2.0):
            raise ValueError(f"theta must lie in (0, pi/2], got {self.theta!r}")
        if not self.h > 0.0:
            raise ValueError(
                f"rho*sin(theta) underflows to 0 for rho={self.rho!r}, theta={self.theta!r}"
            )

    @property
    def c(self) -> float:
        """Horizontal component rho*cos(theta) of the second basis vector."""
        return self.rho * math.cos(self.theta)

    @property
    def h(self) -> float:
        """Vertical component rho*sin(theta); equals det(V)."""
        return self.rho * math.sin(self.theta)

    def point(self, n1: int, n2: int) -> Point2:
        return Point2(n1 + n2 * self.c, n2 * self.h)


def babai_cell(lat: Lattice2D) -> Rect:
    """Nearest-plane cell of the origin: [-1/2, 1/2] x [-h/2, h/2]."""
    half_h = lat.h / 2.0
    return Rect(-0.5, 0.5, -half_h, half_h)


def nearest_plane_point(
    lat: Lattice2D, x: Point2 | tuple[float, float]
) -> tuple[tuple[int, int], Point2]:
    """Babai rounding: second coordinate first, then the first.

    Ties on cell faces break toward the even integer (round-half-to-even).
    Returns the integer basis coefficients and the lattice point itself.
    Raises ValueError for a non-finite query or one whose quotient overflows.
    """
    x1, x2 = x
    b2 = _round_finite(x2 / lat.h)
    b1 = _round_finite(x1 - b2 * lat.c)
    return (b1, b2), lat.point(b1, b2)


def _round_finite(q: float) -> int:
    # round() raises OverflowError on inf and ValueError on nan; both mean the
    # query was not finite or overflowed on its way here.
    if not math.isfinite(q):
        raise ValueError(f"query is not finite or overflows double precision (quotient {q!r})")
    return round(q)


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with vertices in counterclockwise order."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", tuple(Point2(float(a), float(b)) for a, b in self.vertices)
        )
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least three vertices")

    def area(self) -> float:
        verts = self.vertices
        total = 0.0
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            total += ax * by - bx * ay
        return 0.5 * total


def _reduced_basis(lat: Lattice2D) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lagrange-Gauss reduction of the basis, as integer coefficient pairs.

    Returns the coefficients (u, w) of a basis of the same lattice with
    |u| <= |w| and |<u, w>| <= |u|^2 / 2.  The two vectors then meet at an
    angle between 60 and 120 degrees, so the Voronoi cell spans less than one
    unit along either reduced coordinate.
    """

    def dot(a: tuple[int, int], b: tuple[int, int]) -> float:
        ax, ay = lat.point(*a)
        bx, by = lat.point(*b)
        return ax * bx + ay * by

    u, w = (1, 0), (0, 1)
    if dot(w, w) < dot(u, u):
        u, w = w, u
    while True:
        norm_u = dot(u, u)
        ratio = dot(u, w) / norm_u if norm_u > 0.0 else math.inf
        # Past 2^52 the subtraction below would lose every bit of w.
        if not abs(ratio) < 2.0**52:
            raise UnsupportedGeometryError(
                f"basis of rho={lat.rho}, theta={lat.theta} cannot be reduced in floating point"
            )
        mu = round(ratio)
        w = (w[0] - mu * u[0], w[1] - mu * u[1])
        if dot(w, w) >= norm_u:
            return u, w
        u, w = w, u


def voronoi_cell(lat: Lattice2D) -> ConvexPolygon:
    """Voronoi cell of the origin, built from the reduced basis.

    The Lagrange-Gauss reduced pair, with the second vector negated if the
    two meet at an acute angle, is an obtuse superbase (v1, v2, v3 = -v1-v2),
    and +-v1, +-v2, +-v3 are the only Voronoi-relevant vectors (Conway and
    Sloane, Proc. R. Soc. A 436, 1992).  Each vertex is the circumcentre of
    the origin and two angularly consecutive relevant vectors.  On a
    rectangular lattice the two vertices beside each of +-v3 coincide, so
    +-v3 are left out and the cell has four vertices.  The cell area must
    equal det(V) = rho*sin(theta) to within 1e-9 * max(1, det(V)); a
    floating-point breakdown raises :class:`UnsupportedGeometryError`, as
    does a basis that cannot be reduced.
    """
    u, w = _reduced_basis(lat)
    (ax, ay), (bx, by) = lat.point(*u), lat.point(*w)
    dot = ax * bx + ay * by
    if dot > 0.0:
        bx, by = -bx, -by
    if ax * by - ay * bx < 0.0:
        (ax, ay), (bx, by) = (bx, by), (ax, ay)
    # Counterclockwise order: v1, -v3 = v1 + v2, v2, then their negatives.
    half = [(ax, ay), (ax + bx, ay + by), (bx, by)]
    if abs(dot) <= _GEOM_TOL * math.hypot(ax, ay) * math.hypot(bx, by):
        # Rectangular up to rounding: +-v3 touch the cell only at a corner.
        del half[1]
    relevant = half + [(-x, -y) for x, y in half]
    ring = []
    for (px, py), (qx, qy) in zip(relevant, relevant[1:] + relevant[:1]):
        # The vertex z solves z.p = |p|^2 / 2 and z.q = |q|^2 / 2.
        sp, sq = (px * px + py * py) / 2.0, (qx * qx + qy * qy) / 2.0
        det = px * qy - py * qx
        ring.append(((sp * qy - py * sq) / det, (px * sq - sp * qx) / det))
    start = min(range(len(ring)), key=ring.__getitem__)
    poly = ConvexPolygon(tuple(ring[start:] + ring[:start]))
    if not abs(poly.area() - lat.h) <= _AREA_TOL * max(1.0, lat.h):
        raise UnsupportedGeometryError(
            f"Voronoi cell of rho={lat.rho}, theta={lat.theta} lost its area to rounding"
        )
    return poly


def nearest_lattice_point(lat: Lattice2D, x: Point2 | tuple[float, float]) -> Point2:
    """Exact closest lattice point, for every :class:`Lattice2D`.

    Rounds the coordinates of ``x`` in the Lagrange-Gauss reduced basis and
    scans their 3x3 neighbourhood, which holds the closest point because the
    reduced Voronoi cell spans less than one unit per coordinate.  Distance
    ties break toward the lexicographically smallest coefficient pair in the
    original basis.  Raises ValueError for a non-finite query or one whose
    arithmetic overflows.
    """
    x1, x2 = x
    u, w = _reduced_basis(lat)
    ux, uy = lat.point(*u)
    wx, wy = lat.point(*w)
    det = ux * wy - uy * wx
    a = _round_finite((x1 * wy - x2 * wx) / det)
    b = _round_finite((ux * x2 - uy * x1) / det)

    def key(n: tuple[int, int]) -> tuple[float, int, int]:
        px, py = lat.point(*n)
        return ((x1 - px) ** 2 + (x2 - py) ** 2, *n)

    candidates = [
        ((a + da) * u[0] + (b + db) * w[0], (a + da) * u[1] + (b + db) * w[1])
        for db in (-1, 0, 1)
        for da in (-1, 0, 1)
    ]
    try:
        dist2, n1, n2 = min(map(key, candidates))
        if math.isfinite(dist2):
            return lat.point(n1, n2)
    except OverflowError:
        pass
    raise ValueError(f"query {x!r} overflows double precision on rho={lat.rho}, theta={lat.theta}")


@dataclass(frozen=True)
class SubdivisionCell:
    rect: Rect
    crossing_segment: Optional[Segment] = None
    neighbor: Optional[tuple[int, int]] = None

    @property
    def error_free(self) -> bool:
        """True iff no Voronoi boundary segment crosses the cell."""
        return self.crossing_segment is None


@dataclass(frozen=True)
class BabaiSubdivision:
    """Rectangular refinement of the Babai cell against the Voronoi boundary."""

    lattice: Lattice2D
    cells: tuple[SubdivisionCell, ...]

    @property
    def babai_cell(self) -> Rect:
        return babai_cell(self.lattice)

    @property
    def degenerate(self) -> bool:
        return len(self.cells) == 1


def babai_subdivision(lat: Lattice2D) -> BabaiSubdivision:
    """Seven-rectangle refinement of the Babai cell (degenerate: one cell).

    For theta = pi/2 the Voronoi and Babai cells coincide and a single
    error-free cell is returned.  Outside the supported corner-cut topology
    (requires cos(theta) < rho and rho*cos(theta) < 1) the construction
    raises :class:`UnsupportedGeometryError` rather than guessing.
    """
    c, h = lat.c, lat.h
    if c <= _GEOM_TOL * lat.rho:
        return BabaiSubdivision(lat, (SubdivisionCell(babai_cell(lat)),))
    if c >= 1.0 - _GEOM_TOL:
        raise UnsupportedGeometryError(
            f"rho*cos(theta) = {c} >= 1: Babai cell is not refined by corner cuts"
        )
    if lat.rho - math.cos(lat.theta) <= _GEOM_TOL * max(1.0, lat.rho):
        raise UnsupportedGeometryError(
            f"rho = {lat.rho} <= cos(theta): basis too skewed for the corner-cut topology"
        )

    m = 0.5 * min(c, 1.0 - c)
    y_c = (lat.rho * lat.rho - c) / (2.0 * h)
    top = h / 2.0

    seg_ur = Segment(Point2(c / 2.0, top), Point2(0.5, y_c))
    seg_ul = Segment(Point2(-0.5, y_c), Point2(-(1.0 - c) / 2.0, top))
    seg_ll = Segment(Point2(-c / 2.0, -top), Point2(-0.5, -y_c))
    seg_lr = Segment(Point2(0.5, -y_c), Point2((1.0 - c) / 2.0, -top))

    cells = (
        SubdivisionCell(Rect(-m, m, -top, top)),
        SubdivisionCell(Rect(-0.5, -m, y_c, top), seg_ul, (-1, 1)),
        SubdivisionCell(Rect(-0.5, -m, -y_c, y_c)),
        SubdivisionCell(Rect(-0.5, -m, -top, -y_c), seg_ll, (0, -1)),
        SubdivisionCell(Rect(m, 0.5, y_c, top), seg_ur, (0, 1)),
        SubdivisionCell(Rect(m, 0.5, -y_c, y_c)),
        SubdivisionCell(Rect(m, 0.5, -top, -y_c), seg_lr, (1, -1)),
    )
    return BabaiSubdivision(lat, cells)


@dataclass(frozen=True)
class RoundRates:
    """Message statistics of the two-round refinement.

    Q is the round-1 column distribution (left, middle, right) with Q0 the
    error-free middle column; P is the conditional row distribution within an
    outer column (top, middle, bottom) with P0 the error-free middle row.
    """

    Q: tuple[float, ...]
    P: tuple[float, ...]
    Q0: float
    P0: float

    def __post_init__(self) -> None:
        for vec in (self.Q, self.P):
            if abs(math.fsum(vec) - 1.0) > 1e-12:
                raise ValueError(f"distribution {vec} does not sum to 1")
            if any(v < 0.0 or v > 1.0 for v in vec):
                raise ValueError(f"distribution {vec} has components outside [0,1]")

    @property
    def R_bar(self) -> float:
        """Average rate H(Q) + (1-Q0) H(P) + 4 (1-P0)(1-Q0) in bits."""
        return entropy_bits(self.Q) + (1.0 - self.Q0) * entropy_bits(self.P) + 4.0 * (
            1.0 - self.P0
        ) * (1.0 - self.Q0)

    @property
    def N_bar(self) -> float:
        """Average round count 1 + 2 (1-P0)(1-Q0)."""
        return 1.0 + 2.0 * (1.0 - self.P0) * (1.0 - self.Q0)


def round_rates(sub: BabaiSubdivision) -> RoundRates:
    """Column/row message distributions and the average rate and round count."""
    if sub.degenerate:
        return RoundRates((1.0,), (1.0,), 1.0, 1.0)
    h = sub.lattice.h
    middle = sub.cells[0].rect
    left_col = sub.cells[1].rect
    q_mid = middle.width  # Babai cell width is 1
    q_outer = left_col.width
    Q = (q_outer, q_mid, q_outer)

    rows = [c.rect for c in sub.cells[1:4]]  # top, middle, bottom of one column
    P = tuple(r.height / h for r in rows)
    return RoundRates(Q, P, Q[1], P[1])


def crossed_cell_mass(sub: BabaiSubdivision) -> float:
    """Total probability of the non-error-free cells under the uniform measure."""
    area = sub.babai_cell.area
    return math.fsum(c.rect.area for c in sub.cells if not c.error_free) / area


def simulate_round_count(sub: BabaiSubdivision, samples: int, seed: int) -> float:
    """Monte Carlo mean round count of the two-phase refinement protocol.

    Round 1 locates the subdivision cell.  A crossed cell triggers bit
    exchange on the cell-normalized coordinates, which runs for a further
    Geometric(1/2) number of rounds.  The points are the seeded chunk stream
    of :func:`sample_inputs`, which rejects ``samples < 1``, mapped onto the
    Babai cell and tallied chunk by chunk.
    """
    cell = sub.babai_cell
    crossed = [sc.rect for sc in sub.cells if not sc.error_free]
    total = samples  # round 1, for every point
    for pairs in sample_inputs(seed, samples):
        xs = pairs[:, 0] * cell.width + cell.x_lo
        ys = pairs[:, 1] * cell.height + cell.y_lo
        for r in crossed:
            inside = (xs >= r.x_lo) & (xs < r.x_hi) & (ys >= r.y_lo) & (ys < r.y_hi)
            u1 = (xs[inside] - r.x_lo) / r.width
            u2 = (ys[inside] - r.y_lo) / r.height
            # Bit exchange past 60 agreeing bits has probability 2^-60: negligible.
            total += int(_stopping_rounds(u1, u2, 60).sum())
    return total / samples


def subdivision_to_json(sub: BabaiSubdivision) -> dict:
    """JSON-ready description: babai_cell extents plus per-cell rect/flag/prob."""
    cell = sub.babai_cell
    area = cell.area
    return {
        "babai_cell": cell.as_list(),
        "cells": [
            {
                "rect": c.rect.as_list(),
                "error_free": c.error_free,
                "prob": c.rect.area / area,
            }
            for c in sub.cells
        ],
    }
