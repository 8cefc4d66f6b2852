"""Exact 2-D lattice geometry for upper-triangular bases.

The lattice is spanned by the columns of ``[[1, rho*cos(theta)],
[0, rho*sin(theta)]]``.  The module provides Babai (nearest-plane) rounding,
exact closest-point search and the Voronoi cell of the origin, both from the
Lagrange-Gauss reduced basis, and the refinement of the Babai cell against
the Voronoi boundary, built as a two-party protocol whose message
statistics and transcript entropy give the rates.

Geometry of the refinement, writing c = rho*cos(theta), h = rho*sin(theta):
the Babai cell of the origin is [-1/2, 1/2] x [-h/2, h/2], and for
0 < c < 1 and rho > cos(theta) the Voronoi boundary enters it as four
straight segments, one per corner.  The corner neighbors are the lattice
points (c, h), (c-1, h) and their negatives; the segments meet the vertical
cell edges at height y_c = (rho^2 - c) / (2h) and the horizontal edges at
abscissae c/2 and (1-c)/2 (up to sign).  Column cuts at +-min(c, 1-c)/2 and
row cuts at +-y_c then tile the cell into seven rectangles: party 1 names
the column, then in an outer column party 2 names the row.  The middle column
and the middle rows are decided; the two corner-adjacent rows of each outer
column are crossed.

:func:`babai_subdivision` returns that :class:`ProtocolTree`, the refinement's
only representation.  The readers take the tree: the Babai cell is the root's
rectangle, a crossed cell is an undecided leaf, and the degenerate refinement
is a tree whose root is a leaf.  They list the cells breadth first, the middle
column and then each outer column from top to bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .protocol_engine import ProtocolTree, make_leaf, make_node, sum_rate
from .protocol_engine import _Leaf, _stopping_rounds, sample_inputs

__all__ = [
    "Lattice2D",
    "Point2",
    "ConvexPolygon",
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
# Largest magnitude allowed into the float arithmetic of a nearest-point
# search; nearest_lattice_point derives it from the 1e-9 geometry tolerance.
_MAX_TERM = 2.0**18


class UnsupportedGeometryError(ValueError):
    """Voronoi/Babai configuration outside the supported corner-cut topology."""


class Point2(NamedTuple):
    x1: float
    x2: float


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


def babai_cell(lat: Lattice2D) -> tuple[float, float, float, float]:
    """Nearest-plane cell of the origin, as the row (-1/2, 1/2, -h/2, h/2)."""
    half_h = lat.h / 2.0
    return (-0.5, 0.5, -half_h, half_h)


def nearest_plane_point(
    lat: Lattice2D, x: Point2 | tuple[float, float]
) -> tuple[tuple[int, int], Point2]:
    """Babai rounding: second coordinate first, then the first.

    Ties on cell faces break toward the even integer (round-half-to-even).
    Returns the integer basis coefficients and the lattice point itself.
    Raises ValueError, as :func:`nearest_lattice_point` does, for a query
    that is not finite or whose quotients pass 2^18.
    """
    x1, x2 = x
    b2 = _round_bounded(x, x2 / lat.h)
    b1 = _round_bounded(x, x1 - b2 * lat.c)
    return (b1, b2), lat.point(b1, b2)


def _check_terms(x, *terms: float) -> None:
    """Reject the query ``x`` once a term of its search passes _MAX_TERM or is NaN."""
    if not all(abs(t) <= _MAX_TERM for t in terms):
        raise ValueError(
            f"query {x!r} is not finite or too far from the origin: its nearest-point"
            " search has a term beyond 2**18"
        )


def _round_bounded(x, q: float) -> int:
    _check_terms(x, q)
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
    original basis.

    The answer is the nearest point to within 1e-9 in exact distance.  The
    scan compares (x1 - n1 - n2*c)^2 + (x2 - n2*h)^2 in floats and raises
    ValueError unless every term (x1, x2, the reduced coordinates of x, and
    each candidate's n1 and n2*max(1, |c|, h)) is at most B = 2^18 in
    magnitude; NaN fails too.  With u = 2^-53: the integers are exact,
    n1 + n2*c is off by at most 3uB, the differences by 6uB in x and 3uB in
    y (6.71uB in length), and the squares and sum add a relative 3u to a
    squared distance of at most 13B^2, i.e. 5.41uB.  So each computed
    distance is within 12.12uB of the exact one, the winner is at most
    24.24uB farther than the nearest candidate, and rounding it to floats
    adds at most 3.17uB: 27.41uB = 8.0e-10 in all (1.6e-9 at B = 2^19).
    Without the bound, the query (1e15 + 0.3, 3e14 + 0.1) on the hexagonal
    lattice would get a point 0.4002 away, where one 0.3890 away exists.
    """
    x1, x2 = x
    u, w = _reduced_basis(lat)
    ux, uy = lat.point(*u)
    wx, wy = lat.point(*w)
    det = ux * wy - uy * wx
    a = _round_bounded(x, (x1 * wy - x2 * wx) / det)
    b = _round_bounded(x, (ux * x2 - uy * x1) / det)

    def key(n: tuple[int, int]) -> tuple[float, int, int]:
        px, py = lat.point(*n)
        return ((x1 - px) ** 2 + (x2 - py) ** 2, *n)

    candidates = [
        ((a + da) * u[0] + (b + db) * w[0], (a + da) * u[1] + (b + db) * w[1])
        for db in (-1, 0, 1)
        for da in (-1, 0, 1)
    ]
    # The largest |n1| and |n2| of the nine candidates, whose offsets da, db
    # can take the sign of each centre coefficient.
    n1_max = abs(a * u[0] + b * w[0]) + abs(u[0]) + abs(w[0])
    n2_max = abs(a * u[1] + b * w[1]) + abs(u[1]) + abs(w[1])
    _check_terms(x, x1, x2, n1_max, n2_max * max(1.0, abs(lat.c), lat.h))
    _, n1, n2 = min(map(key, candidates))
    return lat.point(n1, n2)


def babai_subdivision(lat: Lattice2D) -> ProtocolTree:
    """Seven-rectangle refinement of the Babai cell, as a two-party protocol tree.

    Party 1 names the column over (-1/2, -m, m, 1/2), then in an outer column
    party 2 names the row over (-h/2, -y_c, y_c, h/2).  The root's intervals
    are the Babai cell; a decided leaf keeps the Babai point (value 0) and a
    crossed cell is an undecided leaf.  For theta = pi/2 the Voronoi and Babai
    cells coincide: the tree is one decided leaf at depth 0.  Outside the
    supported corner-cut topology (requires cos(theta) < rho and
    rho*cos(theta) < 1) the construction raises
    :class:`UnsupportedGeometryError` rather than guessing.

    The rates charge 4 bits per crossed cell, the cost of min(X1, X2).  That
    premise holds only for a cell split on its diagonal, an affine image of
    the unit-square problem.  For c = rho*cos(theta) != 1/2 two crossed cells
    are not: for c < 1/2 the upper-left cell's boundary segment spans only
    c/(1-c) of its width, and the lower-right cell mirrors it.

    Every row is finite with lo < hi on both axes.  The three guards
    (tol*rho < c < 1 - tol, rho - cos(theta) > tol*max(1, rho) and y_c < h/2)
    give 0 < m <= 1/4 and 0 < y_c < h/2: rho^2 - c = rho*(rho - cos(theta))
    keeps the second guard's margin, far above its rounding, and a y_c that
    overflow makes infinite or NaN fails the third guard.
    """
    c, h = lat.c, lat.h
    x_lo, x_hi, y_lo, y_hi = babai_cell(lat)
    if c <= _GEOM_TOL * lat.rho:
        return ProtocolTree(make_leaf(0, (x_lo, x_hi), (y_lo, y_hi)), 0)
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
    # The crossed rows are c(1-c)/(2h) tall; for a very tall cell y_c rounds onto h/2.
    if not y_c < y_hi:
        raise UnsupportedGeometryError(
            f"rho = {lat.rho!r}, theta = {lat.theta!r}: the crossed rows of the Babai cell"
            " are too thin for double precision"
        )

    def column(x):
        rows = [
            make_leaf(None, x, (y_lo, -y_c)),
            make_leaf(0, x, (-y_c, y_c)),
            make_leaf(None, x, (y_c, y_hi)),
        ]
        return make_node(2, x, (y_lo, y_hi), (y_lo, -y_c, y_c, y_hi), rows)

    middle = make_leaf(0, (-m, m), (y_lo, y_hi))
    columns = [column((x_lo, -m)), middle, column((m, x_hi))]
    root = make_node(1, (x_lo, x_hi), (y_lo, y_hi), (x_lo, -m, m, x_hi), columns)
    return ProtocolTree(root, 1)


@dataclass(frozen=True)
class RoundRates:
    """Message statistics of the two-round refinement.

    Q is the round-1 column distribution (left, middle, right) with Q0 the
    error-free middle column; P is the conditional row distribution within an
    outer column (top, middle, bottom) with P0 the error-free middle row.
    R_bar is the refinement's transcript entropy plus 4 bits per unit of
    crossed mass.  N_bar counts locating the cell as one round, to which bit
    exchange in a crossed cell adds 2 on average.
    """

    Q: tuple[float, ...]
    P: tuple[float, ...]
    R_bar: float

    def __post_init__(self) -> None:
        for vec in (self.Q, self.P):
            if abs(math.fsum(vec) - 1.0) > 1e-12:
                raise ValueError(f"distribution {vec} does not sum to 1")
            if any(v < 0.0 or v > 1.0 for v in vec):
                raise ValueError(f"distribution {vec} has components outside [0,1]")

    @property
    def Q0(self) -> float:
        """Mass of the middle column."""
        return self.Q[len(self.Q) // 2]

    @property
    def P0(self) -> float:
        """Conditional mass of the middle row of an outer column."""
        return self.P[len(self.P) // 2]

    @property
    def N_bar(self) -> float:
        """Average round count 1 + 2 (1-P0)(1-Q0)."""
        return 1.0 + 2.0 * (1.0 - self.P0) * (1.0 - self.Q0)


def _area(node) -> float:
    """Area of a tree node's rectangle, the product of its two intervals."""
    (x_lo, x_hi), (y_lo, y_hi) = node.i1, node.i2
    return (x_hi - x_lo) * (y_hi - y_lo)


def _cells(tree: ProtocolTree) -> list[_Leaf]:
    """The leaves breadth first, party 1's messages left to right and party 2's top to bottom.

    For the refinement: the middle column, then each outer column top to bottom.
    """
    cells, level = [], [tree.root]
    while level:
        cells += [node for node in level if type(node) is _Leaf]
        level = [
            child
            for node in level
            if type(node) is not _Leaf
            for child in (node.children if node.speaker == 1 else node.children[::-1])
        ]
    return cells


def round_rates(tree: ProtocolTree) -> RoundRates:
    """Column/row message distributions and the average rate, read off the tree."""
    R_bar = sum_rate(tree) + 4.0 * crossed_cell_mass(tree)
    root = tree.root
    if type(root) is _Leaf:
        return RoundRates((1.0,), (1.0,), R_bar)
    cuts = root.bounds  # the Babai cell is 1 wide
    Q = tuple(b - a for a, b in zip(cuts, cuts[1:]))
    rows = root.children[0].bounds[::-1]  # top to bottom of one column
    P = tuple((a - b) / (rows[0] - rows[-1]) for a, b in zip(rows, rows[1:]))
    return RoundRates(Q, P, R_bar)


def crossed_cell_mass(tree: ProtocolTree) -> float:
    """Total probability of the crossed (undecided) cells under the uniform measure."""
    return math.fsum(_area(c) for c in _cells(tree) if c.value is None) / _area(tree.root)


def simulate_round_count(tree: ProtocolTree, samples: int, seed: int) -> float:
    """Monte Carlo mean round count of the two-phase refinement protocol.

    Round 1 locates the subdivision cell.  A crossed cell triggers bit
    exchange on the cell-normalized coordinates, which runs for a further
    Geometric(1/2) number of rounds.  The points are the seeded chunk stream
    of :func:`sample_inputs`, which rejects ``samples < 1``, mapped onto the
    Babai cell and tallied chunk by chunk.
    """
    (cx_lo, cx_hi), (cy_lo, cy_hi) = tree.root.i1, tree.root.i2
    crossed = [(*c.i1, *c.i2) for c in _cells(tree) if c.value is None]
    total = samples  # round 1, for every point
    for pairs in sample_inputs(seed, samples):
        xs = pairs[:, 0] * (cx_hi - cx_lo) + cx_lo
        ys = pairs[:, 1] * (cy_hi - cy_lo) + cy_lo
        for x_lo, x_hi, y_lo, y_hi in crossed:
            inside = (xs >= x_lo) & (xs < x_hi) & (ys >= y_lo) & (ys < y_hi)
            u1 = (xs[inside] - x_lo) / (x_hi - x_lo)
            u2 = (ys[inside] - y_lo) / (y_hi - y_lo)
            # Bit exchange past 60 agreeing bits has probability 2^-60: negligible.
            total += int(_stopping_rounds(u1, u2, 60).sum())
    return total / samples


def subdivision_to_json(tree: ProtocolTree) -> dict:
    """JSON-ready description: babai_cell extents plus per-cell rect/flag/prob."""
    root = tree.root
    area = _area(root)
    return {
        "babai_cell": [*root.i1, *root.i2],
        "cells": [
            {
                "rect": [*c.i1, *c.i2],
                "error_free": c.value is not None,
                "prob": _area(c) / area,
            }
            for c in _cells(tree)
        ],
    }
