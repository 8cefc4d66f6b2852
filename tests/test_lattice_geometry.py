import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latcomm import (
    Lattice2D,
    Point2,
    UnsupportedGeometryError,
    babai_cell,
    babai_subdivision,
    crossed_cell_mass,
    entropy_bits,
    nearest_lattice_point,
    nearest_plane_point,
    round_rates,
    run_protocol,
    simulate_round_count,
    subdivision_to_json,
    sum_rate,
    voronoi_cell,
)

from oracles import (
    CORNER_NEIGHBORS,
    babai_corners_in,
    box_masses_by_fractions,
    brute_force_nearest,
    cell_area,
    crossed_neighbor,
    decode_refinement,
    generator_matrix,
    is_centrally_symmetric,
    lattice_lower_bound,
    mis_decoded_mass_by_fractions,
    nearest_by_enumeration,
    nearest_by_fractions,
    polygon_contains,
    random_corner_cut_lattice,
    random_superbase_lattice,
    rate_by_closed_form,
    round_count_by_doubling,
    tree_leaves,
    voronoi_segment_boxes,
)

HEX = Lattice2D(1.0, math.pi / 3)
Z2 = Lattice2D(1.0, math.pi / 2)
RECT2 = Lattice2D(2.0, math.pi / 2)


def corners(row):
    x_lo, x_hi, y_lo, y_hi = row
    return ((x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi))


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice2D(0.0, 1.0)
    with pytest.raises(ValueError):
        Lattice2D(1.0, 0.0)
    with pytest.raises(ValueError):
        Lattice2D(1.0, math.pi / 2 + 0.1)


def test_generator_matrix_examples():
    assert np.allclose(generator_matrix(Z2), np.eye(2), atol=1e-15)
    expected = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
    assert np.allclose(generator_matrix(HEX), expected, atol=1e-12)
    assert np.allclose(generator_matrix(RECT2), np.diag([1.0, 2.0]), atol=1e-15)
    assert float(np.linalg.det(generator_matrix(HEX))) == pytest.approx(HEX.h, abs=1e-15)


def test_nearest_plane_examples():
    coeffs, point = nearest_plane_point(Z2, (0.6, 0.2))
    assert coeffs == (1, 0) and point == Point2(1.0, 0.0)
    coeffs, point = nearest_plane_point(HEX, (0.9, 0.9))
    assert coeffs == (0, 1)
    assert point.x1 == pytest.approx(0.5, abs=1e-12)
    assert point.x2 == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    coeffs, point = nearest_plane_point(HEX, (0.0, 0.0))
    assert coeffs == (0, 0) and point == Point2(0.0, 0.0)


def test_nearest_plane_lattice_points_are_fixed():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lat = random_superbase_lattice(rng)
        n1, n2 = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        pt = lat.point(n1, n2)
        coeffs, back = nearest_plane_point(lat, pt)
        assert coeffs == (n1, n2)
        assert math.dist(back, pt) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 0.95), st.floats(0.3, math.pi / 2))
def test_nearest_plane_cell_contains_input(x1, x2, c_target, theta):
    rho = min(max(c_target / max(math.cos(theta), 1e-9), math.cos(theta) + 0.05), 3.0)
    lat = Lattice2D(rho, theta)
    _, pt = nearest_plane_point(lat, (x1, x2))
    # the returned point's Babai cell contains the input
    b2 = round(x2 / lat.h)
    assert abs(x2 - b2 * lat.h) <= lat.h / 2 + 1e-12
    assert abs(x1 - pt.x1) <= 0.5 + 1e-12


def test_nearest_plane_tie_rounds_half_to_even():
    # (0.5, 0) sits on the face between the cells of 0 and 1: round-half-even
    # keeps it with 0.
    coeffs, _ = nearest_plane_point(Z2, (0.5, 0.0))
    assert coeffs == (0, 0)
    coeffs, _ = nearest_plane_point(Z2, (1.5, 0.0))
    assert coeffs == (2, 0)


def test_voronoi_cell_examples():
    square = voronoi_cell(Z2)
    assert len(square.vertices) == 4
    assert sorted((round(v.x1, 9), round(v.x2, 9)) for v in square.vertices) == [
        (-0.5, -0.5),
        (-0.5, 0.5),
        (0.5, -0.5),
        (0.5, 0.5),
    ]
    hexagon = voronoi_cell(HEX)
    assert len(hexagon.vertices) == 6
    assert hexagon.area() == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    ys = sorted(round(v.x2, 9) for v in hexagon.vertices)
    assert ys[0] == pytest.approx(-1 / math.sqrt(3), abs=1e-9)

    rect = voronoi_cell(RECT2)
    assert len(rect.vertices) == 4
    assert rect.area() == pytest.approx(2.0, abs=1e-9)
    assert max(abs(v.x2) for v in rect.vertices) == pytest.approx(1.0, abs=1e-9)


def test_voronoi_area_and_symmetry_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        lat = random_superbase_lattice(rng)
        poly = voronoi_cell(lat)
        assert abs(poly.area() - lat.h) <= 1e-9
        assert len(poly.vertices) in (4, 6)
        assert is_centrally_symmetric(poly, tol=1e-8)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 8.0), st.floats(0.05, math.pi / 2))
@example(2.5, 0.3)  # rho*cos(theta) > 1: the basis is not reduced
@example(0.05, math.pi / 3)  # rectangular in its reduced basis: four vertices
def test_voronoi_cell_on_every_lattice(rho, theta):
    lat = Lattice2D(rho, theta)
    poly = voronoi_cell(lat)
    assert abs(poly.area() - lat.h) <= 1e-9 * max(1.0, lat.h)
    assert len(poly.vertices) in (4, 6)
    assert is_centrally_symmetric(poly, tol=1e-12 * (1.0 + rho))
    for vertex in poly.vertices:
        # A vertex is as close to the origin as to any other lattice point.
        nearest, _ = nearest_by_enumeration(lat, vertex)
        radius = math.hypot(*vertex)
        assert math.dist(nearest, vertex) >= radius * (1.0 - 1e-12)


def test_voronoi_cell_rejects_unreducible_bases():
    with pytest.raises(UnsupportedGeometryError):
        voronoi_cell(Lattice2D(1.0, 1e-300))
    with pytest.raises(UnsupportedGeometryError):
        voronoi_cell(Lattice2D(1e20, 1.0))


def test_nearest_lattice_point_examples():
    assert nearest_lattice_point(Z2, (0.6, 0.2)) == Point2(1.0, 0.0)
    pt = nearest_lattice_point(HEX, (0.9, 0.9))
    assert pt.x1 == pytest.approx(0.5, abs=1e-12)
    assert pt.x2 == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    lam = HEX.point(-2, 3)
    assert math.dist(nearest_lattice_point(HEX, lam), lam) < 1e-9


def test_nearest_lattice_point_tie_break_is_lexicographic():
    # (0.5, y) is equidistant from (0,0) and (1,0) for small y; the smaller
    # coefficient pair wins.  (Ties across rows are not exact in floats since
    # cos(pi/2) only rounds to ~6e-17.)
    assert nearest_lattice_point(Z2, (0.5, 0.0)) == Point2(0.0, 0.0)
    assert nearest_lattice_point(Z2, (0.5, 0.25)) == Point2(0.0, 0.0)
    assert nearest_lattice_point(Z2, (1.5, 0.25)) == Point2(1.0, 0.0)


def test_nearest_lattice_point_against_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(300):
        lat = random_superbase_lattice(rng)
        x = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        expected, _ = brute_force_nearest(lat, x)
        got = nearest_lattice_point(lat, x)
        d_got = math.dist(got, x)
        d_exp = math.dist(expected, x)
        assert d_got <= d_exp + 1e-12


@settings(max_examples=400, deadline=None)
@given(
    st.floats(0.05, 8.0),
    st.floats(0.05, math.pi / 2),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
)
@example(2.5, 0.3, 0.52, -0.26)  # nearest coefficients (3, -1), Babai (1, 0)
def test_nearest_lattice_point_exact_on_every_lattice(rho, theta, x1, x2):
    # Covers skewed bases outside cos(theta) < rho, rho*cos(theta) < 1, where
    # a 3x3 scan around the Babai point misses the nearest point.
    lat = Lattice2D(rho, theta)
    expected, _ = nearest_by_enumeration(lat, (x1, x2))
    assert nearest_lattice_point(lat, (x1, x2)) == Point2(*expected)


def test_nearest_lattice_point_rejects_unreducible_bases():
    with pytest.raises(UnsupportedGeometryError):
        nearest_lattice_point(Lattice2D(1.0, 1e-300), (0.3, 0.1))
    with pytest.raises(UnsupportedGeometryError):
        nearest_lattice_point(Lattice2D(1e20, 1.0), (0.3, 0.1))


@pytest.mark.parametrize(
    "rho, theta, x",
    [
        (1.0, 1.0, (1e200, 1e200)),  # the squared distance overflows
        # every candidate lies at infinity, though the query itself is finite
        (5.888395604104158, 0.5359628217517207, (7.593229450338728e305, 1.06775868131645e308)),
    ],
)
def test_nearest_lattice_point_rejects_overflowing_queries(rho, theta, x):
    with pytest.raises(ValueError, match="too far from the origin"):
        nearest_lattice_point(Lattice2D(rho, theta), x)


# Bound on the terms of the float nearest-point search (lattice_geometry._MAX_TERM).
B = 2.0**18


def exact_distance(d2: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(d2.numerator) / Decimal(d2.denominator)).sqrt()


# Up to B, and past it, where a search without the bound errs by more than 1e-9.
_QUERY = st.one_of(st.floats(-B, B), st.floats(-(2.0**30), 2.0**30))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.3, math.pi / 2), _QUERY, _QUERY)
@example(1.0, math.pi / 3, B / 2 + 0.3, B / 4 + 0.1)
@example(1.0, math.pi / 2, B, -B)
@example(0.3, 0.3, B, B)
def test_nearest_lattice_point_is_exact_to_1e_9_or_rejects(rho, theta, x1, x2):
    # The docstring's error bound: once every term of the search is at most
    # 2^18, the returned point is at most 8.0e-10 farther than the nearest.
    lat = Lattice2D(rho, theta)
    best, (n1, n2) = nearest_by_fractions(lat, (x1, x2))
    try:
        got = nearest_lattice_point(lat, (x1, x2))
    except ValueError:
        # Rejected only when a term passes B; on these lattices the terms of
        # the search and of the nearest point differ by a small factor.
        scale = max(1.0, abs(lat.c), lat.h)
        assert max(abs(x1), abs(x2), abs(n1), abs(n2) * scale) > B / 4
        return
    d2 = (Fraction(got.x1) - Fraction(x1)) ** 2 + (Fraction(got.x2) - Fraction(x2)) ** 2
    assert exact_distance(d2) <= exact_distance(best) + Decimal("1e-9")


def test_nearest_lattice_point_never_rejects_a_hexagonal_query_within_half_the_bound():
    # On the hexagonal lattice n1 ~ x1 - x2/sqrt(3) and n2 ~ 2 x2/sqrt(3),
    # both within B for |x1|, |x2| <= B/2.
    for x in ((B / 2, B / 2), (-B / 2, B / 2), (B / 2 - 0.3, -B / 2 + 0.1)):
        best, _ = nearest_by_fractions(HEX, x)
        got = nearest_lattice_point(HEX, x)
        d2 = (Fraction(got.x1) - Fraction(x[0])) ** 2 + (Fraction(got.x2) - Fraction(x[1])) ** 2
        assert exact_distance(d2) <= exact_distance(best) + Decimal("1e-9")


def test_nearest_points_reject_a_query_far_from_the_origin():
    # Past the bound the float search loses the query's fractional part: the
    # point it would return is 0.4002 away, the nearest only 0.3890.
    x = (1e15 + 0.3, 3e14 + 0.1)
    best, coeffs = nearest_by_fractions(HEX, x)
    assert coeffs == (826794919243112, 346410161513776)
    assert abs(exact_distance(best) - Decimal("0.3890")) < Decimal("1e-4")
    with pytest.raises(ValueError, match="too far from the origin"):
        nearest_lattice_point(HEX, x)
    with pytest.raises(ValueError, match="too far from the origin"):
        nearest_plane_point(HEX, x)


def rows(tree):
    """(rect, decided) of each leaf of the refinement, in the tree's message order."""
    return [((*leaf.i1, *leaf.i2), leaf.value is not None) for leaf in tree_leaves(tree)]


def test_babai_subdivision_degenerate():
    tree = babai_subdivision(Z2)
    # One decided leaf at depth 0: the root is the Babai cell.
    assert tree.max_depth == 0
    assert tree_leaves(tree) == [tree.root]
    assert (tree.root.value, (*tree.root.i1, *tree.root.i2)) == (0, babai_cell(Z2))
    assert subdivision_to_json(tree) == {
        "babai_cell": list(babai_cell(Z2)),
        "cells": [{"rect": list(babai_cell(Z2)), "error_free": True, "prob": 1.0}],
    }


def test_babai_subdivision_tree_is_two_messages():
    tree = babai_subdivision(HEX)
    root = tree.root
    assert tree.max_depth == 1 and root.speaker == 1 and len(root.bounds) == 4
    assert all(column.speaker == 2 for column in (root.children[0], root.children[2]))
    # Three decided leaves (middle column, two middle rows) and four undecided ones.
    assert sorted(str(leaf.value) for leaf in tree_leaves(tree)) == ["0"] * 3 + ["None"] * 4


def test_babai_subdivision_hexagonal_structure():
    tree = babai_subdivision(HEX)
    cells = rows(tree)
    assert len(cells) == 7
    assert sum(decided for _, decided in cells) == 3
    # tiling: areas sum to the Babai cell area
    total = math.fsum(cell_area(rect) for rect, _ in cells)
    assert abs(total - cell_area(babai_cell(HEX))) <= 1e-12
    # error-free cells sit inside the Voronoi cell
    poly = voronoi_cell(HEX)
    for rect, decided in cells:
        if decided:
            for corner in corners(rect):
                assert polygon_contains(poly, corner, tol=1e-9)
    # each crossed cell is split in two: the bisector with its neighbor
    # separates the cell's corners
    for rect, decided in cells:
        if decided:
            continue
        n1, n2 = crossed_neighbor(HEX, rect)
        lam = HEX.point(n1, n2)
        sides = set()
        for corner in corners(rect):
            val = corner[0] * lam.x1 + corner[1] * lam.x2 - (lam.x1 ** 2 + lam.x2 ** 2) / 2
            if abs(val) > 1e-12:
                sides.add(val > 0)
        assert sides == {True, False}


@pytest.mark.parametrize("theta", [0.45 * math.pi, math.pi / 3, 1.2])
def test_babai_subdivision_point_classification(theta):
    # Monte Carlo classification oracle: a point disagrees with Babai exactly
    # when it lies in a crossed cell on the far side of the crossing segment.
    lat = Lattice2D(1.0, theta)
    cells = rows(babai_subdivision(lat))
    rng = np.random.default_rng(29)
    cx_lo, cx_hi, cy_lo, cy_hi = babai_cell(lat)
    pts = rng.random((20_000, 2))
    pts[:, 0] = pts[:, 0] * (cx_hi - cx_lo) + cx_lo
    pts[:, 1] = pts[:, 1] * (cy_hi - cy_lo) + cy_lo
    for x1, x2 in pts.tolist():
        nearest = nearest_lattice_point(lat, (x1, x2))
        agrees = math.hypot(nearest.x1, nearest.x2) < 1e-12
        holder = None
        for rect, decided in cells:
            x_lo, x_hi, y_lo, y_hi = rect
            if x_lo <= x1 < x_hi and y_lo <= x2 < y_hi:
                holder = rect, decided
                break
        assert holder is not None
        if holder[1]:
            assert agrees
        else:
            lam = lat.point(*crossed_neighbor(lat, holder[0]))
            inside = x1 * lam.x1 + x2 * lam.x2 < (lam.x1 ** 2 + lam.x2 ** 2) / 2
            assert agrees == inside


@st.composite
def subdivision_lattices(draw):
    """Random corner-cut lattices, plus the edges of the subdivision's domain."""
    kind = draw(st.sampled_from(["random", "c_near_0", "c_near_1", "rho_near_cos", "rho_large"]))
    if kind == "random":
        return random_corner_cut_lattice(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if kind == "c_near_0":  # theta near pi/2
        theta = draw(st.floats(math.pi / 2 - 1e-3, math.pi / 2))
        return Lattice2D(draw(st.floats(0.1, 3.0)), theta)
    if kind == "rho_large":  # rho up to 1e8, with c anywhere in (0, 1)
        rho = draw(st.floats(1.0, 1e8))
        return Lattice2D(rho, math.acos(draw(st.floats(1e-9, 1.0 - 1e-9)) / rho))
    theta = draw(st.one_of(st.floats(0.05, math.pi / 2 - 0.05), st.floats(1e-6, 0.05)))
    cos = math.cos(theta)
    delta = draw(st.floats(1e-16, 1e-3))
    rho = (1.0 - delta) / cos if kind == "c_near_1" else cos * (1.0 + delta)
    return Lattice2D(rho, theta)


@settings(max_examples=300, deadline=None)
@given(subdivision_lattices())
@example(Lattice2D(1e8, math.pi / 2 - 1e-8))
@example(Lattice2D(141222.2698497264, 1.5707963267937057))  # crossed rows too thin
@example(HEX)
def test_babai_subdivision_rows_are_nonempty_and_tile_the_babai_cell(lat):
    try:
        tree = babai_subdivision(lat)
    except UnsupportedGeometryError:
        return
    cell = babai_cell(lat)
    cx_lo, cx_hi, cy_lo, cy_hi = cell
    assert (*tree.root.i1, *tree.root.i2) == cell
    for leaf in tree_leaves(tree):
        x_lo, x_hi, y_lo, y_hi = rect = (*leaf.i1, *leaf.i2)
        assert all(math.isfinite(v) for v in rect)
        assert x_lo < x_hi and y_lo < y_hi
        assert cx_lo <= x_lo and x_hi <= cx_hi and cy_lo <= y_lo and y_hi <= cy_hi
        assert leaf.value in (0, None)  # the Babai point, or a crossed cell
    cells = rows(tree)
    total = math.fsum(cell_area(rect) for rect, _ in cells)
    assert abs(total - cell_area(cell)) <= 1e-12 * cell_area(cell)
    crossed = sum(not decided for _, decided in cells)
    if tree_leaves(tree) == [tree.root]:
        assert crossed == 0 and lat.c <= 1e-12 * lat.rho
    else:
        assert 0 < lat.c < 1 and crossed == 4


@settings(max_examples=200, deadline=None)
@given(subdivision_lattices())
@example(HEX)
@example(Lattice2D(2.0, 1.2))
@example(Z2)
def test_subdivision_lists_the_middle_column_then_each_outer_column_top_to_bottom(lat):
    try:
        tree = babai_subdivision(lat)
    except UnsupportedGeometryError:
        return
    data = subdivision_to_json(tree)["cells"]
    cells = [(tuple(cell["rect"]), cell["error_free"]) for cell in data]
    if tree_leaves(tree) == [tree.root]:
        assert cells == [(babai_cell(lat), True)]
        return

    def position(cell):
        # The middle column straddles x = 0; the outer columns follow left to
        # right, each from its top row down.
        (x_lo, x_hi, y_lo, _), _ = cell
        return (not x_lo < 0.0 < x_hi, x_lo, -y_lo)

    assert cells == sorted(cells, key=position)
    assert [decided for _, decided in cells] == [True, False, True, False, False, True, False]
    # Each crossed cell holds its own corner of the Babai cell; no decided cell holds one.
    touched = [babai_corners_in(lat, rect) for rect, decided in cells if not decided]
    assert all(len(corners) == 1 for corners in touched)
    assert len({corners[0] for corners in touched}) == 4
    assert all(babai_corners_in(lat, rect) == [] for rect, decided in cells if decided)


_CELL_FRACTION = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.25, 1.25))


@settings(max_examples=100, deadline=None)
@given(subdivision_lattices(), _CELL_FRACTION, _CELL_FRACTION)
@example(HEX, 0.2, 0.5 + 0.2 / HEX.h)  # (-0.3, 0.2)
@example(HEX, 1.2, 0.5 + 0.1 / HEX.h)  # (0.7, 0.1), right of the Babai cell
@example(Z2, 0.5, 0.5)
@example(HEX, 0.0, 0.0)  # the lower-left corner, inside the half-open cell
@example(HEX, 1.0, 0.0)  # the lower-right corner, outside it
def test_run_protocol_decides_like_the_leaf_holding_the_point(lat, u1, u2):
    try:
        tree = babai_subdivision(lat)
    except UnsupportedGeometryError:
        return
    (lo1, hi1), (lo2, hi2) = tree.root.i1, tree.root.i2
    x1, x2 = lo1 + u1 * (hi1 - lo1), lo2 + u2 * (hi2 - lo2)
    if not (lo1 <= x1 < hi1 and lo2 <= x2 < hi2):
        cell = re.escape(f"[{lo1!r}, {hi1!r}) x [{lo2!r}, {hi2!r})")
        with pytest.raises(ValueError, match=f"inputs must lie in {cell}"):
            run_protocol(tree, x1, x2)
        return
    # Message intervals are closed below and open above.
    (leaf,) = [leaf for leaf in tree_leaves(tree)
               if leaf.i1[0] <= x1 < leaf.i1[1] and leaf.i2[0] <= x2 < leaf.i2[1]]
    assert run_protocol(tree, x1, x2).output == leaf.value


def test_babai_subdivision_unsupported_geometries():
    with pytest.raises(UnsupportedGeometryError):
        babai_subdivision(Lattice2D(3.0, math.pi / 3))  # rho*cos(theta) >= 1
    with pytest.raises(UnsupportedGeometryError):
        babai_subdivision(Lattice2D(0.5, 0.3))  # rho <= cos(theta)


@settings(max_examples=200, deadline=None)
@given(subdivision_lattices())
@example(HEX)
@example(Z2)
@example(Lattice2D(1.0, 1.0))
def test_round_rates_come_from_the_refinement_tree(lat):
    try:
        tree = babai_subdivision(lat)
    except UnsupportedGeometryError:
        return
    rates = round_rates(tree)
    assert abs(rates.R_bar - rate_by_closed_form(rates)) <= 1e-15 * rates.R_bar
    # The JSON lists every leaf of the tree once.
    cells = subdivision_to_json(tree)["cells"]
    assert sorted((tuple(cell["rect"]), cell["error_free"]) for cell in cells) == sorted(rows(tree))
    probs = [cell["prob"] for cell in cells]
    assert abs(sum_rate(tree) - entropy_bits(probs)) <= 1e-12


def test_round_rates_degenerate():
    rates = round_rates(babai_subdivision(Z2))
    assert rates.Q == (1.0,) and rates.P == (1.0,)
    assert rates.Q0 == 1.0 and rates.P0 == 1.0
    assert rates.R_bar == 0.0 and rates.N_bar == 1.0


def test_round_rates_hexagonal_values():
    tree = babai_subdivision(HEX)
    rates = round_rates(tree)
    assert rates.Q == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)
    assert rates.P == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-12)
    assert rates.R_bar == pytest.approx(2.792481250360578, abs=1e-9)
    assert rates.N_bar == pytest.approx(4 / 3, abs=1e-12)


def test_round_rates_probability_consistency():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lat = random_corner_cut_lattice(rng)
        tree = babai_subdivision(lat)
        rates = round_rates(tree)
        assert math.fsum(rates.Q) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(rates.P) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in rates.Q + rates.P)
        assert (rates.Q0, rates.P0) == (rates.Q[1], rates.P[1])
        # crossed-cell mass identity
        assert abs((1 - rates.P0) * (1 - rates.Q0) - crossed_cell_mass(tree)) <= 1e-12
        # tiling
        total = math.fsum(cell_area(rect) for rect, _ in rows(tree))
        assert abs(total - cell_area(babai_cell(lat))) <= 1e-12


def test_round_rates_all_error_free_reduces_to_hq():
    rates = round_rates(babai_subdivision(Z2))
    assert rates.R_bar == 0.0  # H(Q) of a one-point distribution
    assert rates.N_bar == 1.0


def test_simulate_round_count_matches_n_bar():
    tree = babai_subdivision(HEX)
    rates = round_rates(tree)
    mean = simulate_round_count(tree, 200_000, seed=0x5EED)
    assert abs(mean - rates.N_bar) < 0.01
    assert simulate_round_count(tree, 1000, seed=1) == simulate_round_count(tree, 1000, seed=1)


@pytest.mark.parametrize("samples", [0, -3])
def test_simulate_round_count_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        simulate_round_count(babai_subdivision(HEX), samples, seed=1)


def test_simulate_round_count_matches_doubling_oracle():
    rng = np.random.default_rng(0x1A7)
    lattices = [HEX, Z2] + [random_corner_cut_lattice(rng) for _ in range(6)]
    for lat in lattices:
        tree = babai_subdivision(lat)
        for seed in (1, 0x5EED, int(rng.integers(1, 2**31))):
            # 70,000 samples span two chunks of the stream, the second one partial.
            for samples in (30_000, 70_000):
                expected = round_count_by_doubling(tree, samples, seed)
                assert simulate_round_count(tree, samples, seed) == expected


def test_subdivision_json_schema():
    tree = babai_subdivision(HEX)
    data = subdivision_to_json(tree)
    assert set(data) == {"babai_cell", "cells"}
    assert len(data["babai_cell"]) == 4
    assert len(data["cells"]) == 7
    for entry in data["cells"]:
        assert set(entry) == {"rect", "error_free", "prob"}
    assert math.fsum(e["prob"] for e in data["cells"]) == pytest.approx(1.0, abs=1e-12)
    json.dumps(data)  # serializable


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.3, math.pi / 2))
def test_voronoi_area_property(c_target, theta):
    # parametrize by c = rho*cos(theta) to stay inside the reduced regime
    rho = c_target / math.cos(theta) if theta < math.pi / 2 - 1e-9 else 1.0
    rho = min(max(rho, math.cos(theta) + 0.05), 3.0)
    lat = Lattice2D(rho, theta)
    poly = voronoi_cell(lat)
    assert abs(poly.area() - lat.h) <= 1e-9


# Lattice, sum of the box masses, I(f; Z), lower bound and R_bar, to 4 places.
LOWER_BOUND_TABLE = [
    (HEX, 0.1667, 0.4138, 1.0805, 2.7925),
    (Lattice2D(2.0, 1.2), 0.0287, 0.1063, 0.2211, 2.0115),
    (Lattice2D(1.0, 1.0), 0.1754, 0.4283, 1.1299, 2.9883),
    (Lattice2D(0.9, 1.1), 0.1878, 0.4470, 1.1980, 3.2434),
]


@pytest.mark.parametrize("lat, mass, info, bound, r_bar", LOWER_BOUND_TABLE)
def test_lattice_lower_bound_table(lat, mass, info, bound, r_bar):
    total = float(sum(box_masses_by_fractions(lat.c, lat.h)))
    lb = lattice_lower_bound(lat)
    assert total == pytest.approx(mass, abs=1e-4)
    assert lb - 4.0 * total == pytest.approx(info, abs=1e-4)
    assert lb == pytest.approx(bound, abs=1e-4)
    assert round_rates(babai_subdivision(lat)).R_bar == pytest.approx(r_bar, abs=1e-4)


def test_box_masses_are_exact_for_rational_inputs():
    for c, h in [(Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(2)),
                 (Fraction(7, 10), Fraction(3, 4))]:
        masses = box_masses_by_fractions(c, h)
        height = c * (1 - c) / (2 * h)  # h/2 - y_c
        assert masses == [w * height / h for w in ((1 - c) / 2, c / 2, (1 - c) / 2, c / 2)]
        assert sum(masses) == c * (1 - c) / (2 * h * h)
    # At c = 1/2 the boxes are the crossed cells.
    assert float(sum(box_masses_by_fractions(HEX.c, HEX.h))) == pytest.approx(
        crossed_cell_mass(babai_subdivision(HEX)), abs=1e-15
    )


@settings(max_examples=200, deadline=None)
@given(subdivision_lattices())
@example(HEX)
@example(Lattice2D(2.0, 1.2))
def test_lattice_lower_bound_is_below_r_bar(lat):
    try:
        tree = babai_subdivision(lat)
    except UnsupportedGeometryError:
        return
    if tree_leaves(tree) == [tree.root]:  # no Voronoi boundary inside the Babai cell
        return
    assert 0.0 <= lattice_lower_bound(lat) <= round_rates(tree).R_bar
    # Each box lies in the crossed cell at its corner of the Babai cell, up to the
    # rounding of the cell's cuts: y_c = (rho^2 - c) / (2h) carries an error near
    # ulp(rho^2) / h.  The corner names the box's neighbor (crossed_neighbor's
    # rule), which an exact search could not find quickly for rho up to 1e8.
    crossed = {}
    for rect, decided in rows(tree):
        if not decided:
            (corner,) = babai_corners_in(lat, rect)
            crossed[corner] = rect
    assert len(crossed) == 4
    tol = 1e-15 * (1.0 + lat.rho**2) / lat.h
    for box, _ in voronoi_segment_boxes(Fraction(lat.c), Fraction(lat.h)):
        x_lo, x_hi, y_lo, y_hi = box
        (corner,) = babai_corners_in(lat, box)
        cx_lo, cx_hi, cy_lo, cy_hi = crossed[corner]
        assert cx_lo - tol <= x_lo and x_hi <= cx_hi + tol
        assert cy_lo - tol <= y_lo and y_hi <= cy_hi + tol


@pytest.mark.parametrize("lat", [row[0] for row in LOWER_BOUND_TABLE])
def test_each_box_meets_only_the_origin_and_its_neighbor(lat):
    rng = np.random.default_rng(0xB0C5)
    boxes = voronoi_segment_boxes(Fraction(lat.c), Fraction(lat.h))
    for (x_lo, x_hi, y_lo, y_hi), neighbor in boxes:
        nearest = {
            nearest_by_fractions(lat, (float(x_lo + (x_hi - x_lo) * Fraction(u1)),
                                       float(y_lo + (y_hi - y_lo) * Fraction(u2))))[1]
            for u1, u2 in rng.random((24, 2)).tolist()
        }
        assert nearest == {(0, 0), neighbor}
    cx_lo, cx_hi, cy_lo, cy_hi = babai_cell(lat)
    for u1, u2 in rng.random((40, 2)).tolist():
        x = (cx_lo + u1 * (cx_hi - cx_lo), cy_lo + u2 * (cy_hi - cy_lo))
        if not any(b[0] <= x[0] <= b[1] and b[2] <= x[1] <= b[3] for b, _ in boxes):
            assert nearest_by_fractions(lat, x)[1] == (0, 0)


def babai_points(lat, n, seed):
    """n seeded points, uniform on the Babai cell of lat."""
    x_lo, x_hi, y_lo, y_hi = babai_cell(lat)
    pts = np.random.default_rng(seed).random((n, 2))
    return list(zip((x_lo + pts[:, 0] * (x_hi - x_lo)).tolist(),
                    (y_lo + pts[:, 1] * (y_hi - y_lo)).tolist()))


def mis_decoded(lat, n=2000, seed=0xDEC0):
    tree = babai_subdivision(lat)
    return [x for x in babai_points(lat, n, seed)
            if lat.point(*decode_refinement(lat, tree, x)) != nearest_lattice_point(lat, x)]


def test_mis_decoded_mass_by_fractions_matches_the_closed_form():
    expected = {HEX: 0.0, Lattice2D(2.0, 1.2): 0.00645, Lattice2D(1.0, 1.0): 0.00707}
    for lat, approx in expected.items():
        c, h = Fraction(lat.c), Fraction(lat.h)
        y_c = (c * c + h * h - c) / (2 * h)
        closed = abs(1 - 2 * c) * (h / 2 - y_c) / (2 * h)
        mass = mis_decoded_mass_by_fractions(lat, babai_subdivision(lat))
        assert abs(mass - closed) <= Fraction(1, 10**15)
        assert float(mass) == pytest.approx(approx, abs=1e-5)
    # On the hexagonal lattice only the rounding of c = 0.5000000000000001 is left.
    assert mis_decoded_mass_by_fractions(HEX, babai_subdivision(HEX)) < 1e-16


def test_decoding_matches_the_nearest_point_on_the_hexagonal_lattice():
    assert mis_decoded(HEX) == []


def test_decoding_errs_only_in_the_two_miscut_triangles():
    # For c != 1/2 two crossed cells are wider than the boundary segment's box.
    # Between the cell's diagonal and the segment lies a triangle with corners
    # (sign(px)/2, +-y_c), (px/2, +-h/2) and (sign(px) m, +-h/2).
    lat = Lattice2D(2.0, 1.2)
    c, h = lat.c, lat.h
    y_c = (lat.rho**2 - c) / (2.0 * h)
    m = min(c, 1.0 - c) / 2.0
    triangles = []
    for n1, n2 in CORNER_NEIGHBORS:
        px = n1 + n2 * c
        sx = 1.0 if px > 0 else -1.0
        if abs(px / 2.0 - sx * m) > 1e-12:
            triangles.append(((sx / 2.0, n2 * y_c), (px / 2.0, n2 * h / 2.0), (sx * m, n2 * h / 2.0)))
    assert len(triangles) == 2

    def inside(x, triangle):
        sides = [(bx - ax) * (x[1] - ay) - (by - ay) * (x[0] - ax)
                 for (ax, ay), (bx, by) in zip(triangle, triangle[1:] + triangle[:1])]
        return all(s >= -1e-12 for s in sides) or all(s <= 1e-12 for s in sides)

    wrong = mis_decoded(lat)
    assert wrong
    assert all(any(inside(x, t) for t in triangles) for x in wrong)


@pytest.mark.xfail(strict=True, reason="for c != 1/2 two crossed cells are not split on their diagonal")
def test_decoding_matches_the_nearest_point_on_a_skewed_lattice():
    assert mis_decoded(Lattice2D(2.0, 1.2)) == []
