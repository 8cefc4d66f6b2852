import json
import math

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
    nearest_lattice_point,
    nearest_plane_point,
    round_rates,
    simulate_round_count,
    subdivision_to_json,
    voronoi_cell,
)

from oracles import (
    brute_force_nearest,
    generator_matrix,
    is_centrally_symmetric,
    nearest_by_enumeration,
    polygon_contains,
    random_corner_cut_lattice,
    random_superbase_lattice,
    round_count_by_doubling,
)

HEX = Lattice2D(1.0, math.pi / 3)
Z2 = Lattice2D(1.0, math.pi / 2)
RECT2 = Lattice2D(2.0, math.pi / 2)


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
    with pytest.raises(ValueError, match="overflows double precision"):
        nearest_lattice_point(Lattice2D(rho, theta), x)


def test_babai_subdivision_degenerate():
    sub = babai_subdivision(Z2)
    assert sub.degenerate
    assert len(sub.cells) == 1
    assert sub.cells[0].error_free
    assert sub.cells[0].rect == babai_cell(Z2)


def test_babai_subdivision_hexagonal_structure():
    sub = babai_subdivision(HEX)
    assert len(sub.cells) == 7
    assert sum(c.error_free for c in sub.cells) == 3
    # tiling: areas sum to the Babai cell area
    total = math.fsum(c.rect.area for c in sub.cells)
    assert abs(total - sub.babai_cell.area) <= 1e-12
    # error-free cells sit inside the Voronoi cell
    poly = voronoi_cell(HEX)
    for c in sub.cells:
        if c.error_free:
            r = c.rect
            for corner in ((r.x_lo, r.y_lo), (r.x_lo, r.y_hi), (r.x_hi, r.y_lo), (r.x_hi, r.y_hi)):
                assert polygon_contains(poly, corner, tol=1e-9)
    # each crossed cell is split in two: its segment endpoints lie on the
    # cell boundary and the segment separates cell corners
    for c in sub.cells:
        if c.error_free:
            continue
        seg = c.crossing_segment
        r = c.rect
        for px, py in (seg.a, seg.b):
            on_x = abs(px - r.x_lo) < 1e-12 or abs(px - r.x_hi) < 1e-12
            on_y = abs(py - r.y_lo) < 1e-12 or abs(py - r.y_hi) < 1e-12
            assert (on_x or on_y) and r.x_lo - 1e-12 <= px <= r.x_hi + 1e-12
            assert r.y_lo - 1e-12 <= py <= r.y_hi + 1e-12
        n1, n2 = c.neighbor
        lam = HEX.point(n1, n2)
        sides = set()
        for corner in ((r.x_lo, r.y_lo), (r.x_lo, r.y_hi), (r.x_hi, r.y_lo), (r.x_hi, r.y_hi)):
            val = corner[0] * lam.x1 + corner[1] * lam.x2 - (lam.x1 ** 2 + lam.x2 ** 2) / 2
            if abs(val) > 1e-12:
                sides.add(val > 0)
        assert sides == {True, False}


@pytest.mark.parametrize("theta", [0.45 * math.pi, math.pi / 3, 1.2])
def test_babai_subdivision_point_classification(theta):
    # Monte Carlo classification oracle: a point disagrees with Babai exactly
    # when it lies in a crossed cell on the far side of the crossing segment.
    lat = Lattice2D(1.0, theta)
    sub = babai_subdivision(lat)
    rng = np.random.default_rng(29)
    cell = sub.babai_cell
    pts = rng.random((20_000, 2))
    pts[:, 0] = pts[:, 0] * cell.width + cell.x_lo
    pts[:, 1] = pts[:, 1] * cell.height + cell.y_lo
    for x1, x2 in pts.tolist():
        nearest = nearest_lattice_point(lat, (x1, x2))
        agrees = math.hypot(nearest.x1, nearest.x2) < 1e-12
        holder = None
        for c in sub.cells:
            r = c.rect
            if r.x_lo <= x1 < r.x_hi and r.y_lo <= x2 < r.y_hi:
                holder = c
                break
        assert holder is not None
        if holder.error_free:
            assert agrees
        else:
            lam = lat.point(*holder.neighbor)
            inside = x1 * lam.x1 + x2 * lam.x2 < (lam.x1 ** 2 + lam.x2 ** 2) / 2
            assert agrees == inside


def test_babai_subdivision_unsupported_geometries():
    with pytest.raises(UnsupportedGeometryError):
        babai_subdivision(Lattice2D(3.0, math.pi / 3))  # rho*cos(theta) >= 1
    with pytest.raises(UnsupportedGeometryError):
        babai_subdivision(Lattice2D(0.5, 0.3))  # rho <= cos(theta)


def test_round_rates_degenerate():
    rates = round_rates(babai_subdivision(Z2))
    assert rates.Q0 == 1.0 and rates.P0 == 1.0
    assert rates.R_bar == 0.0 and rates.N_bar == 1.0


def test_round_rates_hexagonal_values():
    sub = babai_subdivision(HEX)
    rates = round_rates(sub)
    assert rates.Q == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)
    assert rates.P == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-12)
    assert rates.R_bar == pytest.approx(2.792481250360578, abs=1e-9)
    assert rates.N_bar == pytest.approx(4 / 3, abs=1e-12)


def test_round_rates_probability_consistency():
    rng = np.random.default_rng(31)
    for _ in range(50):
        sub = babai_subdivision(random_corner_cut_lattice(rng))
        rates = round_rates(sub)
        assert math.fsum(rates.Q) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(rates.P) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in rates.Q + rates.P)
        # crossed-cell mass identity
        assert abs((1 - rates.P0) * (1 - rates.Q0) - crossed_cell_mass(sub)) <= 1e-12
        # tiling
        total = math.fsum(c.rect.area for c in sub.cells)
        assert abs(total - sub.babai_cell.area) <= 1e-12


def test_round_rates_all_error_free_reduces_to_hq():
    rates = round_rates(babai_subdivision(Z2))
    assert rates.R_bar == 0.0  # H(Q) of a one-point distribution
    assert rates.N_bar == 1.0


def test_simulate_round_count_matches_n_bar():
    sub = babai_subdivision(HEX)
    rates = round_rates(sub)
    mean = simulate_round_count(sub, 200_000, seed=0x5EED)
    assert abs(mean - rates.N_bar) < 0.01
    assert simulate_round_count(sub, 1000, seed=1) == simulate_round_count(sub, 1000, seed=1)


@pytest.mark.parametrize("samples", [0, -3])
def test_simulate_round_count_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        simulate_round_count(babai_subdivision(HEX), samples, seed=1)


def test_simulate_round_count_matches_doubling_oracle():
    rng = np.random.default_rng(0x1A7)
    lattices = [HEX, Z2] + [random_corner_cut_lattice(rng) for _ in range(6)]
    for lat in lattices:
        sub = babai_subdivision(lat)
        for seed in (1, 0x5EED, int(rng.integers(1, 2**31))):
            # 70,000 samples span two chunks of the stream, the second one partial.
            for samples in (30_000, 70_000):
                expected = round_count_by_doubling(sub, samples, seed)
                assert simulate_round_count(sub, samples, seed) == expected


def test_subdivision_json_schema():
    sub = babai_subdivision(HEX)
    data = subdivision_to_json(sub)
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
