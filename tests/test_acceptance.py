"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).
"""

import contextlib
import io
import json
import math
import time

import numpy as np

import latcomm as lc
from latcomm.cli import DEFAULT_SEED, main

from oracles import (
    cell_area,
    closed_form_truncated_bits,
    crossed_neighbor,
    random_majorizing_pair,
    random_superbase_lattice,
    random_zero_error_partition,
    rate_matches_partition_entropy,
    tree_leaves,
)

HEX = lc.Lattice2D(1.0, math.pi / 3)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_four_bit_optimum():
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "converse", "--all", "--json"])
    elapsed = time.perf_counter() - start
    results = json.loads(out.getvalue())
    total = results["thm5"]["total_bits"]
    deep = results["thm5"]["sum_rate_depth30"]
    ok = total == 4.0 and abs(deep - 4.0) < 1e-7 and code == 0 and elapsed < 1.0
    report(1, ok, f"total_bits={total}, depth-30 rate={deep}, {elapsed:.2f}s")


def test_criterion_2_achievability_monte_carlo():
    start = time.perf_counter()
    mean_bits, mean_rounds = lc.monte_carlo(30, 10**6, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    ok = (
        abs(mean_bits - 4.0) < 0.01
        and abs(mean_rounds - 2.0) < 0.005
        and elapsed < 10.0
    )
    report(2, ok, f"mean_bits={mean_bits}, mean_rounds={mean_rounds}, {elapsed:.2f}s")


def test_criterion_3_entropy_ratio_minimum():
    v_star, value = lc.minimize_entropy_ratio()
    ok = (v_star, value) == (0.5, 3.0)
    report(3, ok, f"v*={v_star}, min={value}")


def test_criterion_4_quadrant_minimum():
    start = time.perf_counter()
    (vp, vq), value = lc.quadrant_min_entropy()
    oracle_min = lc.quadrant_grid_oracle(grid=120)
    elapsed = time.perf_counter() - start
    ok = (
        value == 1.5
        and vp == (0.25,)
        and vq == (0.5, 0.25)
        and oracle_min >= 1.5 - 1e-9
        and elapsed < 30.0
    )
    report(4, ok, f"vertex value={value}, oracle min={oracle_min}, {elapsed:.2f}s")


def test_criterion_5_staircase_maximum():
    ok = True
    for m in range(1, 11):
        closed_profile, closed_area = lc.staircase_max(m)
        numeric_profile, numeric_area = lc.maximize_staircase_numeric(m)
        ok = ok and abs(numeric_area - m / (2 * (m + 1))) <= 1e-9
        ok = ok and abs(closed_area - numeric_area) <= 1e-9
        ok = ok and all(
            abs(a - b) <= 1e-6
            for a, b in zip(closed_profile, numeric_profile)
        )
    report(5, ok, "numeric maximizer matches m/(2(m+1)) and i/(m+1) for m=1..10")


def test_criterion_6_rate_equals_partition_entropy():
    ok = all(rate_matches_partition_entropy(lc.bit_exchange_protocol(d)) for d in range(1, 13))
    ok = ok and rate_matches_partition_entropy(lc.one_round_quadrant_protocol())
    report(6, ok, "sum rate equals partition entropy for depths 1..12 and the one-round scheme")


def test_criterion_7_closed_form_truncation():
    diffs = []
    for d in range(1, 13):
        rate = lc.sum_rate(lc.bit_exchange_protocol(d))
        diffs.append(abs(rate - closed_form_truncated_bits(d)))
    first = lc.sum_rate(lc.bit_exchange_protocol(1))
    second = lc.sum_rate(lc.bit_exchange_protocol(2))
    ok = max(diffs) < 1e-12 and first == 2.0 and second == 3.0
    report(7, ok, f"max deviation {max(diffs):.2e}; d=1 gives {first}, d=2 gives {second}")


def test_criterion_8_lattice_geometry_suite():
    rng = np.random.default_rng(0xA8)
    area_ok = True
    for _ in range(100):
        lat = random_superbase_lattice(rng)
        area_ok = area_ok and abs(lc.voronoi_cell(lat).area() - lat.h) <= 1e-9

    # Babai vs brute force over 1e5 points in the hexagonal Babai cell,
    # classified through the subdivision.
    tree = lc.babai_subdivision(HEX)
    cell = lc.babai_cell(HEX)
    cx_lo, cx_hi, cy_lo, cy_hi = cell
    n = 100_000
    pts = rng.random((n, 2))
    pts[:, 0] = pts[:, 0] * (cx_hi - cx_lo) + cx_lo
    pts[:, 1] = pts[:, 1] * (cy_hi - cy_lo) + cy_lo
    coeffs = [(n1, n2) for n2 in range(-3, 4) for n1 in range(-3, 4)]
    cand = np.array([[n1 + n2 * HEX.c, n2 * HEX.h] for n1, n2 in coeffs])
    d2 = (pts[:, 0, None] - cand[None, :, 0]) ** 2 + (pts[:, 1, None] - cand[None, :, 1]) ** 2
    origin_idx = coeffs.index((0, 0))
    agrees = d2.argmin(axis=1) == origin_idx

    classify_ok = True
    covered = np.zeros(n, dtype=bool)
    cells = [((*leaf.i1, *leaf.i2), leaf.value is not None) for leaf in tree_leaves(tree)]
    for rect, decided in cells:
        x_lo, x_hi, y_lo, y_hi = rect
        mask = (
            (pts[:, 0] >= x_lo) & (pts[:, 0] < x_hi)
            & (pts[:, 1] >= y_lo) & (pts[:, 1] < y_hi)
        )
        covered |= mask
        if decided:
            classify_ok = classify_ok and bool(agrees[mask].all())
        else:
            lam = HEX.point(*crossed_neighbor(HEX, rect))
            inside = (
                pts[mask, 0] * lam.x1 + pts[mask, 1] * lam.x2
                < (lam.x1**2 + lam.x2**2) / 2
            )
            classify_ok = classify_ok and bool((agrees[mask] == inside).all())
    classify_ok = classify_ok and bool(covered.all())

    # the scalar API agrees with the vectorized oracle on a subsample
    for x1, x2 in pts[:2000].tolist():
        _, babai_pt = lc.nearest_plane_point(HEX, (x1, x2))
        nearest = lc.nearest_lattice_point(HEX, (x1, x2))
        same = math.dist(babai_pt, nearest) < 1e-12
        idx = int(np.argmin((cand[:, 0] - x1) ** 2 + (cand[:, 1] - x2) ** 2))
        classify_ok = classify_ok and (same == (idx == origin_idx))
        classify_ok = classify_ok and math.hypot(babai_pt.x1, babai_pt.x2) < 1e-12

    seven_ok = (
        len(cells) == 7
        and sum(decided for _, decided in cells) == 3
        and abs(math.fsum(cell_area(rect) for rect, _ in cells) - cell_area(cell)) <= 1e-12
    )

    rates = lc.round_rates(tree)
    mass_ok = abs((1 - rates.P0) * (1 - rates.Q0) - lc.crossed_cell_mass(tree)) <= 1e-12
    mc_rounds = lc.simulate_round_count(tree, 200_000, seed=DEFAULT_SEED)
    mc_ok = abs(mc_rounds - rates.N_bar) < 0.01

    ok = area_ok and classify_ok and seven_ok and mass_ok and mc_ok
    report(
        8,
        ok,
        f"areas ok={area_ok}, classification ok={classify_ok}, seven-cell ok={seven_ok}, "
        f"N_bar={rates.N_bar:.6f} vs MC {mc_rounds:.6f}",
    )


def test_criterion_9_majorization_suite():
    rng = np.random.default_rng(0xA9)
    schur_ok = True
    for _ in range(10_000):
        p, q = random_majorizing_pair(rng, int(rng.integers(2, 12)))
        schur_ok = schur_ok and lc.majorizes(p, q)
        schur_ok = schur_ok and lc.entropy_bits(p) <= lc.entropy_bits(q) + 1e-12

    readjust_ok = True
    for _ in range(1000):
        part = random_zero_error_partition(rng, max_depth=4)
        out = lc.readjust_max_rectangle(part)
        readjust_ok = readjust_ok and lc.is_zero_error(out, lc.TargetFunction.MIN_INDICATOR)
        readjust_ok = readjust_ok and lc.majorizes(out.all_probs(), part.all_probs())
    ok = schur_ok and readjust_ok
    report(9, ok, f"10^4 Schur pairs ok={schur_ok}, 10^3 readjustments ok={readjust_ok}")
