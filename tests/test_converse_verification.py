import math

import pytest
from hypothesis import given, settings, strategies as st

from latcomm import (
    TargetFunction,
    assemble_four_bits,
    bit_exchange_protocol,
    entropy_bits,
    entropy_ratio,
    quadrant_feasible,
    quadrant_grid_oracle,
    quadrant_min_entropy,
    induced_partition,
    is_zero_error,
    minimize_entropy_ratio,
    partition_entropy,
    run_all_checks,
    self_similar_partition,
    side_conditional_entropy,
    sum_rate,
    satisfies_staircase_bounds,
)

from oracles import closed_form_truncated_bits


def test_quadrant_vertex_and_value():
    (vp, vq), value = quadrant_min_entropy()
    assert vp == (0.25,)
    assert vq == (0.5, 0.25)
    assert value == 1.5


def test_quadrant_non_vertex_point_is_worse():
    # p = (1/4), q = (1/4, 1/4, 1/4) is feasible but not a vertex
    assert quadrant_feasible((0.25,), (0.25, 0.25, 0.25))
    assert entropy_bits((0.25, 0.25, 0.25, 0.25)) == 2.0 > 1.5


def test_quadrant_constraints():
    assert quadrant_feasible((0.25,), (0.5, 0.25))
    assert not quadrant_feasible((0.25,), (0.6, 0.15))  # q_i <= 1/2 violated
    assert not quadrant_feasible((0.3,), (0.5, 0.2))  # p mass over 1/4
    assert not quadrant_feasible((0.25,), (0.5, 0.2))  # totals off
    assert not quadrant_feasible((0.5, -0.25), (0.5, 0.25))  # negative p mass
    assert not quadrant_feasible((0.25,), (0.5, 0.5, -0.25))  # negative q mass
    assert not quadrant_feasible((), (0.5, 0.25))  # no p mass at all
    assert not quadrant_feasible((0.25,), ())


def test_quadrant_grid_oracle():
    assert quadrant_grid_oracle(60) >= 1.5 - 1e-9
    assert quadrant_grid_oracle(60) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        quadrant_grid_oracle(50)  # not a multiple of 4


def test_entropy_ratio_values():
    assert entropy_ratio(0.5) == 3.0
    assert entropy_ratio(0.25) == pytest.approx(3.3268166637820417, abs=1e-9)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            entropy_ratio(bad)


@settings(max_examples=200)
@given(st.floats(1e-3, 0.5))
def test_entropy_ratio_symmetric(v):
    # 1 - (1 - v) loses a few ulps of v, so the comparison is not to 1e-15
    assert entropy_ratio(v) == pytest.approx(entropy_ratio(1.0 - v), rel=1e-9)


def test_minimize_entropy_ratio():
    v_star, value = minimize_entropy_ratio(1e-6)
    assert abs(v_star - 0.5) <= 1e-6
    assert abs(value - 3.0) <= 1e-9
    assert entropy_ratio(0.49) > 3.0 and entropy_ratio(0.51) > 3.0
    with pytest.raises(ValueError):
        minimize_entropy_ratio(0.5)


def test_self_similar_depth1_matches_quarter_split():
    part = self_similar_partition(0.5, 1)
    assert sorted(part.all_probs()) == [0.25, 0.25, 0.25, 0.25]
    assert partition_entropy(part) == 2.0


@pytest.mark.parametrize("depth", range(1, 9))
def test_self_similar_half_equals_bit_exchange(depth):
    ours = self_similar_partition(0.5, depth)
    induced = induced_partition(bit_exchange_protocol(depth))
    key = lambda part: (
        sorted((r.corner_key(), lbl) for r, lbl in part.cells),
        sorted(r.corner_key() for r in part.residual),
    )
    assert key(ours) == key(induced)
    assert partition_entropy(ours) == pytest.approx(closed_form_truncated_bits(depth), abs=1e-12)


@pytest.mark.parametrize("v", [0.3, 0.5, 0.7])
def test_self_similar_zero_error_and_bounds(v):
    part = self_similar_partition(v, 6)
    assert is_zero_error(part, TargetFunction.MIN_INDICATOR)
    assert satisfies_staircase_bounds(part)


def test_entropy_decomposes_by_side():
    # Refining the partition by the side indicator splits each residual
    # square in half; grouping by side must then reproduce the entropy.
    for v, depth in ((0.3, 5), (0.5, 4), (0.62, 6)):
        part = self_similar_partition(v, depth)
        refined = [r.area for r, _ in part.cells]
        refined += [r.area / 2.0 for r in part.residual for _ in range(2)]
        lhs = entropy_bits(refined)
        rhs = 1.0 + 0.5 * side_conditional_entropy(part, "p") + 0.5 * side_conditional_entropy(
            part, "q"
        )
        assert abs(lhs - rhs) <= 1e-12


def test_conditional_entropy_split_identity():
    # H_d = H([v^2, 2v(1-v), (1-v)^2]) + (v^2 + (1-v)^2) * H_{d-1}
    for v in (0.3, 0.5, 0.7):
        group = entropy_bits((v * v, 2 * v * (1 - v), (1 - v) * (1 - v)))
        shrink = v * v + (1 - v) * (1 - v)
        for d in range(2, 9):
            h_d = side_conditional_entropy(self_similar_partition(v, d), "p")
            h_prev = side_conditional_entropy(self_similar_partition(v, d - 1), "p")
            assert abs(h_d - (group + shrink * h_prev)) <= 1e-12


def test_conditional_entropy_fixed_point_convergence():
    for v in (0.3, 0.5, 0.7):
        target = entropy_ratio(v)
        shrink = v * v + (1 - v) * (1 - v)
        errors = [
            target - side_conditional_entropy(self_similar_partition(v, d), "p")
            for d in range(1, 10)
        ]
        assert all(e > 0 for e in errors)
        for prev, cur in zip(errors, errors[1:]):
            assert cur / prev == pytest.approx(shrink, rel=1e-9)


def test_half_partition_meets_staircase_bounds_with_equality():
    # The m largest p-cells of the v=1/2 partition have diagonal corners at
    # i/(m+1) and meet the m/(2(m+1)) bound exactly, for m = 2^j - 1.
    part = self_similar_partition(0.5, 6)
    p_cells = sorted(((r.area, r) for r, lbl in part.cells if lbl == "p"), reverse=True,
                     key=lambda t: (t[0], t[1].corner_key()))
    for j in (1, 2, 3):
        m = 2**j - 1
        chosen = [r for _, r in p_cells[:m]]
        corners = sorted(r.x_lo for r in chosen)
        assert corners == pytest.approx([i / (m + 1) for i in range(1, m + 1)], abs=1e-12)
        assert math.fsum(r.area for r in chosen) == pytest.approx(m / (2 * (m + 1)), abs=1e-12)
        for r in chosen:
            assert r.y_hi == pytest.approx(r.x_lo, abs=1e-15)  # corner on the diagonal


def test_assemble_four_bits():
    assert assemble_four_bits() == 4.0
    gap = 4.0 - sum_rate(bit_exchange_protocol(30))
    assert 0.0 < gap < 1e-7


def test_self_similar_partition_one_level():
    part = self_similar_partition(0.25, 1)
    r_star = next(r for r, lbl in part.cells if lbl == "p")
    assert r_star.corner_key() == (0.25, 0.0, 1.0, 0.25)
    a_square, b_square = sorted(part.residual, key=lambda r: r.corner_key())
    assert a_square.area == pytest.approx(0.0625)
    assert b_square.area == pytest.approx(0.5625)
    # conditional masses given the lower triangle: (v^2, 2v(1-v), (1-v)^2)
    probs = (a_square.area, 2 * r_star.area, b_square.area)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
    assert probs[1] == pytest.approx(2 * 0.25 * 0.75, abs=1e-15)
    assert side_conditional_entropy(part, "p") == pytest.approx(
        entropy_ratio(0.25) * 2 * 0.25 * 0.75, abs=1e-15
    )
    with pytest.raises(ValueError):
        self_similar_partition(1.5, 1)


def test_run_all_checks_passes():
    report = run_all_checks()
    assert report["pass"]
    assert report["example1"]["min_entropy_bits"] == 1.5
    assert report["thm5"]["total_bits"] == 4.0
    assert abs(report["thm5"]["v_star"] - 0.5) <= 1e-6
