import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from latcomm import (
    LabeledPartition,
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
    make_leaf,
    make_node,
    minimize_entropy_ratio,
    partition_entropy,
    run_all_checks,
    self_similar_partition,
    side_conditional_entropy,
    sum_rate,
    satisfies_staircase_bounds,
)
from latcomm.protocol_engine import ProtocolTree

from oracles import (
    cell_area,
    closed_form_truncated_bits,
    entropy_ratio_by_decimal,
    grid_protocol_min_entropy,
    grid_set_protocol_min_entropy,
    rate_matches_partition_entropy,
    split_exchange_protocol,
)


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


def _log_uniform_v(count: int) -> list[float]:
    rng = random.Random(20170)
    return [2.0 ** rng.uniform(-1074.0, -1.0) for _ in range(count)]


@pytest.mark.parametrize(
    "v",
    [5e-324, 2.0**-60, 1e-16, 0.3, 0.5, 0.5 - 2.0**-52, 0.5 + 2.0**-52, 1.0 - 2.0**-53]
    + [i / 16 for i in range(1, 8)]
    + _log_uniform_v(100),
)
def test_entropy_ratio_matches_decimal_oracle(v):
    # Also at 1 - v, once that is a double other than 1.
    for u in (v, 1.0 - v) if v >= 2.0**-53 else (v,):
        expected = entropy_ratio_by_decimal(u)
        assert abs(entropy_ratio(u) - expected) <= 4 * math.ulp(expected), u


@settings(max_examples=200)
@given(st.floats(1e-3, 0.5))
def test_entropy_ratio_symmetric(v):
    # 1 - (1 - v) loses a few ulps of v, so the comparison is not to 1e-15
    assert entropy_ratio(v) == pytest.approx(entropy_ratio(1.0 - v), rel=1e-9)


def test_minimize_entropy_ratio():
    assert minimize_entropy_ratio() == (0.5, 3.0)
    assert entropy_ratio(0.49) > 3.0 and entropy_ratio(0.51) > 3.0


def test_binary_entropy_exceeds_four_v_times_one_minus_v():
    # The proof in minimize_entropy_ratio, in 50-digit arithmetic: f = h - 4v(1-v)
    # is positive on a grid of (0, 1/2), and its inflection point p0 lies
    # inside (0, 1/2), where v(1-v) = 1/(8 ln 2).
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()
        for k in range(1, 2048):
            v = Decimal(k) / 4096
            w = 1 - v
            h = -(v * v.ln() + w * w.ln()) / ln2
            assert h - 4 * v * w > 0, k
        p0 = (1 - (1 - 1 / (2 * ln2)).sqrt()) / 2
        assert 0 < p0 < Decimal("0.5")
        assert abs(p0 * (1 - p0) - 1 / (8 * ln2)) < Decimal("1e-45")


def test_self_similar_depth1_matches_quarter_split():
    part = self_similar_partition(0.5, 1)
    assert sorted(part.all_probs()) == [0.25, 0.25, 0.25, 0.25]
    assert partition_entropy(part) == 2.0


@pytest.mark.parametrize("depth", range(1, 13))
def test_self_similar_half_equals_bit_exchange(depth):
    # Cell for cell, in transcript order: the lazy tree's leaves are the reference.
    ours = self_similar_partition(0.5, depth)
    assert ours.to_json() == induced_partition(bit_exchange_protocol(depth)).to_json()
    assert partition_entropy(ours) == pytest.approx(closed_form_truncated_bits(depth), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(1, 6))
def test_self_similar_partition_is_induced_by_split_exchange(v, depth):
    tree = split_exchange_protocol(v, depth)
    part = self_similar_partition(v, depth)
    assert induced_partition(tree).to_json() == part.to_json()
    assert abs(sum_rate(tree) - partition_entropy(part)) <= 1e-12


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
        refined = [cell_area(r) for r in part.cells.tolist()]
        refined += [cell_area(r) / 2.0 for r in part.residual.tolist() for _ in range(2)]
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
    p_cells = sorted(part.cells[part.labels == "p"].tolist(), reverse=True,
                     key=lambda r: (cell_area(r), r[0], r[2], r[1], r[3]))
    for j in (1, 2, 3):
        m = 2**j - 1
        chosen = p_cells[:m]
        corners = sorted(x_lo for x_lo, _, _, _ in chosen)
        assert corners == pytest.approx([i / (m + 1) for i in range(1, m + 1)], abs=1e-12)
        total = math.fsum(cell_area(r) for r in chosen)
        assert total == pytest.approx(m / (2 * (m + 1)), abs=1e-12)
        for x_lo, _, _, y_hi in chosen:
            assert y_hi == pytest.approx(x_lo, abs=1e-15)  # corner on the diagonal


def test_assemble_four_bits():
    assert assemble_four_bits() == 4.0
    gap = 4.0 - sum_rate(bit_exchange_protocol(30))
    assert 0.0 < gap < 1e-7


def test_self_similar_partition_one_level():
    part = self_similar_partition(0.25, 1)
    r_star = part.cells[part.labels == "p"][0].tolist()
    assert r_star == [0.25, 1.0, 0.0, 0.25]
    a_square, b_square = sorted(part.residual.tolist())
    assert cell_area(a_square) == pytest.approx(0.0625)
    assert cell_area(b_square) == pytest.approx(0.5625)
    # conditional masses given the lower triangle: (v^2, 2v(1-v), (1-v)^2)
    probs = (cell_area(a_square), 2 * cell_area(r_star), cell_area(b_square))
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
    assert probs[1] == pytest.approx(2 * 0.25 * 0.75, abs=1e-15)
    assert side_conditional_entropy(part, "p") == pytest.approx(
        entropy_ratio(0.25) * 2 * 0.25 * 0.75, abs=1e-15
    )
    with pytest.raises(ValueError):
        self_similar_partition(1.5, 1)


@pytest.mark.parametrize("n", range(2, 17))
def test_grid_protocols_meet_the_four_bit_converse(n):
    # Every grid protocol leaves the n diagonal cells, of total mass 1/n, to
    # be finished at 4 bits each, so the paper implies H_n >= 4 - 4/n; bit
    # exchange to depth k reaches it at n = 2^k.
    h, cells = grid_protocol_min_entropy(n)
    assert h >= 4 - 4 / n
    if n & (n - 1) == 0:
        assert h == sum_rate(bit_exchange_protocol(n.bit_length() - 1))
    decided = [(row, label) for row, label in cells if label != "u"]
    part = LabeledPartition(
        [row for row, _ in decided],
        [label for _, label in decided],
        [row for row, label in cells if label == "u"],
    )
    assert abs(partition_entropy(part) - h) <= 1e-12
    assert is_zero_error(part, TargetFunction.MIN_INDICATOR)
    assert satisfies_staircase_bounds(part)


@pytest.mark.parametrize("k", range(1, 5))
def test_grid_protocol_minimum_is_bit_exchange_at_powers_of_two(k):
    # Not just the entropy: the argmin's cell probabilities, residual cells
    # included, are those of bit exchange to depth k.
    _, cells = grid_protocol_min_entropy(2**k)
    argmin = sorted(cell_area(row) for row, _ in cells)
    assert argmin == sorted(induced_partition(bit_exchange_protocol(k)).all_probs().tolist())


def protocol_from_cells(cells) -> ProtocolTree:
    """Protocol tree whose leaves are the given guillotine cells.

    Each turn cuts the speaker's interval at every grid line that no cell
    crosses, so consecutive cuts by one speaker become one multi-symbol
    message, and the next turn, if any, belongs to the other speaker.
    """
    values = {"p": 1, "q": 0, "u": None}
    depth = 0

    def build(i1, i2, cells, level):
        nonlocal depth
        depth = max(depth, level)
        if len(cells) == 1:
            return make_leaf(values[cells[0][1]], i1, i2)
        for speaker, own, lo in ((1, i1, 0), (2, i2, 2)):
            cuts = sorted({row[lo] for row, _ in cells} - {own[0]})
            cuts = [k for k in cuts if not any(row[lo] < k < row[lo + 1] for row, _ in cells)]
            if cuts:
                bounds = (own[0], *cuts, own[1])
                children = []
                for a, b in zip(bounds, bounds[1:]):
                    part = [(row, lbl) for row, lbl in cells if a <= row[lo] and row[lo + 1] <= b]
                    sub = ((a, b), i2) if speaker == 1 else (i1, (a, b))
                    children.append(build(*sub, part, level + 1))
                return make_node(speaker, i1, i2, bounds, children)
        raise AssertionError("cells are not a guillotine partition")

    root = build((0.0, 1.0), (0.0, 1.0), cells, 0)
    return ProtocolTree(root, (depth + 1) // 2)


@pytest.mark.parametrize("n", range(2, 17))
def test_grid_protocol_argmin_runs_as_a_protocol(n):
    h, cells = grid_protocol_min_entropy(n)
    tree = protocol_from_cells(cells)
    assert abs(sum_rate(tree) - h) <= 1e-12
    assert rate_matches_partition_entropy(tree)
    part = induced_partition(tree)
    assert is_zero_error(part, TargetFunction.MIN_INDICATOR)
    assert satisfies_staircase_bounds(part)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_grid_protocols_meet_the_quadrant_minimum(n):
    # Example 1 over protocols: no grid protocol for the quadrant beats the
    # polytope minimum of 3/2 bits, and the three-cell one reaches it.
    h, cells = grid_protocol_min_entropy(n, TargetFunction.QUADRANT)
    assert h == 1.5
    assert all(label != "u" for _, label in cells)
    part = LabeledPartition([row for row, _ in cells], [label for _, label in cells], [])
    assert partition_entropy(part) == 1.5
    assert is_zero_error(part, TargetFunction.QUADRANT)


@pytest.mark.parametrize("n", range(2, 8))
def test_set_messages_do_no_better_than_intervals(n):
    assert grid_set_protocol_min_entropy(n) == grid_protocol_min_entropy(n)[0]


def test_run_all_checks_passes():
    report = run_all_checks()
    assert report["pass"]
    assert report["example1"]["min_entropy_bits"] == 1.5
    assert report["thm5"]["total_bits"] == 4.0
    assert (report["thm5"]["v_star"], report["thm5"]["ratio_min"]) == (0.5, 3.0)
