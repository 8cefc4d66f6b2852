import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from latcomm import (
    LabeledPartition,
    TargetFunction,
    bit_exchange_protocol,
    entropy_bits,
    induced_partition,
    is_zero_error,
    majorizes,
    maximize_staircase_numeric,
    partition_entropy,
    readjust_max_rectangle,
    staircase_area,
    staircase_max,
    satisfies_staircase_bounds,
    self_similar_partition,
)

from oracles import (
    random_majorizing_pair,
    random_zero_error_partition,
    staircase_bounds_by_subsets,
    tiling_error_by_sweep,
    zero_error_by_cells,
)

MIN = TargetFunction.MIN_INDICATOR
QUAD = TargetFunction.QUADRANT


def quarter_partition():
    return LabeledPartition(
        [[0.5, 1.0, 0.0, 0.5], [0.0, 0.5, 0.5, 1.0]],
        ["p", "q"],
        [[0.0, 0.5, 0.0, 0.5], [0.5, 1.0, 0.5, 1.0]],
    )


def all_rows(part):
    return np.concatenate((part.cells, part.residual)).tolist()


def test_partition_entropy_examples():
    assert partition_entropy(quarter_partition()) == 2.0
    cells = [[0.5, 1.0, 0.0, 0.5], [0.0, 0.5, 0.0, 1.0], [0.5, 1.0, 0.5, 1.0]]
    assert partition_entropy(LabeledPartition(cells, ["p", "q", "q"])) == 1.5
    single = LabeledPartition([[0.0, 1.0, 0.0, 1.0]], ["q"])
    assert partition_entropy(single) == 0.0


def test_entropy_bits_rejects_entries_that_are_not_finite():
    assert entropy_bits([0.5, 0.0, 0.5, -1e-13]) == 1.0
    with pytest.raises(ValueError, match="negative probability -0.5"):
        entropy_bits([1.5, -0.5])
    for probs in ([math.nan], [0.5, math.nan, 0.5], np.array([0.5, np.nan, 0.5])):
        with pytest.raises(ValueError, match="not finite"):
            entropy_bits(probs)
    for probs in ([math.inf], [0.25, math.inf]):
        with pytest.raises(ValueError, match="infinite"):
            entropy_bits(probs)
    with pytest.raises(ValueError, match="negative probability -inf"):
        entropy_bits([-math.inf])


def test_partition_validation_rejects_overlap_and_bad_area():
    with pytest.raises(ValueError, match="overlap"):
        LabeledPartition([[0.0, 0.6, 0.0, 1.0], [0.5, 0.9, 0.0, 1.0]], ["q", "q"])
    with pytest.raises(ValueError, match="area"):
        LabeledPartition([[0.0, 0.5, 0.0, 1.0]], ["q"])
    # A missing cell leaves a hole however small it is: here the ~1e-13 cell
    # at the origin of the depth-5 partition at v = 0.05.
    part = self_similar_partition(0.05, 5)
    areas = part.all_probs()[len(part.cells):]
    tiny = int(np.argmin(areas))
    assert areas[tiny] < 1e-12
    with pytest.raises(ValueError, match="area"):
        LabeledPartition(part.cells, part.labels, np.delete(part.residual, tiny, axis=0))
    with pytest.raises(ValueError, match="unit square"):
        LabeledPartition([[0.0, 1.0, 0.0, 1.0001]], ["q"])
    with pytest.raises(ValueError, match="label"):
        LabeledPartition([[0.0, 1.0, 0.0, 1.0]], ["x"])


def test_area_message_gives_an_amount_below_the_smallest_double():
    # The missing sliver has area (1 - a) * 5e-324, which rounds to 0.0 as a
    # float; the message must still give its exact, negative amount.
    a = 0.978271166992193
    with pytest.raises(ValueError, match="area differs from 1 by") as info:
        LabeledPartition([[0.0, a, 0.0, 1.0], [a, 1.0, 5e-324, 1.0]], ["q", "q"])
    amount = re.search(r"by (-?\d+)\*2\*\*(-?\d+)$", str(info.value))
    assert amount is not None, str(info.value)
    exact = Fraction(a) + (1 - Fraction(a)) * (1 - Fraction(5e-324)) - 1
    assert Fraction(int(amount[1])) * Fraction(2) ** int(amount[2]) == exact < 0
    with pytest.raises(ValueError, match=r"area differs from 1 by -0\.5$"):
        LabeledPartition([[0.0, 0.5, 0.0, 1.0]], ["q"])


def test_overlap_message_names_an_uncancelled_corner():
    with pytest.raises(ValueError, match=r"overlap: .* at \(0\.5, 0\.0\)$"):
        LabeledPartition([[0.0, 0.6, 0.0, 1.0], [0.5, 0.9, 0.0, 1.0]], ["q", "q"])


def _error_class(cells, labels, residual):
    try:
        LabeledPartition(cells, labels, residual)
    except ValueError as exc:
        msg = str(exc)
        return next(c for c in ("unit square", "area", "overlap") if c in msg)
    return None


@st.composite
def guillotine_partitions(draw, max_cuts=20):
    """Coordinate rows of a random guillotine partition of the unit square.

    Each cut splits a cell at a fraction k/2^16, where cell arithmetic is
    exact, or k/65537, where it rounds.
    """
    rows = [[0.0, 1.0, 0.0, 1.0]]
    cuts = draw(st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 2**16)), max_size=max_cuts))
    for pick, k in cuts:
        i = (pick >> 1) % len(rows)
        axis = 2 * (pick & 1)
        t = k / 2**16 if k % 4 == 0 else k / 65537
        lo, hi = rows[i][axis], rows[i][axis + 1]
        cut = lo + t * (hi - lo)
        if lo < cut < hi:
            first, second = list(rows[i]), list(rows[i])
            first[axis + 1] = second[axis] = cut
            rows[i:i + 1] = [first, second]
    return rows


_TILING_MUTATIONS = ("none", "drop", "duplicate", "shift", "ulp", "tiny edge", "grow")


def _mutate(rows, mutation, draw):
    """Damage one cell as ``mutation`` says; exact "grow" keeps the area, so it overlaps."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    if mutation == "drop" and len(rows) > 1:
        del rows[i]
    elif mutation == "duplicate":
        rows.append(list(rows[i]))
    elif mutation == "shift":
        dx, dy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        rows[i] = [rows[i][0] + dx, rows[i][1] + dx, rows[i][2] + dy, rows[i][3] + dy]
    elif mutation == "ulp":
        k = draw(st.integers(0, 3))
        rows[i][k] = float(np.nextafter(rows[i][k], draw(st.sampled_from([-math.inf, math.inf]))))
    elif mutation == "tiny edge":
        # A cell on the left or bottom edge of the square moves that edge to 5e-324.
        edge = [(j, k) for j, r in enumerate(rows) for k in (0, 2) if r[k] == 0.0]
        j, k = draw(st.sampled_from(edge))
        rows[j][k] = 5e-324
    elif mutation == "grow":
        # Grow the cell by a part of its width into its neighbour and give up
        # as much on the other side: the same area, overlapping.
        axis = draw(st.sampled_from([0, 2]))
        delta = (rows[i][axis + 1] - rows[i][axis]) * 2.0 ** -draw(st.integers(1, 3))
        if rows[i][axis + 1] + delta <= 1.0:
            rows[i][axis] += delta
            rows[i][axis + 1] += delta
        elif rows[i][axis] - delta >= 0.0:
            rows[i][axis] -= delta
            rows[i][axis + 1] -= delta
    return rows


@settings(max_examples=200, deadline=None)
@given(guillotine_partitions(), st.sampled_from(_TILING_MUTATIONS), st.data())
def test_tiling_check_agrees_with_sweep_oracle(rows, mutation, data):
    rows = _mutate(rows, mutation, data.draw)
    split = data.draw(st.integers(0, len(rows)))
    labels = ["pq"[j % 2] for j in range(split)]
    expected = tiling_error_by_sweep(rows)
    event(f"{mutation}: {expected}")
    assert _error_class(rows[:split], labels, rows[split:]) == expected
    if mutation == "none":
        assert expected is None


@pytest.mark.parametrize(
    "mutation, expected",
    [("none", None), ("drop", "area"), ("duplicate", "area"), ("tiny edge", "area"),
     ("shift", "unit square"), ("grow", "overlap")],
)
def test_each_tiling_mutation_gives_its_error_class(mutation, expected):
    # On the dyadic depth-3 bit-exchange cells every mutation is exact, so each
    # kind lands on one error class, for the library and the oracle alike.
    # The draws pick the cell [0, 1/2] x [1/2, 1], then the mutation's details:
    # shift it up by 1/2, move its left edge to 5e-324, or move it down by 1/4.
    part = induced_partition(bit_exchange_protocol(3))
    rows = all_rows(part)
    i = rows.index([0.0, 0.5, 0.5, 1.0])
    details = {"shift": [0.0, 0.5], "tiny edge": [(i, 0)], "grow": [2, 1]}
    draws = iter([i] + details.get(mutation, []))
    rows = _mutate(rows, mutation, lambda strategy: next(draws))
    assert tiling_error_by_sweep(rows) == expected
    assert _error_class(rows, ["q"] * len(rows), ()) == expected


def test_constructed_partitions_pass_the_sweep_oracle():
    parts = [induced_partition(bit_exchange_protocol(12))]
    for d in range(1, 11):
        parts.append(induced_partition(bit_exchange_protocol(d)))
        parts += [self_similar_partition(v, d) for v in (0.3, 0.5, 0.7)]
    for part in parts:
        assert tiling_error_by_sweep(all_rows(part)) is None


def test_partition_json_round_trip():
    part = quarter_partition()
    again = LabeledPartition.from_json(part.to_json())
    assert np.array_equal(again.cells, part.cells)
    assert np.array_equal(again.labels, part.labels)
    assert np.array_equal(again.residual, part.residual)
    assert again.to_json() == part.to_json()


@pytest.mark.parametrize(
    "cells, labels, residual",
    [
        ([[0.0, 1.0, 0.0, 1.0], [0.5, math.nan, 0.0, 0.5]], ["q", "q"], ()),
        ([[0.0, 1.0, 0.0, 1.0]], ["q"], [[0.5, 0.5, 0.0, 1.0]]),
        # The reversed copy's corner weights, and its negative area, cancel
        # those of the cell it mirrors: only the bounds mask sees it.
        ([[0.0, 1.0, 0.0, 1.0], [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5]], ["q", "q", "p"], ()),
    ],
    ids=["nan", "zero-width", "reversed-copy"],
)
def test_constructor_rejects_rows_that_are_not_cells(cells, labels, residual):
    with pytest.raises(ValueError, match="not a nonempty rectangle in the unit square"):
        LabeledPartition(cells, labels, residual)


def test_partition_arrays_are_read_only():
    part = quarter_partition()
    for array in (part.cells, part.labels, part.residual):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    # The constructor copies, so the caller's array stays writable.
    rows = np.array([[0.0, 1.0, 0.0, 1.0]])
    LabeledPartition(rows, ["q"])
    rows[0, 0] = 0.5


_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(_SEEDS, st.one_of(st.none(), _SEEDS), st.sampled_from(TargetFunction))
def test_is_zero_error_matches_cell_by_cell_oracle(seed, flip_seed, f):
    part = random_zero_error_partition(np.random.default_rng(seed))
    if flip_seed is not None:
        flip = np.random.default_rng(flip_seed).random(len(part.cells)) < 0.2
        labels = np.where(flip, np.where(part.labels == "p", "q", "p"), part.labels)
        part = LabeledPartition(part.cells, labels, part.residual)
    expected = zero_error_by_cells(part, f)
    event(f"{f.name}, flipped={flip_seed is not None}: {expected}")
    assert is_zero_error(part, f) is expected


def test_is_zero_error_examples():
    assert is_zero_error(quarter_partition(), MIN)
    whole = LabeledPartition([[0.0, 1.0, 0.0, 1.0]], ["p"])
    assert not is_zero_error(whole, MIN)
    quad = LabeledPartition(
        [[0.5, 1.0, 0.5, 1.0], [0.0, 0.5, 0.0, 1.0], [0.5, 1.0, 0.0, 0.5]], ["p", "q", "q"]
    )
    assert is_zero_error(quad, QUAD)
    assert not is_zero_error(whole, QUAD)


def test_majorizes_examples():
    assert majorizes([0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3])
    assert majorizes([0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
    assert not majorizes([1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25])
    # unequal lengths are fine as long as the mass matches
    assert majorizes([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError, match="totals"):
        majorizes([0.5, 0.25], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="nonnegative"):
        majorizes([1.5, -0.5], [1.0])
    for p, q in (([math.nan], [1.0]), ([1.0], [math.nan]), ([math.inf], [1.0]), ([1.0], [-math.inf])):
        with pytest.raises(ValueError, match="finite"):
            majorizes(p, q)


@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=10))
def test_majorizes_reflexive(values):
    total = sum(values)
    probs = [v / total for v in values]
    assert majorizes(probs, probs)


def test_schur_concavity_bulk():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p, q = random_majorizing_pair(rng, int(rng.integers(2, 12)))
        assert majorizes(p, q)
        assert entropy_bits(p) <= entropy_bits(q) + 1e-12


def test_readjust_fixed_point():
    part = quarter_partition()
    out = readjust_max_rectangle(part)
    assert sorted(out.cells.tolist()) == sorted(part.cells.tolist())


def test_readjust_grows_to_corner_rectangle():
    # Max p-cell [0.6,0.9]x[0.1,0.4] grows to [0.4,1]x[0,0.4]; the smaller
    # p-cell below it is clipped to its part left of the grown rectangle.
    cells = [[0.6, 0.9, 0.1, 0.4], [0.2, 0.7, 0.0, 0.1]]
    residual = [[0.0, 0.2, 0.0, 1.0], [0.2, 1.0, 0.4, 1.0],
                [0.2, 0.6, 0.1, 0.4], [0.9, 1.0, 0.1, 0.4],
                [0.7, 1.0, 0.0, 0.1]]
    # residual here is only padding to make a full partition; zero-error
    # checks look at the labeled cells.
    part = LabeledPartition(cells, ["p", "p"], residual)
    out = readjust_max_rectangle(part)
    p_rects = sorted(out.cells[out.labels == "p"].tolist())
    assert p_rects[0] == [0.2, 0.4, 0.0, 0.1]
    assert p_rects[1] == [0.4, 1.0, 0.0, 0.4]
    assert is_zero_error(out, MIN)
    assert abs(math.fsum(out.all_probs()) - 1.0) < 1e-12


def test_readjust_rejects_a_p_cell_reaching_the_top_edge():
    # The one-cell all-p partition has v = 1: the grown cell [1, 1] x [0, 1] is empty.
    with pytest.raises(ValueError, match="not a nonempty rectangle"):
        readjust_max_rectangle(LabeledPartition([[0.0, 1.0, 0.0, 1.0]], ["p"]))


def test_readjust_majorizes_and_lowers_entropy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        part = random_zero_error_partition(rng, max_depth=4)
        out = readjust_max_rectangle(part)
        assert is_zero_error(out, MIN)
        assert majorizes(out.all_probs(), part.all_probs())
        assert partition_entropy(out) <= partition_entropy(part) + 1e-12


def test_readjust_cuts_a_straddling_residual_square_in_two():
    # The grown rectangle [0.5, 1] x [0, 0.5] cuts the residual square
    # [0.4, 0.6]^2 into a left and a top piece: 8 cells become 9, and the
    # 8-cell prefix sum drops from 1.0 to 0.99, so majorization fails.
    part = LabeledPartition(
        [
            [0.6, 1.0, 0.0, 0.5],
            [0.4, 0.6, 0.0, 0.4],
            [0.6, 1.0, 0.5, 0.6],
            [0.0, 0.4, 0.4, 1.0],
            [0.4, 0.6, 0.6, 1.0],
        ],
        ["p", "p", "p", "q", "q"],
        [[0.0, 0.4, 0.0, 0.4], [0.4, 0.6, 0.4, 0.6], [0.6, 1.0, 0.6, 1.0]],
    )
    out = readjust_max_rectangle(part)
    assert [0.5, 1.0, 0.0, 0.5] in out.cells[out.labels == "p"].tolist()
    assert [0.4, 0.5, 0.4, 0.6] in out.residual.tolist()
    assert [0.5, 0.6, 0.5, 0.6] in out.residual.tolist()
    assert len(out.all_probs()) == 9
    assert abs(math.fsum(sorted(out.all_probs(), reverse=True)[:8]) - 0.99) < 1e-12
    assert not majorizes(out.all_probs(), part.all_probs())
    assert is_zero_error(out, MIN)
    assert partition_entropy(out) < partition_entropy(part)


def test_staircase_area_examples():
    assert staircase_area((0.5,)) == 0.25
    assert abs(staircase_area((1 / 3, 2 / 3)) - 1 / 3) < 1e-15
    assert abs(staircase_area((0.2, 0.2)) - 0.16) < 1e-15


def test_staircase_profile_validation():
    with pytest.raises(ValueError, match="at least one corner"):
        staircase_area(())
    with pytest.raises(ValueError, match="nondecreasing"):
        staircase_area((0.5, 0.4))
    with pytest.raises(ValueError, match="outside"):
        staircase_area((0.0, 0.5))


def test_staircase_max_examples():
    profile, area = staircase_max(1)
    assert profile == (0.5,) and area == 0.25
    profile, area = staircase_max(3)
    assert profile == (0.25, 0.5, 0.75) and area == 0.375
    profile, area = staircase_max(10)
    assert max(abs(c - i / 11) for i, c in enumerate(profile, 1)) < 1e-15
    assert abs(area - 5 / 11) < 1e-15


@pytest.mark.parametrize("m", range(1, 11))
def test_staircase_numeric_matches_closed_form(m):
    profile, area = staircase_max(m)
    num_profile, num_area = maximize_staircase_numeric(m)
    assert abs(area - num_area) <= 1e-9
    assert max(abs(a - b) for a, b in zip(profile, num_profile)) <= 1e-6


@pytest.mark.parametrize("m", [50, 400, 1000])
def test_staircase_numeric_exact_at_large_m(m):
    # Well past the orders verify checks: the maximizer must still reach
    # x_i = i/(m+1) and the area m/(2(m+1)) to rounding, not stop short.
    corners, area = maximize_staircase_numeric(m)
    assert len(corners) == m
    assert max(abs(c - i / (m + 1)) for i, c in enumerate(corners, 1)) <= 1e-12
    assert abs(area - m / (2 * (m + 1))) <= 1e-12


def test_staircase_numeric_is_linear_in_m():
    # One dense m x m matrix alone is 800 MB at m = 10^4; elimination needs O(m).
    m = 10_000
    tracemalloc.start()
    try:
        corners, area = maximize_staircase_numeric(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert max(abs(c - i / (m + 1)) for i, c in enumerate(corners, 1)) <= 1e-11
    assert abs(area - m / (2 * (m + 1))) <= 1e-12


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8),
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8),
    st.floats(0.01, 0.99),
)
def test_staircase_area_concave(xs, ys, lam):
    n = min(len(xs), len(ys))
    s = sorted(xs[:n])
    t = sorted(ys[:n])
    mix = [lam * a + (1 - lam) * b for a, b in zip(s, t)]
    assert staircase_area(mix) >= lam * staircase_area(s) + (1 - lam) * staircase_area(t) - 1e-12


def test_staircase_quadratic_form_identity():
    rng = np.random.default_rng(3)
    for m in (1, 2, 5, 9):
        H = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        for _ in range(50):
            x = rng.normal(size=m)
            lhs = x @ H @ x
            rhs = -x[0] ** 2 - sum((x[i - 1] - x[i]) ** 2 for i in range(1, m)) - x[-1] ** 2
            assert abs(lhs - rhs) < 1e-12


def test_staircase_max_is_strict_local_max():
    for m in (1, 3, 10):
        profile, area = staircase_max(m)
        for i in range(m):
            for delta in (-1e-3, 1e-3):
                perturbed = list(profile)
                perturbed[i] += delta
                assert staircase_area(sorted(perturbed)) < area - 1e-7


def test_satisfies_staircase_bounds_examples():
    # depth-d bit-exchange partitions are checked in the protocol tests; here
    # the hand-built cases.
    assert satisfies_staircase_bounds(quarter_partition())
    # single p-cell of probability 0.3 > 1/4 fails the m=1 bound even though
    # the two sides carry equal mass
    bad = LabeledPartition(
        [[0.5, 1.0, 0.0, 0.6], [0.0, 0.5, 0.4, 1.0]],
        ["p", "q"],
        [[0.0, 0.5, 0.0, 0.4], [0.5, 1.0, 0.6, 1.0]],
    )
    assert not satisfies_staircase_bounds(bad)


def test_staircase_bounds_equality_case():
    # Cells meeting m/(2(m+1)) exactly must still pass.
    part = quarter_partition()
    assert math.fsum(part.p_probs()) == 0.25
    assert satisfies_staircase_bounds(part)


def strip_partition(widths):
    """Columns split at y = 1/2 into a p-cell below and a q-cell above.

    A final residual column fills the square, so both sides carry equal mass
    and each cell's probability is half its column width.
    """
    cells = []
    x = 0.0
    for w in widths:
        cells.append([x, x + w, 0.0, 0.5])
        cells.append([x, x + w, 0.5, 1.0])
        x += w
    return LabeledPartition(cells, ["p", "q"] * len(widths), [[x, 1.0, 0.0, 1.0]])


def test_staircase_bounds_match_exact_subset_oracle():
    rng = np.random.default_rng(19)
    verdicts = []
    for _ in range(40):
        part = random_zero_error_partition(rng, max_depth=3)
        verdicts.append(staircase_bounds_by_subsets(part))
        assert satisfies_staircase_bounds(part) == verdicts[-1]
    for _ in range(80):
        k = int(rng.integers(1, 8))
        widths = rng.dirichlet(np.ones(k + 1))[:k] * float(rng.uniform(0.5, 1.0))
        part = strip_partition([float(w) for w in widths])
        verdicts.append(staircase_bounds_by_subsets(part))
        assert satisfies_staircase_bounds(part) == verdicts[-1]
    for t in rng.uniform(0.5, 0.95, size=10):
        # One p-cell of probability t/2 > 1/4 breaks the m=1 bound.
        part = strip_partition([float(t)])
        assert not staircase_bounds_by_subsets(part)
        assert not satisfies_staircase_bounds(part)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_staircase_bounds_dyadic_equality(depth):
    # Depth-d bit exchange has 2^d - 1 p-cells summing to exactly m/(2(m+1)).
    part = induced_partition(bit_exchange_protocol(depth))
    m = len(part.p_probs())
    assert m == 2**depth - 1
    assert math.fsum(part.p_probs()) == m / (2 * (m + 1))
    assert staircase_bounds_by_subsets(part)
    assert satisfies_staircase_bounds(part)
