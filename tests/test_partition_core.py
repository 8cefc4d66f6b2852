import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latcomm import (
    LabeledPartition,
    Rect,
    StaircaseProfile,
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
)

from oracles import (
    random_majorizing_pair,
    random_zero_error_partition,
    staircase_bounds_by_subsets,
)

MIN = TargetFunction.MIN_INDICATOR
QUAD = TargetFunction.QUADRANT


def quarter_partition():
    return LabeledPartition(
        (
            (Rect(0.5, 1.0, 0.0, 0.5), "p"),
            (Rect(0.0, 0.5, 0.5, 1.0), "q"),
        ),
        (Rect(0.0, 0.5, 0.0, 0.5), Rect(0.5, 1.0, 0.5, 1.0)),
    )


def test_rect_area_examples():
    assert Rect(0.0, 1.0, 0.0, 1.0).area == 1.0
    assert Rect(0.5, 1.0, 0.0, 0.5).area == 0.25
    assert Rect(0.0, 0.5, 0.0, 0.25).area == 0.125


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 0.7, 0.2)
    with pytest.raises(ValueError):
        Rect(0.0, math.inf, 0.0, 1.0)


def test_partition_entropy_examples():
    assert partition_entropy(quarter_partition()) == 2.0
    cells = (
        (Rect(0.5, 1.0, 0.0, 0.5), "p"),
        (Rect(0.0, 0.5, 0.0, 1.0), "q"),
        (Rect(0.5, 1.0, 0.5, 1.0), "q"),
    )
    assert partition_entropy(LabeledPartition(cells)) == 1.5
    single = LabeledPartition(((Rect(0.0, 1.0, 0.0, 1.0), "q"),))
    assert partition_entropy(single) == 0.0


def test_partition_validation_rejects_overlap_and_bad_area():
    with pytest.raises(ValueError, match="overlap"):
        LabeledPartition(
            (
                (Rect(0.0, 0.6, 0.0, 1.0), "q"),
                (Rect(0.5, 0.9, 0.0, 1.0), "q"),
            )
        )
    with pytest.raises(ValueError, match="area"):
        LabeledPartition(((Rect(0.0, 0.5, 0.0, 1.0), "q"),))
    with pytest.raises(ValueError, match="unit square"):
        LabeledPartition(((Rect(0.0, 1.0, 0.0, 1.0001), "q"),))
    with pytest.raises(ValueError, match="label"):
        LabeledPartition(((Rect(0.0, 1.0, 0.0, 1.0), "x"),))


def test_partition_json_round_trip():
    part = quarter_partition()
    again = LabeledPartition.from_json(part.to_json())
    assert again == part
    assert again.to_json() == part.to_json()


def test_is_zero_error_examples():
    assert is_zero_error(quarter_partition(), MIN)
    whole = LabeledPartition(((Rect(0.0, 1.0, 0.0, 1.0), "p"),))
    assert not is_zero_error(whole, MIN)
    quad = LabeledPartition(
        (
            (Rect(0.5, 1.0, 0.5, 1.0), "p"),
            (Rect(0.0, 0.5, 0.0, 1.0), "q"),
            (Rect(0.5, 1.0, 0.0, 0.5), "q"),
        )
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
    assert sorted(r.corner_key() for r, _ in out.cells) == sorted(
        r.corner_key() for r, _ in part.cells
    )


def test_readjust_grows_to_corner_rectangle():
    # Max p-cell [0.6,0.9]x[0.1,0.4] grows to [0.4,1]x[0,0.4]; the smaller
    # p-cell below it is clipped to its part left of the grown rectangle.
    cells = (
        (Rect(0.6, 0.9, 0.1, 0.4), "p"),
        (Rect(0.2, 0.7, 0.0, 0.1), "p"),
    )
    residual = (Rect(0.0, 0.2, 0.0, 1.0), Rect(0.2, 1.0, 0.4, 1.0),
                Rect(0.2, 0.6, 0.1, 0.4), Rect(0.9, 1.0, 0.1, 0.4),
                Rect(0.7, 1.0, 0.0, 0.1))
    # residual here is only padding to make a full partition; zero-error
    # checks look at the labeled cells.
    part = LabeledPartition(cells, residual)
    out = readjust_max_rectangle(part)
    p_rects = sorted((r.corner_key() for r, lbl in out.cells if lbl == "p"))
    assert p_rects[0] == (0.2, 0.0, 0.4, 0.1)
    assert p_rects[1] == (0.4, 0.0, 1.0, 0.4)
    assert is_zero_error(out, MIN)
    assert abs(math.fsum(out.all_probs()) - 1.0) < 1e-12


def test_readjust_majorizes_and_lowers_entropy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        part = random_zero_error_partition(rng, max_depth=4)
        out = readjust_max_rectangle(part)
        assert is_zero_error(out, MIN)
        assert majorizes(out.all_probs(), part.all_probs())
        assert partition_entropy(out) <= partition_entropy(part) + 1e-12


def test_staircase_area_examples():
    assert staircase_area(StaircaseProfile((0.5,))) == 0.25
    assert abs(staircase_area(StaircaseProfile((1 / 3, 2 / 3))) - 1 / 3) < 1e-15
    assert abs(staircase_area(StaircaseProfile((0.2, 0.2))) - 0.16) < 1e-15


def test_staircase_profile_validation():
    with pytest.raises(ValueError):
        StaircaseProfile(())
    with pytest.raises(ValueError):
        StaircaseProfile((0.5, 0.4))
    with pytest.raises(ValueError):
        StaircaseProfile((0.0, 0.5))


def test_staircase_max_examples():
    profile, area = staircase_max(1)
    assert profile.corners == (0.5,) and area == 0.25
    profile, area = staircase_max(3)
    assert profile.corners == (0.25, 0.5, 0.75) and area == 0.375
    profile, area = staircase_max(10)
    assert max(abs(c - i / 11) for i, c in enumerate(profile.corners, 1)) < 1e-15
    assert abs(area - 5 / 11) < 1e-15


@pytest.mark.parametrize("m", range(1, 11))
def test_staircase_numeric_matches_closed_form(m):
    profile, area = staircase_max(m)
    num_profile, num_area = maximize_staircase_numeric(m)
    assert abs(area - num_area) <= 1e-9
    assert max(abs(a - b) for a, b in zip(profile.corners, num_profile.corners)) <= 1e-6


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
                perturbed = list(profile.corners)
                perturbed[i] += delta
                assert staircase_area(sorted(perturbed)) < area - 1e-7


def test_satisfies_staircase_bounds_examples():
    # depth-d bit-exchange partitions are checked in the protocol tests; here
    # the hand-built cases.
    assert satisfies_staircase_bounds(quarter_partition())
    # single p-cell of probability 0.3 > 1/4 fails the m=1 bound even though
    # the two sides carry equal mass
    bad = LabeledPartition(
        (
            (Rect(0.5, 1.0, 0.0, 0.6), "p"),
            (Rect(0.0, 0.5, 0.4, 1.0), "q"),
        ),
        (Rect(0.0, 0.5, 0.0, 0.4), Rect(0.5, 1.0, 0.6, 1.0)),
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
        cells.append((Rect(x, x + w, 0.0, 0.5), "p"))
        cells.append((Rect(x, x + w, 0.5, 1.0), "q"))
        x += w
    return LabeledPartition(tuple(cells), (Rect(x, 1.0, 0.0, 1.0),))


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
