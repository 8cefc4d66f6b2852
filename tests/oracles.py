"""Independent oracles the tests check library results against.

Everything here recomputes expected values by a different route than the
library: exhaustive coefficient scans, exact integer arithmetic on binary
expansions, and closed-form series.  None of it calls back into the code
paths under test.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from latcomm import ConvexPolygon, Lattice2D, LabeledPartition, ProtocolTree, TargetFunction
from latcomm.protocol_engine import _Leaf


def cell_area(row) -> float:
    """Area of a cell row (x_lo, x_hi, y_lo, y_hi)."""
    x_lo, x_hi, y_lo, y_hi = row
    return (x_hi - x_lo) * (y_hi - y_lo)


def generator_matrix(lat: Lattice2D) -> np.ndarray:
    """Upper-triangular generator with columns (1,0) and (rho cos, rho sin)."""
    return np.array([[1.0, lat.c], [0.0, lat.h]])


def polygon_contains(poly: ConvexPolygon, p, tol: float = 1e-9) -> bool:
    """Whether p lies in the counterclockwise convex polygon, up to ``tol`` outside an edge."""
    px, py = p
    verts = poly.vertices
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -tol:
            return False
    return True


def is_centrally_symmetric(poly: ConvexPolygon, tol: float = 1e-9) -> bool:
    """Whether vertex i + n/2 is the reflection of vertex i through the origin, to ``tol``."""
    n = len(poly.vertices)
    if n % 2:
        return False
    half = n // 2
    return all(
        abs(poly.vertices[i].x1 + poly.vertices[i + half].x1) <= tol
        and abs(poly.vertices[i].x2 + poly.vertices[i + half].x2) <= tol
        for i in range(half)
    )


def brute_force_nearest(lat: Lattice2D, x, radius: int = 3):
    """Exhaustive nearest lattice point over coefficients in [-radius, radius]^2.

    The scan window is anchored at the rounded coordinates of x so it stays
    valid for points far from the origin.
    """
    x1, x2 = x
    anchor2 = round(x2 / lat.h)
    anchor1 = round(x1 - anchor2 * lat.c)
    best = None
    best_pt = None
    for n2 in range(anchor2 - radius, anchor2 + radius + 1):
        for n1 in range(anchor1 - radius, anchor1 + radius + 1):
            px = n1 + n2 * lat.c
            py = n2 * lat.h
            key = ((x1 - px) ** 2 + (x2 - py) ** 2, n1, n2)
            if best is None or key < best:
                best = key
                best_pt = (px, py)
    return best_pt, (best[1], best[2])


def nearest_by_enumeration(lat: Lattice2D, x):
    """Nearest lattice point over every point no farther from x than its Babai point.

    The Babai point's distance r bounds the nearest distance, so the rows
    |x2 - n2 h| <= r and, in each row, |x1 - n1 - n2 c| <= r hold every
    candidate: the scan is exhaustive for any basis, however skewed.  Ties
    break as in the library, on (distance^2, n1, n2).
    """
    x1, x2 = x
    anchor2 = round(x2 / lat.h)
    anchor1 = round(x1 - anchor2 * lat.c)
    r = math.hypot(x1 - anchor1 - anchor2 * lat.c, x2 - anchor2 * lat.h) + 1e-9
    best = None
    for n2 in range(math.floor((x2 - r) / lat.h), math.ceil((x2 + r) / lat.h) + 1):
        row = x1 - n2 * lat.c
        for n1 in range(math.floor(row - r), math.ceil(row + r) + 1):
            px = n1 + n2 * lat.c
            py = n2 * lat.h
            key = ((x1 - px) ** 2 + (x2 - py) ** 2, n1, n2)
            if best is None or key < best:
                best = key
    return (best[1] + best[2] * lat.c, best[2] * lat.h), (best[1], best[2])


def nearest_by_fractions(lat: Lattice2D, x) -> tuple[Fraction, tuple[int, int]]:
    """Exact least squared distance from x to the lattice, with its coefficients.

    Works in Fraction arithmetic on the float values of c, h and x, so it
    holds however far x lies from the origin.  The exact Babai point's squared
    distance r^2 bounds the answer, so the rows |x2 - n2 h| <= r and, in each
    row, the n1 with |x1 - n1 - n2 c| <= r hold every candidate.  Ties break
    on (distance^2, n1, n2), as in the library.
    """
    c, h = Fraction(lat.c), Fraction(lat.h)
    x1, x2 = Fraction(x[0]), Fraction(x[1])

    def dist2(n1: int, n2: int) -> Fraction:
        return (x1 - n1 - n2 * c) ** 2 + (x2 - n2 * h) ** 2

    anchor2 = round(x2 / h)
    anchor1 = round(x1 - anchor2 * c)
    # A float square root, widened past its rounding, is a safe upper bound on r.
    r = Fraction(math.sqrt(float(dist2(anchor1, anchor2)))) * (1 + Fraction(1, 2**40)) + Fraction(
        1, 2**60
    )
    best = None
    for n2 in range(math.floor((x2 - r) / h), math.ceil((x2 + r) / h) + 1):
        row = x1 - n2 * c
        for n1 in range(math.floor(row - r), math.ceil(row + r) + 1):
            key = (dist2(n1, n2), n1, n2)
            if best is None or key < best:
                best = key
    return best[0], (best[1], best[2])


def fraction_bits(x: float | Fraction, n: int) -> list[int]:
    """First n binary-expansion bits of x in (0,1), by exact integer arithmetic.

    Dyadic rationals get the terminating expansion (trailing zeros).
    """
    frac = Fraction(x)
    if not 0 < frac < 1:
        raise ValueError("x must lie in (0, 1)")
    return [(frac.numerator << k) // frac.denominator & 1 for k in range(1, n + 1)]


def first_differ_round(x1: float, x2: float, cap: int) -> int | None:
    """Round index of the first differing bit pair, or None within the cap."""
    b1 = fraction_bits(x1, cap)
    b2 = fraction_bits(x2, cap)
    for k, (a, b) in enumerate(zip(b1, b2), start=1):
        if a != b:
            return k
    return None


def doubling_stopping_rounds(u1: np.ndarray, u2: np.ndarray, cap: int = 60) -> np.ndarray:
    """Bit-exchange round counts by repeated doubling, capped at ``cap`` rounds.

    Each pass peels the next binary digit off both values (doubling a float in
    [0, 1] and subtracting 1 are exact), counts a round, and retires the pairs
    whose digits differ.  The value 1.0 keeps producing one-bits.
    """
    u1 = np.array(u1, dtype=np.float64)
    u2 = np.array(u2, dtype=np.float64)
    rounds = np.zeros(u1.shape, dtype=np.int64)
    active = np.ones(u1.shape, dtype=bool)
    for _ in range(cap):
        if not active.any():
            break
        rounds[active] += 1
        b1 = u1[active] >= 0.5
        b2 = u2[active] >= 0.5
        u1[active] = np.where(b1, 2.0 * u1[active] - 1.0, 2.0 * u1[active])
        u2[active] = np.where(b2, 2.0 * u2[active] - 1.0, 2.0 * u2[active])
        still = np.zeros(u1.shape, dtype=bool)
        still[active] = b1 == b2
        active = still
    return rounds


def walk_totals(tree: ProtocolTree, pairs: np.ndarray) -> tuple[float, int]:
    """Total bits and rounds over the pairs, walking the lazy tree pair by pair.

    Every message over k symbols adds log2(k) bits; a round is a pair of
    messages, the last one possibly unanswered.
    """
    messages: dict[int, int] = {}  # alphabet size -> messages sent over it
    total_rounds = 0
    for x1, x2 in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()):
        node = tree.root
        t = 0
        while type(node) is not _Leaf:
            x = x1 if node.speaker == 1 else x2
            k = len(node.bounds) - 1
            messages[k] = messages.get(k, 0) + 1
            t += 1
            node = tree.child(node, bisect_right(node.bounds, x) - 1)
        total_rounds += (t + 1) // 2
    return math.fsum(n * math.log2(k) for k, n in messages.items()), total_rounds


def round_count_by_doubling(sub, samples: int, seed: int) -> float:
    """Mean round count of the two-round lattice refinement, by the doubling oracle.

    Draws the documented stream: chunks of 2^16 uniform pairs (u1, u2), chunk
    j from the j-th child that ``SeedSequence(seed).spawn`` gives, mapped onto
    the Babai cell.  Every point in a crossed cell adds the bit-exchange rounds
    of its cell-normalized coordinates to the first round.
    """
    n_chunks = -(-samples // 2**16)
    pairs = np.concatenate([
        np.random.default_rng(child).random((min(2**16, samples - j * 2**16), 2))
        for j, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks))
    ])
    cx_lo, cx_hi, cy_lo, cy_hi = sub.babai_cell
    xs = pairs[:, 0] * (cx_hi - cx_lo) + cx_lo
    ys = pairs[:, 1] * (cy_hi - cy_lo) + cy_lo
    rounds = np.ones(samples, dtype=np.int64)
    for sc in sub.cells:
        if sc.error_free:
            continue
        x_lo, x_hi, y_lo, y_hi = sc.rect
        inside = (xs >= x_lo) & (xs < x_hi) & (ys >= y_lo) & (ys < y_hi)
        u1 = (xs[inside] - x_lo) / (x_hi - x_lo)
        u2 = (ys[inside] - y_lo) / (y_hi - y_lo)
        rounds[inside] += doubling_stopping_rounds(u1, u2, 60)
    return float(rounds.sum()) / samples


# The four corner neighbors of the origin whose Voronoi bisectors cross the
# Babai cell, as coefficient pairs: (c, h), (c-1, h), (-c, -h), (1-c, -h).
CORNER_NEIGHBORS = ((0, 1), (-1, 1), (0, -1), (1, -1))


def voronoi_segment_boxes(c: Fraction, h: Fraction) -> list[tuple[tuple, tuple[int, int]]]:
    """Bounding box of each Voronoi boundary segment inside the Babai cell, exactly.

    For the lattice spanned by (1, 0) and (c, h) inside the corner-cut domain
    (0 < c < 1, c^2 + h^2 > c), the bisector z.p = |p|^2 / 2 of each corner
    neighbor p = (px, py), py = +-h, meets the horizontal edge
    y = sign(py) h/2 at x = px/2 and the vertical edge x = sign(px)/2 at
    y = (px^2 + h^2 - |px|) / (2 py).  The segment between the two points is
    a diagonal of the returned Fraction row (x_lo, x_hi, y_lo, y_hi), listed
    with the neighbor's coefficients.
    """
    boxes = []
    for n1, n2 in CORNER_NEIGHBORS:
        px, py = n1 + n2 * c, n2 * h
        sx = 1 if px > 0 else -1
        y_side = (px * px + h * h - sx * px) / (2 * py)
        xs = sorted((px / 2, Fraction(sx, 2)))
        ys = sorted((y_side, n2 * h / 2))
        boxes.append(((*xs, *ys), (n1, n2)))
    return boxes


def box_masses_by_fractions(c, h) -> list[Fraction]:
    """P(X in B_i) for X uniform on the Babai cell [-1/2, 1/2] x [-h/2, h/2].

    Exact for rational c and h; a float is read as the rational it holds.
    """
    c, h = Fraction(c), Fraction(h)
    return [(x_hi - x_lo) * (y_hi - y_lo) / h for (x_lo, x_hi, y_lo, y_hi), _ in
            voronoi_segment_boxes(c, h)]


def lattice_lower_bound(lat: Lattice2D) -> float:
    """LB = 4 * sum_i P(B_i) + I(f(X); Z), a lower bound on any zero-error rate.

    Let X be uniform on the Babai cell of the origin, f(X) its nearest lattice
    point and Pi the transcript of any zero-error two-party protocol that
    computes f.  Let B_1..B_4 be the bounding boxes of the four Voronoi
    boundary segments inside the cell (:func:`voronoi_segment_boxes`), and Z
    the index of the box holding X, or 0 outside them.

    * Each segment is a diagonal of its box, and inside the box only the
      origin and the one neighbor across the segment are nearest: the box
      lies in the union of their two Voronoi cells.  Outside the boxes the
      origin is nearest.  The tests check both with exact nearest points on
      seeded points.
    * Given X in B_i, the two coordinates are still independent and uniform,
      so Pi restricted to B_i is a zero-error code for an affine image of the
      ordering problem (the side of a diagonal), and H(Pi | Z = i) >= 4 by
      the 4-bit converse.  H(Pi | Z = 0) >= 0.
    * H(Pi) = I(Pi; Z) + H(Pi | Z).  Pi is a function of X and f(X) a function
      of Pi, so data processing gives I(Pi; Z) >= I(f(X); Z).
    * So H(Pi) >= 4 * sum_i P(B_i) + I(f(X); Z).  With b_i = P(B_i) and
      B = sum_i b_i, f(X) is the neighbor with probability b_i / 2 and the
      origin otherwise; H(f | Z = i) is 1 bit in a box and 0 outside, so
      I(f(X); Z) = H(1 - B/2, b_1/2, ..., b_4/2) - B.

    The masses are exact for the float values of c and h, then rounded once.
    Needs 0 < rho*cos(theta) < 1 and rho > cos(theta).
    """
    masses = [float(b) for b in box_masses_by_fractions(lat.c, lat.h)]
    total = math.fsum(masses)
    probs = [1.0 - total / 2.0] + [b / 2.0 for b in masses]
    f_entropy = math.fsum(-p * math.log2(p) for p in probs if p > 0.0)
    return 4.0 * total + f_entropy - total


def rate_by_closed_form(rates) -> float:
    """H(Q) + (1-Q0) H(P) + 4 (1-P0)(1-Q0): the two-round scheme's rate from its messages."""

    def entropy(probs) -> float:
        return math.fsum(-p * math.log2(p) for p in probs if p > 0.0)

    crossed = (1.0 - rates.P0) * (1.0 - rates.Q0)
    return entropy(rates.Q) + (1.0 - rates.Q0) * entropy(rates.P) + 4.0 * crossed


def tree_leaves(tree: ProtocolTree) -> list:
    """Leaves of an eagerly built protocol tree, in message order."""
    stack, leaves = [tree.root], []
    while stack:
        node = stack.pop()
        if type(node) is _Leaf:
            leaves.append(node)
        else:
            stack.extend(reversed(node.children))
    return leaves


def decode_refinement(sub, x) -> tuple[int, int]:
    """Lattice point the refinement scheme decodes for x, as coefficients.

    The scheme locates the cell holding x (half-open rows).  An error-free
    cell decodes the origin.  A crossed cell runs the ordering problem on the
    cell-normalized coordinates (u1, u2), reflected so that the neighbor's
    corner is (1, 1): it decodes the neighbor when v1 + v2 > 1, that is, on the
    far side of the cell's diagonal, the premise of the 4 bits it is charged.
    """
    x1, x2 = x
    for sc in sub.cells:
        x_lo, x_hi, y_lo, y_hi = sc.rect
        if not (x_lo <= x1 < x_hi and y_lo <= x2 < y_hi):
            continue
        if sc.error_free:
            return (0, 0)
        n1, n2 = sc.neighbor
        u1, u2 = (x1 - x_lo) / (x_hi - x_lo), (x2 - y_lo) / (y_hi - y_lo)
        v1 = u1 if n1 + n2 * sub.lattice.c > 0 else 1.0 - u1
        v2 = u2 if n2 > 0 else 1.0 - u2
        return sc.neighbor if v1 + v2 > 1.0 else (0, 0)
    raise ValueError(f"{x!r} lies outside the Babai cell")


def _clipped_area(rect, half_planes) -> Fraction:
    """Exact area of the rectangle ``rect`` cut by half-planes a x + b y <= d."""
    x_lo, x_hi, y_lo, y_hi = rect
    poly = [(x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)]
    for a, b, d in half_planes:
        out = []
        for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]):
            sp, sq = a * px + b * py - d, a * qx + b * qy - d
            if sp <= 0:
                out.append((px, py))
            if (sp < 0 < sq) or (sq < 0 < sp):
                t = sp / (sp - sq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        poly = out
        if not poly:
            return Fraction(0)
    return abs(sum(px * qy - qx * py for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]))) / 2


def mis_decoded_mass_by_fractions(sub) -> Fraction:
    """Probability that :func:`decode_refinement` returns a point that is not nearest.

    Exact arithmetic on the float rows of the crossed cells and the float
    values of c and h.  In a crossed cell with neighbor p the nearest point
    is p beyond the bisector z.p = |p|^2 / 2, and the decoder answers p
    beyond the cell's diagonal; the mass is the area on which the two sides
    differ, over the Babai cell's area h.
    """
    c, h = Fraction(sub.lattice.c), Fraction(sub.lattice.h)
    total = Fraction(0)
    for sc in sub.cells:
        if sc.error_free:
            continue
        rect = tuple(map(Fraction, sc.rect))
        x_lo, x_hi, y_lo, y_hi = rect
        n1, n2 = sc.neighbor
        px, py = n1 + n2 * c, n2 * h
        a, b = (1 if px > 0 else -1) / (x_hi - x_lo), n2 / (y_hi - y_lo)
        # The far sides, as a x + b y <= d, and their complements.
        truth = (-px, -py, -(px * px + py * py) / 2)
        diagonal = (-a, -b, -(a * (x_lo + x_hi) + b * (y_lo + y_hi)) / 2)
        near_truth, near_diagonal = (tuple(-v for v in hp) for hp in (truth, diagonal))
        total += _clipped_area(rect, [truth, near_diagonal])
        total += _clipped_area(rect, [diagonal, near_truth])
    return total / h


def closed_form_truncated_bits(d: int) -> float:
    """Expected transcript entropy of depth-d bit exchange: decided levels plus tail."""
    return math.fsum(2.0**-k * 2 * k for k in range(1, d + 1)) + 2.0**-d * 2 * d


def staircase_bounds_by_subsets(part: LabeledPartition) -> bool:
    """Staircase constraints over every subset, in exact Fraction arithmetic.

    Every m p-cell probabilities (likewise q) must sum to at most
    Fraction(m, 2(m+1)).  Without residual cells both sides must carry exactly
    1/2; with residual cells they must carry equal mass.
    """
    sides = [[Fraction(p) for p in part.p_probs()], [Fraction(q) for q in part.q_probs()]]
    for probs in sides:
        for m in range(1, len(probs) + 1):
            bound = Fraction(m, 2 * (m + 1))
            if any(sum(subset) > bound for subset in itertools.combinations(probs, m)):
                return False
    sp, sq = (sum(probs) for probs in sides)
    if len(part.residual):
        return sp == sq
    return sp == sq == Fraction(1, 2)


def tiling_error_by_sweep(rows) -> str | None:
    """Why the cells fail to partition the unit square, or None if they do.

    ``rows`` are cells (x_lo, x_hi, y_lo, y_hi).  Returns "unit square" for a
    cell that is not a nonempty rectangle inside [0, 1]^2, "area" when the
    areas, summed exactly over the largest denominator, differ from 1, and
    "overlap" when an x-sorted sweep finds two cells whose open interiors
    meet.  The three tests run in that order, pairwise and cell by cell.
    """
    rows = [tuple(r) for r in rows]
    for x_lo, x_hi, y_lo, y_hi in rows:
        if not (0.0 <= x_lo < x_hi <= 1.0 and 0.0 <= y_lo < y_hi <= 1.0):
            return "unit square"
    ratios = {v: v.as_integer_ratio() for v in {v for r in rows for v in r}}
    den = max(d for _, d in ratios.values())
    s = {v: n * (den // d) for v, (n, d) in ratios.items()}
    area = sum((s[x_hi] - s[x_lo]) * (s[y_hi] - s[y_lo]) for x_lo, x_hi, y_lo, y_hi in rows)
    if area != den * den:
        return "area"
    # The active set holds the cells whose x-range contains the current x_lo.
    active: list[tuple] = []
    for r in sorted(rows):
        active = [a for a in active if a[1] > r[0]]
        for a in active:
            if min(r[1], a[1]) > max(r[0], a[0]) and min(r[3], a[3]) > max(r[2], a[2]):
                return "overlap"
        active.append(r)
    return None


def zero_error_by_cells(part: LabeledPartition, f: TargetFunction) -> bool:
    """Whether every labeled cell lies in its level set of f, one cell at a time."""
    for (x_lo, x_hi, y_lo, y_hi), lbl in zip(part.cells.tolist(), part.labels.tolist()):
        if f is TargetFunction.MIN_INDICATOR:
            ok = y_hi <= x_lo if lbl == "p" else x_hi <= y_lo
        else:
            if lbl == "p":
                ok = x_lo >= 0.5 and y_lo >= 0.5
            else:
                ok = x_hi <= 0.5 or y_hi <= 0.5
        if not ok:
            return False
    return True


def entropy_ratio_by_decimal(v: float) -> float:
    """H([v^2, 2v(1-v), (1-v)^2]) / (2v(1-v)) in bits, from the three cell masses.

    Works in 400-digit decimal arithmetic, in which 1 - v keeps every digit
    of v that matters down to v = 2^-1074.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        x = Decimal(v)
        w = 1 - x
        h = -sum(m * m.ln() for m in (x * x, 2 * x * w, w * w))
        return float(h / (2 * x * w * Decimal(2).ln()))


@lru_cache(maxsize=None)  # several tests share each n
def grid_protocol_min_entropy(
    n: int, target: TargetFunction = TargetFunction.MIN_INDICATOR
) -> tuple[float, tuple[tuple[tuple[float, ...], str], ...]]:
    """Least partition entropy of an interval-message protocol on the n x n grid.

    A grid protocol cuts the current rectangle of grid cells along either
    axis until each piece is decided for ``target``, or is one undecided
    grid cell, which stays residual (label "u").  For the ordering a piece
    is decided when it lies wholly on one side of x1 = x2 (label "p" below
    the diagonal, "q" above); for the quadrant, when it lies wholly inside
    the upper-right quadrant (label "p") or wholly outside it (label "q").
    A leaf of area a costs -a log2 a, so the minimum over all protocols is a
    dynamic program over the sub-rectangles [a, b) x [c, d) of grid indices.
    Returns the minimum and one argmin's cells as
    ((x_lo, x_hi, y_lo, y_hi), label).
    """

    def leaf_label(a: int, b: int, c: int, d: int) -> str | None:
        if target is TargetFunction.MIN_INDICATOR:
            if d <= a:
                return "p"
            if b <= c:
                return "q"
        else:
            if 2 * a >= n and 2 * c >= n:
                return "p"
            if 2 * b <= n or 2 * d <= n:
                return "q"
        if b - a == 1 and d - c == 1:
            return "u"
        return None

    @lru_cache(maxsize=None)
    def best(a: int, b: int, c: int, d: int) -> tuple[float, tuple | None]:
        if leaf_label(a, b, c, d) is not None:
            area = (b - a) * (d - c) / (n * n)
            return -area * math.log2(area), None
        options = [(best(a, k, c, d)[0] + best(k, b, c, d)[0], (0, k)) for k in range(a + 1, b)]
        options += [(best(a, b, c, k)[0] + best(a, b, k, d)[0], (1, k)) for k in range(c + 1, d)]
        return min(options)

    cells = []

    def collect(a: int, b: int, c: int, d: int) -> None:
        cut = best(a, b, c, d)[1]
        if cut is None:
            cells.append(((a / n, b / n, c / n, d / n), leaf_label(a, b, c, d)))
        elif cut[0] == 0:
            collect(a, cut[1], c, d)
            collect(cut[1], b, c, d)
        else:
            collect(a, b, c, cut[1])
            collect(a, b, cut[1], d)

    collect(0, n, 0, n)
    return best(0, n, 0, n)[0], tuple(cells)


def grid_set_protocol_min_entropy(n: int) -> float:
    """:func:`grid_protocol_min_entropy` for the ordering, over set messages.

    Here a message splits the current set of grid indices of either party
    into any two nonempty parts, not just two intervals.  A state is a pair
    of bitmasks (X, Y); it is decided when max(Y) < min(X) ("p") or
    max(X) < min(Y) ("q"), and a single diagonal cell {i} x {i} stays
    residual.  Each split keeps the lowest index of the part being split in
    its first part, so no split is counted twice.
    """

    def splits(mask: int):
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            if sub != rest:
                yield low | sub, rest ^ sub
            if sub == 0:
                return
            sub = (sub - 1) & rest

    @lru_cache(maxsize=None)
    def best(xs: int, ys: int) -> float:
        if (
            ys.bit_length() <= (xs & -xs).bit_length() - 1
            or xs.bit_length() <= (ys & -ys).bit_length() - 1
            or xs == ys and xs & (xs - 1) == 0
        ):
            area = bin(xs).count("1") * bin(ys).count("1") / (n * n)
            return -area * math.log2(area)
        options = [best(a, ys) + best(b, ys) for a, b in splits(xs)]
        options += [best(xs, a) + best(xs, b) for a, b in splits(ys)]
        return min(options)

    full = (1 << n) - 1
    return best(full, full)


def random_superbase_lattice(rng: np.random.Generator) -> Lattice2D:
    """Random lattice in the obtuse-superbase regime.

    With cos(theta) <= rho and rho*cos(theta) <= 1 the relevant Voronoi
    vectors are (1,0), (rho cos, rho sin) and their difference, so the
    original basis needs no reduction and the coefficient window of
    :func:`brute_force_nearest` around the Babai point holds the nearest point.
    """
    while True:
        theta = rng.uniform(0.2, math.pi / 2)
        rho = rng.uniform(math.cos(theta) + 0.05, 3.0)
        if rho * math.cos(theta) <= 0.95:
            return Lattice2D(rho, theta)


def random_corner_cut_lattice(rng: np.random.Generator) -> Lattice2D:
    """Random lattice inside the seven-rectangle topology (0 < rho*cos(theta) < 1)."""
    while True:
        theta = rng.uniform(0.3, math.pi / 2 - 0.05)
        rho = rng.uniform(math.cos(theta) + 0.05, 2.5)
        c = rho * math.cos(theta)
        if 0.02 < c < 0.95:
            return Lattice2D(rho, theta)


def random_zero_error_partition(rng: np.random.Generator, max_depth: int = 4) -> LabeledPartition:
    """Random corner-rectangle partition of the square for the ordering function.

    Each diagonal square gets a p-rectangle and its mirrored q-rectangle at a
    random split point, then recurses with random early stopping.  Leftover
    diagonal squares stay residual, so the result is always a genuine
    zero-error partial partition.
    """
    cells: list[tuple[float, float, float, float]] = []
    residual: list[tuple[float, float, float, float]] = []

    def build(lo: float, hi: float, depth: int) -> None:
        v = float(rng.uniform(0.2, 0.8))
        cut = lo + v * (hi - lo)
        cells.append((cut, hi, lo, cut))
        cells.append((lo, cut, cut, hi))
        for a, b in ((lo, cut), (cut, hi)):
            if depth < max_depth and rng.random() < 0.7:
                build(a, b, depth + 1)
            else:
                residual.append((a, b, a, b))

    build(0.0, 1.0, 1)
    return LabeledPartition(cells, ["p", "q"] * (len(cells) // 2), residual)


def random_majorizing_pair(rng: np.random.Generator, n: int) -> tuple[list[float], list[float]]:
    """(p, q) with p majorizing q: mix q toward a point mass at its largest entry.

    Adding the transferred mass to the largest component keeps the sort order,
    so every descending prefix sum becomes (1-t)*prefix(q) + t >= prefix(q).
    """
    q = rng.random(n) + 1e-3
    q /= q.sum()
    t = float(rng.uniform(0.0, 1.0))
    p = (1.0 - t) * q
    p[int(np.argmax(q))] += t
    return [float(v) for v in p], [float(v) for v in q]
