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
from fractions import Fraction

import numpy as np

from latcomm import ConvexPolygon, Lattice2D, LabeledPartition, ProtocolTree, Rect
from latcomm.protocol_engine import _Leaf


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
    cell = sub.babai_cell
    xs = pairs[:, 0] * cell.width + cell.x_lo
    ys = pairs[:, 1] * cell.height + cell.y_lo
    rounds = np.ones(samples, dtype=np.int64)
    for sc in sub.cells:
        if sc.error_free:
            continue
        r = sc.rect
        inside = (xs >= r.x_lo) & (xs < r.x_hi) & (ys >= r.y_lo) & (ys < r.y_hi)
        u1 = (xs[inside] - r.x_lo) / r.width
        u2 = (ys[inside] - r.y_lo) / r.height
        rounds[inside] += doubling_stopping_rounds(u1, u2, 60)
    return float(rounds.sum()) / samples


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
    if part.residual:
        return sp == sq
    return sp == sq == Fraction(1, 2)


def tiling_error_by_sweep(rects) -> str | None:
    """Why the cells fail to partition the unit square, or None if they do.

    Returns "unit square" for a cell outside [0, 1]^2, "area" when the areas,
    summed exactly over the largest denominator, differ from 1, and "overlap"
    when an x-sorted sweep finds two cells whose open interiors meet.  The
    three tests run in that order, pairwise and cell by cell.
    """
    for r in rects:
        if r.x_lo < 0.0 or r.y_lo < 0.0 or r.x_hi > 1.0 or r.y_hi > 1.0:
            return "unit square"
    ratios = {v: v.as_integer_ratio() for v in {v for r in rects for v in r.as_list()}}
    den = max(d for _, d in ratios.values())
    s = {v: n * (den // d) for v, (n, d) in ratios.items()}
    if sum((s[r.x_hi] - s[r.x_lo]) * (s[r.y_hi] - s[r.y_lo]) for r in rects) != den * den:
        return "area"
    # The active set holds the cells whose x-range contains the current x_lo.
    active: list[Rect] = []
    for r in sorted(rects, key=lambda r: r.x_lo):
        active = [a for a in active if a.x_hi > r.x_lo]
        for a in active:
            if min(r.x_hi, a.x_hi) > max(r.x_lo, a.x_lo) and min(r.y_hi, a.y_hi) > max(r.y_lo, a.y_lo):
                return "overlap"
        active.append(r)
    return None


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
    cells: list[tuple[Rect, str]] = []
    residual: list[Rect] = []

    def build(lo: float, hi: float, depth: int) -> None:
        v = float(rng.uniform(0.2, 0.8))
        cut = lo + v * (hi - lo)
        cells.append((Rect(cut, hi, lo, cut), "p"))
        cells.append((Rect(lo, cut, cut, hi), "q"))
        for a, b in ((lo, cut), (cut, hi)):
            if depth < max_depth and rng.random() < 0.7:
                build(a, b, depth + 1)
            else:
                residual.append(Rect(a, b, a, b))

    build(0.0, 1.0, 1)
    return LabeledPartition(tuple(cells), tuple(residual))


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
