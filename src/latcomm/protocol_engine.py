"""Interactive two-party protocols over the open unit square.

A protocol is a finite tree of speaking turns.  Each internal node belongs to
one speaker and partitions that speaker's current admissible interval into
finitely many subintervals (the message alphabet); each child is either
another turn or a leaf that both parties can decide.  Message ``i`` of a node
depends only on the speaker's input and the transcript so far, so the Markov
message structure holds by construction.

Trees are expanded lazily: the classic bit-exchange protocol at depth 30
describes ~10^9 transcripts, but only the nodes actually visited are ever
materialized.  Aggregate quantities (the transcript entropy) are computed by
a recursion that merges structurally identical subtrees via node tags,
so they stay exact and cheap at any depth.

Monte Carlo runs bit exchange only, through one vectorized stopping-time
kernel: a pair's round count is the position of the first bit its two binary
expansions differ in, capped at the depth, and each round is two one-bit
messages.  The lattice round count reuses the same kernel.

All interval endpoints encountered here are dyadic rationals, which binary
floating point represents exactly; interval walks therefore never drift.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .partition_core import LabeledPartition, Rect, check_partition_depth, partition_entropy

__all__ = [
    "Transcript",
    "ProtocolTree",
    "make_leaf",
    "make_node",
    "check_max_depth",
    "bit_exchange_protocol",
    "one_round_quadrant_protocol",
    "trivial_protocol",
    "run_protocol",
    "induced_partition",
    "sum_rate",
    "rate_matches_partition_entropy",
    "monte_carlo",
    "sample_inputs",
]

MAX_TREE_DEPTH = 50
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Transcript:
    """One execution: message symbols and the decided value or None."""

    messages: tuple[int, ...]
    output: Optional[int]

    @property
    def stopping_time(self) -> int:
        """Number of messages sent before the protocol stopped."""
        return len(self.messages)


class _Leaf:
    __slots__ = ("value", "i1", "i2")

    def __init__(self, value: Optional[int], i1: tuple[float, float], i2: tuple[float, float]):
        self.value = value
        self.i1 = i1
        self.i2 = i2


class _Node:
    __slots__ = ("speaker", "i1", "i2", "bounds", "children", "tag")

    def __init__(self, speaker, i1, i2, bounds, children=None, tag=None):
        if speaker not in (1, 2):
            raise ValueError("speaker must be 1 or 2")
        own = i1 if speaker == 1 else i2
        # Written so that a NaN endpoint or cut fails each comparison.
        if bounds[0] != own[0] or bounds[-1] != own[1]:
            raise ValueError("message map must partition the speaker's interval")
        if any(not a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("message cuts must be strictly increasing")
        self.speaker = speaker
        self.i1 = i1
        self.i2 = i2
        self.bounds = bounds
        self.children = children if children is not None else [None] * (len(bounds) - 1)
        self.tag = tag


def make_leaf(value: Optional[int], i1: tuple[float, float], i2: tuple[float, float]) -> _Leaf:
    """Leaf with a decided value (1, 0) or None for undecided."""
    return _Leaf(value, i1, i2)


def make_node(speaker, i1, i2, bounds, children) -> _Node:
    """Eagerly built protocol node; children align with the message intervals."""
    for child in children:
        if isinstance(child, _Node) and child.speaker == speaker:
            raise ValueError("speakers must alternate between consecutive turns")
    return _Node(speaker, i1, i2, tuple(bounds), list(children))


class ProtocolTree:
    """Protocol root plus the expansion rule for lazily built trees."""

    def __init__(self, root, max_depth: int, expander=None):
        if max_depth < 0 or max_depth > MAX_TREE_DEPTH:
            raise ValueError(f"max_depth must be in [0, {MAX_TREE_DEPTH}]")
        self.root = root
        self.max_depth = max_depth
        self._expander = expander

    def child(self, node: _Node, i: int):
        ch = node.children[i]
        if ch is None:
            if not self._expander:
                raise ValueError("node has unexpanded children and no expander")
            ch = self._expander(self, node, i)
            node.children[i] = ch
        return ch


def _interval_split(lo: float, hi: float) -> tuple[float, float, float]:
    return (lo, (lo + hi) / 2.0, hi)


def _bx_expander(tree: ProtocolTree, node: _Node, i: int):
    kind, k = node.tag[0], node.tag[1]
    lo, hi = node.bounds[i], node.bounds[i + 1]
    if kind == "s1":
        # node 1 sent bit i; node 2 answers over its own (unhalved) interval.
        return _Node(
            2,
            (lo, hi),
            node.i2,
            _interval_split(*node.i2),
            tag=("s2", k, i),
        )
    sent = node.tag[2]
    if i != sent:
        return _Leaf(1 if sent > i else 0, node.i1, (lo, hi))
    if k >= tree.max_depth:
        return _Leaf(None, node.i1, (lo, hi))
    return _Node(
        1,
        node.i1,
        (lo, hi),
        _interval_split(*node.i1),
        tag=("s1", k + 1),
    )


def check_max_depth(max_depth: int) -> None:
    """Reject a depth outside [1, MAX_TREE_DEPTH], for bit exchange and self-similar partitions."""
    if not 1 <= max_depth <= MAX_TREE_DEPTH:
        raise ValueError(f"max_depth must be in [1, {MAX_TREE_DEPTH}]")


def bit_exchange_protocol(max_depth: int) -> ProtocolTree:
    """Alternating binary-expansion bits until the bits of a round differ.

    Differing bits at round k order the inputs: the strings share a prefix, so
    whichever party sent the 1 holds the larger value, and both sides stop
    after message 2k.  Equal inputs never separate; the tree caps at
    ``max_depth`` rounds, 1 to ``MAX_TREE_DEPTH``, with undecided leaves beyond.
    """
    check_max_depth(max_depth)
    unit = (0.0, 1.0)
    root = _Node(1, unit, unit, _interval_split(*unit), tag=("s1", 1))
    return ProtocolTree(root, max_depth, expander=_bx_expander)


def one_round_quadrant_protocol() -> ProtocolTree:
    """Three-transcript scheme deciding the upper-right-quadrant indicator.

    Node 1 reports which half holds x1.  The low half settles the function
    with a single message; the high half needs node 2's half as well.
    """
    unit = (0.0, 1.0)
    lo_leaf = make_leaf(0, (0.0, 0.5), unit)
    inner = make_node(
        2,
        (0.5, 1.0),
        unit,
        (0.0, 0.5, 1.0),
        [make_leaf(0, (0.5, 1.0), (0.0, 0.5)), make_leaf(1, (0.5, 1.0), (0.5, 1.0))],
    )
    root = make_node(1, unit, unit, (0.0, 0.5, 1.0), [lo_leaf, inner])
    return ProtocolTree(root, 1)


def trivial_protocol() -> ProtocolTree:
    """Zero-message tree: a single undecided leaf covering the square."""
    unit = (0.0, 1.0)
    return ProtocolTree(make_leaf(None, unit, unit), 0)


def run_protocol(tree: ProtocolTree, x1: float, x2: float) -> Transcript:
    """Deterministic execution on inputs in the open unit interval."""
    if not (0.0 < x1 < 1.0 and 0.0 < x2 < 1.0):
        raise ValueError(f"inputs must lie in (0, 1), got ({x1!r}, {x2!r})")
    node = tree.root
    messages: list[int] = []
    while type(node) is not _Leaf:
        x = x1 if node.speaker == 1 else x2
        i = bisect_right(node.bounds, x) - 1
        messages.append(i)
        node = tree.child(node, i)
    return Transcript(tuple(messages), node.value)


def _iter_leaves(tree: ProtocolTree) -> Iterator[_Leaf]:
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if type(node) is _Leaf:
            yield node
            continue
        for i in reversed(range(len(node.bounds) - 1)):
            stack.append(tree.child(node, i))


def induced_partition(tree: ProtocolTree) -> LabeledPartition:
    """One rectangle per leaf: the product of the two admissible intervals.

    Decided leaves become p/q cells, undecided leaves residual cells.  Leaf
    enumeration is exponential in depth, so trees deeper than
    ``MAX_PARTITION_DEPTH`` rounds are rejected; aggregate quantities of deep
    trees are available through :func:`sum_rate` instead.
    """
    check_partition_depth(tree.max_depth)
    cells: list[tuple[Rect, str]] = []
    residual: list[Rect] = []
    for leaf in _iter_leaves(tree):
        rect = Rect(leaf.i1[0], leaf.i1[1], leaf.i2[0], leaf.i2[1])
        if leaf.value is None:
            residual.append(rect)
        elif leaf.value == 1:
            cells.append((rect, "p"))
        else:
            cells.append((rect, "q"))
    return LabeledPartition(tuple(cells), tuple(residual))


def _leaf_profile(tree: ProtocolTree) -> dict[float, int]:
    """Multiset {leaf probability: count} under uniform independent inputs.

    Recursion over turns; bit-exchange subtrees sharing the first two tag
    fields (turn kind and round) contribute identical conditional profiles
    and are evaluated once.  Untagged nodes are keyed by identity.
    """
    memo: dict[object, dict[float, int]] = {}

    def prof(node) -> dict[float, int]:
        if type(node) is _Leaf:
            return {1.0: 1}
        key = node.tag[:2] if node.tag is not None else id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        bounds = node.bounds
        width = bounds[-1] - bounds[0]
        out: dict[float, int] = {}
        for i in range(len(bounds) - 1):
            w = (bounds[i + 1] - bounds[i]) / width
            for p, count in prof(tree.child(node, i)).items():
                wp = w * p
                out[wp] = out.get(wp, 0) + count
        memo[key] = out
        return out

    return prof(tree.root)


def sum_rate(tree: ProtocolTree) -> float:
    """Entropy in bits of the (transcript, stopping time) pair.

    The stopping time is a function of the transcript, so this equals the
    entropy of the leaf-probability vector.  The depth is the tree's own
    ``max_depth``: its undecided leaves at that depth are part of the vector.
    """
    profile = _leaf_profile(tree)
    return math.fsum(-count * p * math.log2(p) for p, count in profile.items() if p > 0.0)


def rate_matches_partition_entropy(tree: ProtocolTree) -> bool:
    """Sum rate equals the induced-partition entropy, to 1e-12."""
    rate = sum_rate(tree)
    ent = partition_entropy(induced_partition(tree))
    return abs(rate - ent) <= 1e-12


def sample_inputs(seed: int, samples: int) -> Iterator[np.ndarray]:
    """The seeded stream of i.i.d. uniform input pairs, in chunks of 2^16 pairs.

    Chunk j, the last one partial, is drawn from the j-th child seed that
    ``SeedSequence(seed).spawn`` gives, built only when the chunk is drawn.
    The first ``next`` raises ``samples must be >= 1``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    for j, start in enumerate(range(0, samples, _CHUNK)):
        child = np.random.SeedSequence(seed, spawn_key=(j,))
        yield np.random.default_rng(child).random((min(_CHUNK, samples - start), 2))


def _stopping_rounds(u1: np.ndarray, u2: np.ndarray, cap: int) -> np.ndarray:
    """Bit-exchange round count of every pair (u1[i], u2[i]) in [0, 1], capped.

    Round k compares bit k of the two binary expansions, so the count is the
    position of the leading set bit of ``floor(u1 * 2^cap) XOR floor(u2 * 2^cap)``,
    or ``cap`` when the first ``cap`` bits agree.  The count is exact for
    ``cap <= 63``: scaling by a power of two and truncating are exact, and a
    double holds an integer below 2^53 exactly, so frexp's exponent is its bit
    length; a wider XOR is split into its top bits and its lowest ``cap - 53``
    bits.  The value 1.0 is read as all one-bits, as repeated doubling reads it.
    """
    top = np.uint64((1 << cap) - 1)
    a = np.minimum(np.ldexp(u1, cap).astype(np.uint64), top)
    b = np.minimum(np.ldexp(u2, cap).astype(np.uint64), top)
    diff = a ^ b
    low = max(cap - 53, 0)
    _, bit_length = np.frexp((diff >> np.uint64(low)).astype(np.float64))
    if low:
        _, low_length = np.frexp((diff & np.uint64((1 << low) - 1)).astype(np.float64))
        bit_length = np.where(bit_length > 0, bit_length + low, low_length)
    return np.minimum(cap + 1 - bit_length, cap)


def monte_carlo(max_depth: int, samples: int, seed: int) -> tuple[float, float]:
    """Mean bits and mean rounds of depth-capped bit exchange over uniform pairs.

    The pairs come from :func:`sample_inputs`; each pair's round count is its
    first differing bit, capped at ``max_depth``, counted by
    :func:`_stopping_rounds`, and every round is two one-bit messages.  The
    depth is checked before the samples.  Deterministic given the seed.
    """
    check_max_depth(max_depth)
    total = 0
    for pairs in sample_inputs(seed, samples):
        total += int(_stopping_rounds(pairs[:, 0], pairs[:, 1], max_depth).sum())
    return 2 * total / samples, total / samples
