import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latcomm import (
    TargetFunction,
    Transcript,
    bit_exchange_protocol,
    induced_partition,
    is_zero_error,
    make_leaf,
    make_node,
    monte_carlo,
    one_round_quadrant_protocol,
    partition_entropy,
    run_protocol,
    sample_inputs,
    sum_rate,
)
from latcomm.protocol_engine import ProtocolTree, _stopping_rounds

from oracles import (
    closed_form_truncated_bits,
    doubling_stopping_rounds,
    first_differ_round,
    rate_matches_partition_entropy,
    trivial_protocol,
    walk_totals,
)

unit_floats = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def test_run_examples():
    tree = bit_exchange_protocol(30)
    t = run_protocol(tree, 0.25, 0.75)
    assert t.stopping_time == 2 and t.output == 0
    t = run_protocol(tree, 0.1, 0.2)
    assert t.stopping_time == 6 and t.output == 0
    # expansions 0.1001100..., 0.1000110...: first differing bit pair is the
    # fourth, so eight messages are exchanged
    t = run_protocol(tree, 0.6, 0.55)
    assert t.stopping_time == 8 and t.output == 1
    assert first_differ_round(0.6, 0.55, 30) == 4


def test_equal_inputs_stay_undecided():
    tree = bit_exchange_protocol(8)
    t = run_protocol(tree, 0.3, 0.3)
    assert t.output is None
    assert t.stopping_time == 16


def test_run_validates_inputs():
    # The root rectangle is half-open, like every message interval.
    tree = bit_exchange_protocol(2)
    for bad in ((0.5, 1.0), (-0.1, 0.5), (0.5, 1.5), (-5e-324, 0.5)):
        with pytest.raises(ValueError, match=r"inputs must lie in \[0\.0, 1\.0\) x \[0\.0, 1\.0\)"):
            run_protocol(tree, *bad)
    assert run_protocol(tree, 0.0, 0.5) == Transcript((0, 1), 0)
    assert run_protocol(tree, 0.0, 0.0) == Transcript((0, 0, 0, 0), None)


@settings(max_examples=300, deadline=None)
@given(unit_floats, unit_floats)
def test_run_matches_bit_expansion_oracle(x1, x2):
    depth = 24
    tree = bit_exchange_protocol(depth)
    t = run_protocol(tree, x1, x2)
    k = first_differ_round(x1, x2, depth)
    if k is None:
        assert t.output is None
        assert t.stopping_time == 2 * depth
    else:
        assert t.stopping_time == 2 * k
        assert t.output == (1 if x1 > x2 else 0)


def test_first_bits_differ_means_two_messages():
    tree = bit_exchange_protocol(4)
    for x1, x2 in ((0.1, 0.9), (0.75, 0.25), (0.499, 0.501)):
        assert run_protocol(tree, x1, x2).stopping_time == 2


def test_induced_partition_depth1():
    part = induced_partition(bit_exchange_protocol(1))
    decided = sorted(zip(part.cells.tolist(), part.labels.tolist()))
    assert decided == [
        ([0.0, 0.5, 0.5, 1.0], "q"),
        ([0.5, 1.0, 0.0, 0.5], "p"),
    ]
    assert sorted(part.residual.tolist()) == [
        [0.0, 0.5, 0.0, 0.5],
        [0.5, 1.0, 0.5, 1.0],
    ]
    assert partition_entropy(part) == 2.0


def test_induced_partition_depth2():
    part = induced_partition(bit_exchange_protocol(2))
    assert len(part.cells) == 6
    assert len(part.residual) == 4
    assert partition_entropy(part) == 3.0


def test_trivial_tree():
    part = induced_partition(trivial_protocol())
    assert len(part.cells) == 0 and len(part.residual) == 1
    assert partition_entropy(part) == 0.0
    assert sum_rate(trivial_protocol()) == 0.0
    assert rate_matches_partition_entropy(trivial_protocol())


def test_leaf_level_probabilities():
    # 2^k decided leaves of probability 4^-k at round k;
    # 2^d undecided leaves of probability 4^-d at the cap.
    d = 6
    part = induced_partition(bit_exchange_protocol(d))
    areas = part.all_probs()
    decided, undecided = areas[:len(part.cells)], areas[len(part.cells):]
    for k in range(1, d + 1):
        decided_k = [a for a in decided if abs(a - 4.0**-k) < 1e-15]
        assert len(decided_k) == 2**k
    assert all(abs(a - 4.0**-d) < 1e-15 for a in undecided)
    assert len(part.residual) == 2**d


def test_decided_leaves_are_zero_error():
    for d in (1, 3, 6):
        part = induced_partition(bit_exchange_protocol(d))
        assert is_zero_error(part, TargetFunction.MIN_INDICATOR)


@pytest.mark.parametrize("d", range(1, 13))
def test_sum_rate_closed_form(d):
    tree = bit_exchange_protocol(d)
    assert abs(sum_rate(tree) - closed_form_truncated_bits(d)) < 1e-12


def test_sum_rate_values_and_convergence():
    assert sum_rate(bit_exchange_protocol(1)) == 2.0
    assert sum_rate(bit_exchange_protocol(2)) == 3.0
    rates = [sum_rate(bit_exchange_protocol(d)) for d in range(1, 16)]
    for d, (a, b) in enumerate(zip(rates, rates[1:]), start=1):
        assert b >= a
        assert b - a <= 2.0**-d * (2 * d + 2) + 1e-15
    assert abs(sum_rate(bit_exchange_protocol(30)) - 4.0) < 1e-7


def test_sum_rate_bit_exchange_exact_identity():
    # Leaf probabilities are powers of two, so each term -count*p*log2(p) is
    # exact, and fsum rounds their exact total, itself a double, to itself.
    for d in range(1, 51):
        assert sum_rate(bit_exchange_protocol(d)) == 4 - 2 ** (2 - d), d


@pytest.mark.parametrize("d", range(1, 13))
def test_rate_identity_bit_exchange(d):
    assert rate_matches_partition_entropy(bit_exchange_protocol(d))


def test_rate_identity_quadrant():
    tree = one_round_quadrant_protocol()
    assert sum_rate(tree) == 1.5
    part = induced_partition(tree)
    assert sorted(part.all_probs()) == [0.25, 0.25, 0.5]
    assert is_zero_error(part, TargetFunction.QUADRANT)
    assert rate_matches_partition_entropy(tree)


def test_markov_structure_messages_depend_only_on_own_input():
    tree = bit_exchange_protocol(16)
    rng = np.random.default_rng(13)
    for _ in range(100):
        x1, x2 = rng.random(2)
        t = run_protocol(tree, x1, x2)
        # replay against a fresh input from the same admissible leaf interval
        node = tree.root
        for msg in t.messages:
            node = tree.child(node, msg)
        lo, hi = node.i2
        x2_alt = lo + (hi - lo) * 0.37
        if not 0.0 < x2_alt < 1.0:
            continue
        t_alt = run_protocol(tree, x1, x2_alt)
        assert t_alt.messages == t.messages
        assert t_alt.messages[0::2] == t.messages[0::2]


def test_speaker_alternation_enforced():
    unit = (0.0, 1.0)
    inner = make_node(1, unit, unit, (0.0, 0.5, 1.0),
                      [make_leaf(0, (0.0, 0.5), unit), make_leaf(1, (0.5, 1.0), unit)])
    with pytest.raises(ValueError, match="alternate"):
        make_node(1, unit, unit, (0.0, 0.5, 1.0), [inner, make_leaf(1, (0.5, 1.0), unit)])


def test_message_map_must_partition_interval():
    unit = (0.0, 1.0)
    with pytest.raises(ValueError, match="partition"):
        make_node(1, unit, unit, (0.0, 0.5, 0.9), [make_leaf(0, unit, unit)] * 2)
    with pytest.raises(ValueError, match="partition"):
        make_node(1, unit, unit, (0.0, 0.5, math.nan), [make_leaf(0, unit, unit)] * 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        make_node(1, unit, unit, (0.0, math.nan, 1.0), [make_leaf(0, unit, unit)] * 2)


def test_ternary_alphabet_protocol():
    # one 3-way message: sum rate is log2(3)
    unit = (0.0, 1.0)
    thirds = (0.0, 1 / 3, 2 / 3, 1.0)
    children = [make_leaf(i % 2, (thirds[i], thirds[i + 1]), unit) for i in range(3)]
    tree = ProtocolTree(make_node(1, unit, unit, thirds, children), 1)
    assert abs(sum_rate(tree) - math.log2(3)) < 1e-12
    t = run_protocol(tree, 0.5, 0.5)
    assert t.messages == (1,) and t.stopping_time == 1


def _walked_means(tree, samples, seed):
    bits = rounds = 0
    for pairs in sample_inputs(seed, samples):
        b, r = walk_totals(tree, pairs)
        bits += b
        rounds += r
    return bits / samples, rounds / samples


@pytest.mark.parametrize("depth", [1, 4, 5, 6, 7, 8, 30, 50])
@pytest.mark.parametrize("seed, samples", [(0x5EED, 70_000), (7, 1_000), (2**31 - 1, 65_536)])
def test_monte_carlo_kernel_matches_tree_walk(depth, seed, samples):
    tree = bit_exchange_protocol(depth)
    assert monte_carlo(depth, samples, seed) == _walked_means(tree, samples, seed)


def test_monte_carlo_deterministic_reference_value():
    assert monte_carlo(30, 10**6, seed=24301) == (3.996896, 1.998448)
    assert monte_carlo(30, 150_000, seed=0x5EED) == monte_carlo(30, 150_000, seed=0x5EED)
    assert monte_carlo(30, 150_000, seed=7) != monte_carlo(30, 150_000, seed=0x5EED)


_EDGES = [1.0, 0.0, 1.0 - 2.0**-53, 2.0**-61, 2.0**-70, 0.5, 0.25 + 2.0**-54, 1.0 / 3.0]


@pytest.mark.parametrize("cap", [1, 4, 30, 50, 53, 54, 60, 63])
def test_stopping_rounds_matches_doubling_oracle_on_edges(cap):
    rng = np.random.default_rng(cap)
    u1 = [a for a in _EDGES for _ in _EDGES]
    u2 = [b for _ in _EDGES for b in _EDGES]
    # pairs 2^-55 apart: on [1/8, 1/4) the spacing of doubles is exactly 2^-55
    near = rng.uniform(0.125, 0.25, 200)
    u1 += near.tolist()
    u2 += (near + 2.0**-55).tolist()
    # equal pairs and independent uniform pairs
    same = rng.random(100)
    u1 += same.tolist() + rng.random(500).tolist()
    u2 += same.tolist() + rng.random(500).tolist()
    u1, u2 = np.array(u1), np.array(u2)
    assert np.all(near + 2.0**-55 - near == 2.0**-55)
    got = _stopping_rounds(u1, u2, cap)
    assert got.tolist() == doubling_stopping_rounds(u1, u2, cap).tolist()
    assert got.tolist() == _stopping_rounds(u2, u1, cap).tolist()


def test_stopping_rounds_reads_one_as_all_one_bits():
    got = _stopping_rounds(np.array([1.0, 1.0, 1.0]), np.array([1.0 - 2.0**-53, 0.75, 0.5]), 60)
    assert got.tolist() == [54, 3, 2]
    assert _stopping_rounds(np.array([1.0]), np.array([1.0]), 60).tolist() == [60]


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_inputs_rejects_fewer_than_one_sample_at_the_first_draw(samples):
    stream = sample_inputs(7, samples)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        next(stream)


@pytest.mark.parametrize("seed", [0, 7, 2**100 + 3])
def test_sample_inputs_chunks_are_the_spawned_children(seed):
    chunks = list(sample_inputs(seed, 3 * 2**16 - 5))
    assert [len(chunk) for chunk in chunks] == [2**16, 2**16, 2**16 - 5]
    for chunk, child in zip(chunks, np.random.SeedSequence(seed).spawn(3)):
        assert np.array_equal(chunk, np.random.default_rng(child).random((len(chunk), 2)))


def test_sample_inputs_builds_no_seed_list_up_front():
    # 10^5 chunks: spawning every child seed before the first draw takes ~36 MiB.
    tracemalloc.start()
    try:
        first = next(sample_inputs(7, 2**16 * 10**5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.shape == (2**16, 2)
    assert peak < 4 * 2**20


def test_monte_carlo_single_sample_reproducible():
    mean_bits, mean_rounds = monte_carlo(30, 1, seed=42)
    pairs = next(sample_inputs(42, 1))
    t = run_protocol(bit_exchange_protocol(30), pairs[0, 0], pairs[0, 1])
    assert mean_bits == t.stopping_time
    assert mean_rounds == (t.stopping_time + 1) // 2
    assert monte_carlo(30, 1, seed=42) == (mean_bits, mean_rounds)


def test_monte_carlo_matches_expectations():
    mean_bits, mean_rounds = monte_carlo(30, 400_000, seed=0x5EED)
    assert abs(mean_bits - 4.0) < 0.02
    assert abs(mean_rounds - 2.0) < 0.01


def test_monte_carlo_validates_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        monte_carlo(2, 0, seed=1)
    # The depth is checked first.
    with pytest.raises(ValueError, match=r"must be in \[1, 50\]"):
        monte_carlo(0, 0, seed=1)


def test_depth_limits():
    for depth in (0, 51):
        with pytest.raises(ValueError, match=r"must be in \[1, 50\]"):
            bit_exchange_protocol(depth)
    with pytest.raises(ValueError, match="393214 cells"):
        induced_partition(bit_exchange_protocol(17))  # enumeration refused
