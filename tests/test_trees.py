import copy
import functools
import gc
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from conftest import left_comb
from thompsonv import trees
from thompsonv.intervals import DyadicInterval
from thompsonv.trees import (
    LEAF,
    ParseError,
    Tree,
    halves,
    leaf_addresses,
    merge_leaves,
    parse_tree,
    random_tree,
    refine,
    right_comb,
    spine_rotations_to_comb,
    split_leaf,
    tree_of,
    tree_text,
)


def test_parse_smallest_trees():
    assert parse_tree(".") is LEAF
    assert parse_tree("(.,.)") is Tree(LEAF, LEAF)
    assert parse_tree("(.,(.,.))") is right_comb(2)


def test_trees_are_interned_and_freed():
    assert Tree() is LEAF
    assert Tree(LEAF, right_comb(1)) is right_comb(2)
    with pytest.raises(ValueError):
        Tree(LEAF)
    with pytest.raises(AttributeError):
        right_comb(1).left = LEAF
    with pytest.raises(AttributeError):
        del right_comb(1).left
    assert right_comb(1).left is LEAF
    assert repr(right_comb(1)) == "parse_tree('(.,.)')"
    shape = parse_tree("((.,.),(.,(.,.)))")
    assert copy.deepcopy(shape) is shape
    assert pickle.loads(pickle.dumps(shape)) is shape
    gc.collect()
    before = len(Tree._nodes)
    t = random_tree(60, random.Random(8))
    assert len(Tree._nodes) > before
    del t
    gc.collect()
    assert len(Tree._nodes) == before


def test_freed_shape_is_interned_again():
    left, right = right_comb(40), left_comb(40)
    text = tree_text(Tree(left, right))
    gc.collect()
    assert (left, right) not in Tree._nodes
    t = parse_tree(text)
    assert Tree._nodes[left, right]() is t
    assert Tree(left, right) is t and tree_text(t) == text


def test_removal_callback_keeps_an_entry_naming_a_live_node():
    t = Tree(right_comb(3), LEAF)
    entry = Tree._nodes[t.left, t.right]
    trees._forget(entry)  # as if a dead node of this shape were freed after t was made
    assert Tree._nodes[t.left, t.right] is entry
    assert Tree(t.left, t.right) is t


def test_threads_building_the_same_trees_get_the_same_nodes():
    def build(out: list) -> None:
        start.wait(timeout=60)
        for seed in range(200):
            rng = random.Random(seed)
            out.append(random_tree(rng.randint(20, 60), rng))

    start = threading.Barrier(4)
    results: list[list[Tree]] = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so creations interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == 200 for out in results)
    for out in results[1:]:
        assert all(a is b for a, b in zip(results[0], out))
    assert all(Tree._nodes[t.left, t.right]() is t for t in results[0])


def test_parse_ignores_whitespace():
    assert parse_tree(" ( . , ( ., .) ) ") == right_comb(2)


@pytest.mark.parametrize("bad,offset", [("", 0), ("(.,.", 4), ("(.,.))", 5), ("(x,.)", 1)])
def test_parse_errors_carry_offset(bad, offset):
    with pytest.raises(ParseError) as err:
        parse_tree(bad)
    assert err.value.offset == offset


def test_parse_print_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        t = random_tree(rng.randint(0, 12), rng)
        assert parse_tree(tree_text(t)) is t
    # deep trees: no recursion
    for t in (right_comb(5000), left_comb(5000)):
        text = tree_text(t)
        assert len(text) == 4 * 5000 + 1
        assert parse_tree(text) is t


def test_right_comb():
    assert right_comb(0) is LEAF
    assert tree_text(right_comb(1)) == "(.,.)"
    assert tree_text(right_comb(3)) == "(.,(.,(.,.)))"
    assert right_comb(3).leaves == 4
    assert right_comb(5).carets == 5


def test_caret_leaf_relation():
    rng = random.Random(2)
    for _ in range(50):
        t = random_tree(rng.randint(0, 15), rng)
        assert t.carets == t.leaves - 1


def intervals_of(t: Tree) -> list[DyadicInterval]:
    """The dyadic intervals of t's leaves, left to right."""
    return [DyadicInterval(num, exp) for num, exp in leaf_addresses(t)]


def test_leaf_intervals_examples():
    assert [str(i) for i in intervals_of(LEAF)] == ["[0,1)"]
    assert [str(i) for i in intervals_of(parse_tree("(.,.)"))] == ["[0,1/2)", "[1/2,1)"]
    assert [str(i) for i in intervals_of(right_comb(2))] == [
        "[0,1/2)",
        "[1/2,3/4)",
        "[3/4,1)",
    ]


def test_leaf_intervals_tile_unit_interval():
    rng = random.Random(3)
    for _ in range(50):
        ivs = intervals_of(random_tree(rng.randint(0, 12), rng))
        assert ivs[0].left == 0
        for a, b in zip(ivs, ivs[1:]):
            assert a.right == b.left
        assert ivs[-1].right == 1


def test_halves_and_tree_of_examples():
    assert halves((0, 1), (1, 1)) == (0, 0)
    assert halves((2, 2), (3, 2)) == (1, 1)
    assert halves((1, 2), (2, 2)) is None  # adjacent, but under different carets
    assert halves((1, 1), (0, 1)) is None
    assert halves((0, 1), (2, 2)) is None
    # ((.,.),(.,.)) has sibling leaves 1, 2 and 3, 4
    t = parse_tree("((.,.),(.,.))")
    a = leaf_addresses(t)
    assert a == [(0, 2), (1, 2), (2, 2), (3, 2)]
    assert [i for i in range(1, len(a)) if halves(a[i - 1], a[i])] == [1, 3]
    assert tree_text(tree_of([(0, 1), (2, 2), (3, 2)])) == "(.,(.,.))"
    assert tree_text(tree_of([(0, 2), (1, 2), (1, 1)])) == "((.,.),.)"
    assert tree_of([(0, 0)]) is LEAF


@pytest.mark.parametrize(
    "addresses",
    [[], [(0, 1)], [(1, 1), (0, 1)], [(0, 1), (2, 2), (2, 2), (3, 2)], [(0, 1), (0, 1)]],
)
def test_tree_of_rejects_non_tilings(addresses):
    with pytest.raises(ValueError):
        tree_of(addresses)


def test_tree_of_inverts_leaf_addresses():
    rng = random.Random(4)
    for _ in range(100):
        t = random_tree(rng.randint(0, 30), rng)
        assert tree_of(leaf_addresses(t)) is t
    # deep trees: no recursion
    for t in (right_comb(5000), left_comb(5000)):
        a = leaf_addresses(t)
        assert len(a) == 5001
        assert tree_of(a) is t


def span(address: tuple[int, int]) -> tuple[Fraction, Fraction]:
    num, exp = address
    return Fraction(num, 1 << exp), Fraction(num + 1, 1 << exp)


def test_split_leaf_and_merge_leaves():
    rng = random.Random(47)
    for t in [random_tree(rng.randint(0, 30), rng) for _ in range(100)] + [right_comb(5000)]:
        addresses = leaf_addresses(t)
        for i in sorted({1, t.leaves, rng.randint(1, t.leaves)}):
            (num, exp) = addresses[i - 1]
            split = split_leaf(t, i)
            halves_of_i = [(2 * num, exp + 1), (2 * num + 1, exp + 1)]
            assert leaf_addresses(split) == addresses[: i - 1] + halves_of_i + addresses[i:]
            assert merge_leaves(split, i) is t
        for i in range(min(t.leaves, 40) + 1):
            siblings = 1 <= i < t.leaves and halves(addresses[i - 1], addresses[i])
            merged = merge_leaves(t, i)
            assert (merged is not None) == bool(siblings)
            if merged is not None:
                assert split_leaf(merged, i) is t


def test_refine_is_upper_bound():
    rng = random.Random(5)
    for _ in range(100):
        a = leaf_addresses(random_tree(rng.randint(0, 8), rng))
        b = leaf_addresses(random_tree(rng.randint(0, 8), rng))
        r = refine(a, b)
        assert [c for c, _, _ in refine(a, a)] == a
        # the output tiles [0, 1) left to right, and each piece is one of the inputs
        assert span(r[0][0])[0] == 0 and span(r[-1][0])[1] == 1
        for (c, _, _), (d, _, _) in zip(r, r[1:]):
            assert span(c)[1] == span(d)[0]
        assert all(c in (a[i], b[j]) for c, i, j in r)
        # each input interval is the union of a contiguous run of output intervals
        for side, tiling in ((1, a), (2, b)):
            indices = [piece[side] for piece in r]
            assert indices == sorted(indices)
            assert sorted(set(indices)) == list(range(len(tiling)))
            for k, interval in enumerate(tiling):
                run = [piece[0] for piece in r if piece[side] == k]
                assert span(run[0])[0] == span(interval)[0]
                assert span(run[-1])[1] == span(interval)[1]


def test_spine_rotations_reach_comb():
    rng = random.Random(6)
    for _ in range(300):
        t = random_tree(rng.randint(0, 40), rng)
        ks = spine_rotations_to_comb(t)
        # replay the schedule rotation by rotation
        cur = t
        for k in ks:
            node_path = []
            s = cur
            for _ in range(k):
                node_path.append(s)
                s = s.right
            assert s.left is not LEAF
            s = Tree(s.left.left, Tree(s.left.right, s.right))
            for node in reversed(node_path):
                s = Tree(node.left, s)
            cur = s
        assert cur == right_comb(t.carets)
        assert ks == sorted(ks)  # non-decreasing depths keep words short


def test_random_tree_hits_every_shape():
    rng = random.Random(7)
    seen = {tree_text(random_tree(3, rng)) for _ in range(500)}
    assert len(seen) == 5  # the Catalan number C(3)


@functools.lru_cache(maxsize=None)
def _cached_catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _reference_random_tree(carets: int, rng: random.Random) -> Tree:
    """The recursive sampler with a left-to-right split search: the reference."""
    if carets == 0:
        return LEAF
    r = rng.randrange(_cached_catalan(carets))
    acc = 0
    for k in range(carets):
        acc += _cached_catalan(k) * _cached_catalan(carets - 1 - k)
        if r < acc:
            return Tree(_reference_random_tree(k, rng), _reference_random_tree(carets - 1 - k, rng))
    raise AssertionError("catalan weights do not sum")


def test_random_tree_matches_reference_sampler():
    # Same draws, same trees: the split searched from either end is the same split.
    for n in [*range(61), 1000]:
        for seed in range(3 if n == 1000 else 10):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert random_tree(n, rng) is _reference_random_tree(n, ref_rng), (n, seed)
            assert rng.random() == ref_rng.random()


def test_random_tree_large_input():
    # Large legal input: each split is searched from the nearer end, and no
    # recursion limit bounds the depth of the tree.
    t = random_tree(10_000, random.Random(3))
    assert t.carets == 10_000
    with pytest.raises(ValueError):
        random_tree(-1, random.Random(3))
