import math
import random

import pytest

from thompsonv.trees import (
    LEAF,
    ParseError,
    Tree,
    catalan,
    fringe_subtrees,
    graft_fringe,
    halves,
    leaf_addresses,
    leaf_intervals,
    parse_tree,
    random_tree,
    refine,
    replace_leaf,
    right_comb,
    spine_rotations_to_comb,
    tree_of,
    tree_text,
)


def test_parse_smallest_trees():
    assert parse_tree(".") is LEAF
    assert parse_tree("(.,.)") == Tree(LEAF, LEAF)
    assert parse_tree("(.,(.,.))") == right_comb(2)


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
        assert parse_tree(tree_text(t)) == t


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


def test_leaf_intervals_examples():
    assert [str(i) for i in leaf_intervals(LEAF)] == ["[0,1)"]
    assert [str(i) for i in leaf_intervals(parse_tree("(.,.)"))] == ["[0,1/2)", "[1/2,1)"]
    assert [str(i) for i in leaf_intervals(right_comb(2))] == [
        "[0,1/2)",
        "[1/2,3/4)",
        "[3/4,1)",
    ]


def test_leaf_intervals_tile_unit_interval():
    rng = random.Random(3)
    for _ in range(50):
        ivs = leaf_intervals(random_tree(rng.randint(0, 12), rng))
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
        a = leaf_addresses(t)
        assert leaf_addresses(tree_of(a)) == a
        assert tree_of(a) == t
    # deep trees: no recursion; compare addresses, since Tree.__eq__ recurses
    left_comb = LEAF
    for _ in range(5000):
        left_comb = Tree(left_comb, LEAF)
    for t in (right_comb(5000), left_comb):
        a = leaf_addresses(t)
        assert len(a) == 5001
        assert leaf_addresses(tree_of(a)) == a


def test_replace_leaf_and_fringe():
    comb = right_comb(2)
    sub = parse_tree("((.,.),.)")
    grown = replace_leaf(comb, 2, sub)
    assert fringe_subtrees(comb, grown) == [LEAF, sub, LEAF]
    assert graft_fringe(comb, [LEAF, sub, LEAF]) == grown


def test_refine_is_upper_bound():
    rng = random.Random(5)
    for _ in range(100):
        a = random_tree(rng.randint(0, 8), rng)
        b = random_tree(rng.randint(0, 8), rng)
        r = refine(a, b)
        # refine(a, b) must refine both: fringe extraction succeeds
        fringe_subtrees(a, r)
        fringe_subtrees(b, r)
        assert refine(a, a) == a


def test_spine_rotations_reach_comb():
    rng = random.Random(6)
    for _ in range(100):
        t = random_tree(rng.randint(0, 12), rng)
        ks = spine_rotations_to_comb(t)
        # replay the schedule rotation by rotation
        cur = t
        for k in ks:
            node_path = []
            s = cur
            for _ in range(k):
                node_path.append(s)
                s = s.right
            assert not s.left.is_leaf
            s = Tree(s.left.left, Tree(s.left.right, s.right))
            for node in reversed(node_path):
                s = Tree(node.left, s)
            cur = s
        assert cur == right_comb(t.carets)
        assert ks == sorted(ks)  # non-decreasing depths keep words short


def test_catalan_matches_binomial_formula():
    for n in range(12):
        assert catalan(n) == math.comb(2 * n, n) - math.comb(2 * n, n + 1)


def test_random_tree_hits_every_shape():
    rng = random.Random(7)
    seen = {tree_text(random_tree(3, rng)) for _ in range(500)}
    assert len(seen) == catalan(3) == 5
