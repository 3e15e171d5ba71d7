import copy
import dataclasses
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest

from conftest import (
    expand_randomly,
    left_comb,
    random_element,
    random_raw_element,
    reduce_random_order,
)
from thompsonv import permutations as perms
from thompsonv.elements import Element
from thompsonv.intervals import DyadicInterval, PiecewiseMap, graph_components
from thompsonv.trees import (
    LEAF,
    ParseError,
    Tree,
    leaf_addresses,
    random_tree,
    right_comb,
)

IDENTITY = Element.identity()
SWAP = Element.parse("(.,.)|(.,.)|[2,1]")  # half-interval swap
X0 = Element.parse("(.,(.,.))|((.,.),.)|[1,2,3]")
Y1 = Element.parse("(.,(.,(.,.)))|(.,(.,(.,.)))|[1,3,2,4]")


def test_element_validation():
    with pytest.raises(ValueError):
        Element(LEAF, Tree(LEAF, LEAF), (1,))
    with pytest.raises(ValueError):
        Element(Tree(LEAF, LEAF), Tree(LEAF, LEAF), (1, 1))


def test_parse_and_text_round_trip():
    for text in [
        ".|.|[1]",
        "(.,.)|(.,.)|[2,1]",
        "(.,(.,.))|((.,.),.)|[1,2,3]",
        "(.,(.,(.,.)))|(.,(.,(.,.)))|[1,3,2,4]",
    ]:
        assert Element.parse(text).text() == text
    # whitespace is ignored
    assert Element.parse(" (.,.) | (.,.) | [ 2 , 1 ] ") == SWAP


PREFIX = "(.,.)|(.,.)|"


@pytest.mark.parametrize(
    "text,message,offset",
    [
        (PREFIX + "[2,1", "expected ']', got 'end of input'", 16),
        (PREFIX + "[²,1]", "expected an integer", 13),  # a digit that int() rejects
        (PREFIX + "[2 1]", "expected ']', got '1'", 15),
        (PREFIX + "[]", "expected an integer", 13),
        (PREFIX + "[1_0,1]", "expected ']', got '_'", 14),
        (PREFIX + "[+1,2]", "expected an integer", 13),
        (PREFIX + "[2,1] x", "unexpected trailing 'x'", 18),
        ("(.,.)|(.,.)", "expected '|', got 'end of input'", 11),
        ("((.,.)", "expected ',', got 'end of input'", 6),
        ("(.;.)", "expected ',', got ';'", 2),
        ("( . ,", "expected '.' or '(', got 'end of input'", 5),
    ],
)
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ParseError) as err:
        Element.parse(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


def test_parse_reads_decimal_digits_of_any_script():
    with pytest.raises(ValueError, match=re.escape("(2, 3) is not a bijection of 1..2")):
        Element.parse(PREFIX + "[2,٣]")  # U+0663, Arabic-Indic three


def spaced(text: str) -> str:
    """text with whitespace of several kinds between every two tokens."""
    tokens = re.findall(r"\d+|\S", text)
    gaps = itertools.cycle([" ", "\t", "\n ", "\u3000", "  "])
    return "".join(token + next(gaps) for token in tokens)


def test_parse_skips_whitespace_between_every_token():
    x = random_raw_element(1000, random.Random(5))
    assert Element.parse(spaced(x.text())) == x
    comb = Element(right_comb(5000), left_comb(5000), tuple(range(1, 5002)))
    assert Element.parse(spaced(comb.text())) == comb  # 5000 deep: no recursion


def test_copies_keep_equality_hash_and_interned_trees():
    x = random_raw_element(30, random.Random(6))
    copies = [
        pickle.loads(pickle.dumps(x)),
        copy.copy(x),
        copy.deepcopy(x),
        dataclasses.replace(x),
        dataclasses.replace(x, perm=list(x.perm)),
    ]
    for y in copies:
        assert y == x and hash(y) == hash(x)
        assert y.domain_tree is x.domain_tree and y.range_tree is x.range_tree
        assert y.perm == x.perm and type(y.perm) is tuple


CARET = Tree(LEAF, LEAF)


@pytest.mark.parametrize(
    "domain,range_,perm,message",
    [
        (CARET, CARET, (1, 1), "(1, 1) is not a bijection of 1..2"),
        (CARET, CARET, (1, 2, 3), "leaf counts disagree: domain 2, range 2, permutation degree 3"),
        (CARET, LEAF, (1, 2), "leaf counts disagree: domain 2, range 1, permutation degree 2"),
        (LEAF, LEAF, (), "permutation must have degree at least 1"),
    ],
)
def test_constructor_checks_every_element(domain, range_, perm, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Element(domain, range_, perm)
    x = Element(LEAF, LEAF, [1])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(x, domain_tree=domain, range_tree=range_, perm=perm)


def test_parse_print_round_trip_random():
    rng = random.Random(21)
    for _ in range(200):
        x = random_raw_element(rng.randint(1, 10), rng)
        assert Element.parse(x.text()) == x


def test_reduce_examples():
    unreduced_identity = Element.parse("(.,.)|(.,.)|[1,2]")
    assert unreduced_identity.reduce() == IDENTITY
    assert SWAP.reduce() == SWAP  # images 2,1 are not consecutive
    assert Y1.reduce() == Y1  # only sibling pair is (3,4); images 2,4
    assert IDENTITY.is_reduced()
    for i in (0, 1, 2):  # leaves 1, 2 of SWAP are siblings, but their images are swapped
        with pytest.raises(ValueError):
            SWAP.reduce_step(i)
    with pytest.raises(ValueError):
        IDENTITY.expand_leaf(2)


def test_reduce_is_idempotent():
    rng = random.Random(22)
    for _ in range(200):
        r = random_raw_element(rng.randint(1, 10), rng).reduce()
        assert r.reduce() == r


def test_reduce_confluence_random_orders():
    rng = random.Random(23)
    for _ in range(300):
        x = random_raw_element(rng.randint(1, 9), rng)
        x = expand_randomly(x, rng, rng.randint(0, 4))
        expected = x.reduce()
        for _ in range(4):
            assert reduce_random_order(x, rng) == expected


def test_expand_leaf_inverts_reduction():
    rng = random.Random(24)
    for _ in range(200):
        x = random_raw_element(rng.randint(1, 8), rng)
        i = rng.randint(1, x.n_leaves)
        grown = x.expand_leaf(i)
        assert grown.n_leaves == x.n_leaves + 1
        assert grown.reduce() == x.reduce()


def test_cancel_pair_cancels_exactly_the_reducible_pairs():
    rng = random.Random(25)
    for _ in range(200):
        x = expand_randomly(random_raw_element(rng.randint(1, 8), rng), rng, rng.randint(0, 3))
        pairs = x.reducible_pairs()
        assert [i for i in range(x.n_leaves + 1) if x.cancel_pair(i)] == pairs
        for i in pairs:
            assert x.cancel_pair(i).expand_leaf(i) == x


def test_reduce_deep_diagram():
    # one pass over the leaves with a stack: a 5000-caret comb needs no recursion
    comb = right_comb(5000)
    assert Element(comb, comb, perms.identity_perm(5001)).reduce() == IDENTITY
    swap = Element(comb, comb, perms.adjacent_swap(5001, 5000))
    assert swap.reduce() is swap
    assert swap.caret_count() == 5000


def unreduced_map(x: Element) -> PiecewiseMap:
    """The map read off x's own trees and permutation, with no reduction."""
    sources = [DyadicInterval(num, exp) for num, exp in leaf_addresses(x.domain_tree)]
    targets = [DyadicInterval(num, exp) for num, exp in leaf_addresses(x.range_tree)]
    return PiecewiseMap(tuple((sources[i], targets[v - 1]) for i, v in enumerate(x.perm)))


def test_reduce_and_expand_match_interval_map():
    # independent oracle: the map of the diagram as given, evaluated pointwise
    rng = random.Random(32)
    for max_carets, count in ((6, 150), (40, 40)):
        for _ in range(count):
            x = random_raw_element(rng.randint(1, max_carets), rng)
            x = expand_randomly(x, rng, rng.randint(0, 4))
            expected = unreduced_map(x)
            reduced = x.reduce().interval_map()
            expanded = x.expand_leaf(rng.randint(1, x.n_leaves)).reduce().interval_map()
            for _ in range(6):
                t = Fraction(rng.randrange(0, 1 << 32), 1 << 32)
                assert reduced.apply(t) == expected.apply(t)
                assert expanded.apply(t) == expected.apply(t)


def test_reduce_undoes_fringe_grafts():
    # graft one random subtree of up to 3 carets under every leaf and under its
    # image: subtree leaf (a, k) under leaf (d, e) is leaf ((d << k) + a, e + k)
    rng = random.Random(33)
    for _ in range(6):
        x = Element.random(rng.randint(100, 400), rng).reduce()
        pieces = []
        for (d, e), (m, f) in x._pieces():
            for a, k in leaf_addresses(random_tree(rng.randint(0, 3), rng)):
                pieces.append((((d << k) + a, e + k), ((m << k) + a, f + k)))
        grown = Element._from_pieces(pieces)
        assert grown.n_leaves > x.n_leaves
        assert grown.reduce() == x


def test_multiply_examples():
    assert (X0 * X0.inverse()).equals(IDENTITY)
    assert (SWAP * SWAP).equals(IDENTITY)
    assert (Y1 * Y1).equals(IDENTITY)


def test_multiply_matches_interval_map_composition():
    # independent oracle: compose the right-continuous maps pointwise;
    # PiecewiseMap.apply shares no code with the address arithmetic in *
    rng = random.Random(25)

    def check(a: Element, b: Element) -> None:
        product_map = (a * b).interval_map()
        ma, mb = a.interval_map(), b.interval_map()
        inverse_map = a.inverse().interval_map()
        for _ in range(6):
            t = Fraction(rng.randrange(0, 1 << 32), 1 << 32)
            assert product_map.apply(t) == mb.apply(ma.apply(t))
            assert inverse_map.apply(ma.apply(t)) == t

    for max_carets, count in ((6, 150), (40, 40)):
        for _ in range(count):
            a = random_raw_element(rng.randint(1, max_carets), rng)
            b = random_raw_element(rng.randint(1, max_carets), rng)
            check(a, b)
    # a 2000-caret comb: the product walks no tree recursively
    images = list(range(1, 2002))
    rng.shuffle(images)
    check(Element(right_comb(2000), right_comb(2000), tuple(images)), random_raw_element(2000, rng))


def test_multiply_associative_identity_neutral():
    rng = random.Random(26)
    for _ in range(60):
        a = random_element(rng.randint(1, 5), rng)
        b = random_element(rng.randint(1, 5), rng)
        c = random_element(rng.randint(1, 5), rng)
        assert ((a * b) * c).equals(a * (b * c))
        assert (a * IDENTITY).equals(a)
        assert (IDENTITY * a).equals(a)
        assert (a * a.inverse()).equals(IDENTITY)


def test_invert_examples():
    assert IDENTITY.inverse() == IDENTITY
    assert X0.inverse() == Element(X0.range_tree, X0.domain_tree, (1, 2, 3))
    assert Y1.inverse() == Y1  # transposition on equal trees
    rng = random.Random(27)
    for _ in range(100):
        x = random_element(rng.randint(1, 8), rng)
        assert x.inverse().is_reduced()
        assert x.caret_count() == x.inverse().caret_count()
        assert x.cluster_count() == x.inverse().cluster_count()


def test_power():
    assert (X0 ** 0).equals(IDENTITY)
    assert (X0 ** 3).equals(X0 * X0 * X0)
    assert (X0 ** -2).equals(X0.inverse() * X0.inverse())


def test_equals():
    expanded = IDENTITY.expand_leaf(1).expand_leaf(2)
    assert IDENTITY.equals(expanded)
    x1 = Element.parse("(.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]")
    assert not X0.equals(x1)
    assert (X0 * X0.inverse()).equals(IDENTITY)


def test_caret_count_examples():
    assert IDENTITY.caret_count() == 0
    assert X0.caret_count() == 2
    for n in range(1, 6):
        comb = right_comb(2 * n + 1)
        y = Element(comb, comb, perms.adjacent_swap(2 * n + 2, 2 * n))
        assert y.caret_count() == 2 * n + 1


def test_cluster_count_examples():
    assert IDENTITY.cluster_count() == 1
    assert Y1.cluster_count() == 4
    c = Element.parse("(.,(.,.))|(.,(.,.))|[2,3,1]")
    assert c.cluster_count() == 2


def test_cluster_count_diagram_independent():
    # B and membership in F and T are read off any diagram: expanded random, F and T elements
    # agree with their reduced diagrams
    rng = random.Random(28)
    for _ in range(200):
        x = random_element(rng.randint(1, 9), rng)
        grown = expand_randomly(x, rng, rng.randint(1, 6))
        assert grown.cluster_count() == len(perms.cluster_runs(x.perm)) == x.cluster_count()
        n = rng.randint(1, 8)
        shift = rng.randint(0, n)
        f = Element(random_tree(n, rng), random_tree(n, rng), perms.identity_perm(n + 1))
        cyc = tuple((i + shift) % (n + 1) + 1 for i in range(n + 1))
        t = Element(random_tree(n, rng), random_tree(n, rng), cyc)
        for y in (x, f, t):
            grown, reduced = expand_randomly(y, rng, rng.randint(1, 6)), y.reduce().perm
            assert grown.in_f() == perms.is_identity(reduced)
            assert grown.in_t() == (perms.cyclic_shift(reduced) is not None)
        assert expand_randomly(f, rng, 3).in_f() and expand_randomly(t, rng, 3).in_t()


def test_cluster_bounds():
    rng = random.Random(29)
    assert IDENTITY.cluster_count() == 1
    assert SWAP.cluster_count() == SWAP.caret_count() + 1  # B = N + 1 attained
    for _ in range(200):
        x = random_element(rng.randint(1, 10), rng)
        assert 1 <= x.cluster_count() <= x.caret_count() + 1


def test_interval_map_examples():
    assert str(IDENTITY.interval_map()) == "[0,1) -> [0,1)"
    assert str(SWAP.interval_map()) == "[0,1/2) -> [1/2,1); [1/2,1) -> [0,1/2)"
    assert str(X0.interval_map()) == (
        "[0,1/2) -> [0,1/4); [1/2,3/4) -> [1/4,1/2); [3/4,1) -> [1/2,1)"
    )


def test_graph_components_equals_cluster_count():
    assert graph_components(IDENTITY.interval_map()) == 1
    assert graph_components(Y1.interval_map()) == 4
    rng = random.Random(30)
    for _ in range(200):
        x = random_element(rng.randint(1, 9), rng)
        assert graph_components(x.interval_map()) == x.cluster_count()


def test_membership_examples():
    assert X0.in_f() and X0.in_t()
    c = Element.parse("(.,(.,.))|(.,(.,.))|[2,3,1]")
    assert not c.in_f() and c.in_t()
    assert not Y1.in_f() and not Y1.in_t()


def test_membership_forces_cluster_count():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 8)
        f = Element(random_tree(n, rng), random_tree(n, rng), perms.identity_perm(n + 1))
        assert f.in_f() and f.cluster_count() == 1
        shift = rng.randint(1, n)
        cyc = tuple((i + shift) % (n + 1) + 1 for i in range(n + 1))
        t = Element(random_tree(n, rng), random_tree(n, rng), cyc)
        assert t.in_t()
        if not t.equals(IDENTITY):
            assert t.cluster_count() == 2


def test_seven_leaf_four_cluster_element_exists():
    # 7 leaves (6 carets), 4 clusters
    comb = right_comb(6)
    x = Element(comb, comb, (1, 2, 3, 4, 6, 5, 7))
    assert x.is_reduced()
    assert x.n_leaves == 7
    assert x.caret_count() == 6
    assert x.cluster_count() == 4
