import itertools
import random
from fractions import Fraction

import pytest

from conftest import left_comb, random_element
from thompsonv import permutations as perms
from thompsonv import generators, words
from thompsonv.elements import Element
from thompsonv.generators import (
    GENERATOR_NAMES,
    MOVES,
    GenSymbol,
    evaluate_word,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    power_word,
    standard_generators,
)
from thompsonv.search import exact_word_length
from thompsonv.trees import LEAF, ParseError, Tree, random_tree, right_comb, spine_rotations_to_comb
from thompsonv.words import (
    comb_perm_word,
    f_normal_form_word,
    rotation_element,
    synthesize_word,
    x_word,
)

X0, X1, C, PI = standard_generators()


def test_generator_diagrams():
    assert X0.text() == "(.,(.,.))|((.,.),.)|[1,2,3]"
    assert X1.text() == "(.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]"
    assert C.text() == "(.,(.,.))|(.,(.,.))|[2,3,1]"
    assert PI.text() == "(.,(.,.))|(.,(.,.))|[2,1,3]"
    assert all(g.is_reduced() for g in standard_generators())


def test_generator_orders():
    assert X0.in_f()
    assert (C * C * C).equals(Element.identity())
    assert not (C * C).equals(Element.identity())
    assert (PI * PI).equals(Element.identity())


def test_symbol_elements_distinct_except_pi_involution():
    symbols = [GenSymbol(name, exp) for exp in (1, -1) for name in GENERATOR_NAMES]
    elements = [MOVES[s] for s in symbols]
    coincident = [
        (str(symbols[i]), str(symbols[j]))
        for i in range(len(symbols))
        for j in range(i + 1, len(symbols))
        if elements[i].equals(elements[j])
    ]
    assert coincident == [("pi", "pi^-1")]


def test_word_text_round_trip():
    word = parse_word("x0^-1 x1 pi c^-1")
    assert format_word(word) == "x0^-1 x1 pi c^-1"
    assert parse_word("") == ()
    with pytest.raises(ParseError):
        parse_word("x0 bogus")
    with pytest.raises(ParseError):
        parse_word("x0^2")


def test_free_reduce_and_invert():
    word = parse_word("x0 x0^-1 x1 pi pi^-1 x1^-1 c")
    assert free_reduce(word) == parse_word("c")
    word = parse_word("x0 x1^-1 c")
    assert free_reduce(word + invert_word(word)) == ()


def test_evaluate_word_examples():
    assert evaluate_word(()).equals(Element.identity())
    assert evaluate_word(parse_word("x0 x0^-1")).equals(Element.identity())
    assert evaluate_word(parse_word("x0 x1")).equals(X0 * X1)


def test_evaluate_word_pairwise_equals_left_fold():
    # the rounds of neighbour products give the reduced diagram of the plain left fold
    rng = random.Random(41)
    symbols = list(MOVES)
    for _ in range(300):
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 200)))
        folded = Element.identity()
        for s in word:
            folded = folded * MOVES[s]
        assert evaluate_word(word) == folded


def test_evaluate_long_x0_power():
    # x0^k is the right comb over the left comb; a left fold would re-walk a growing prefix
    expected = Element(right_comb(4001), left_comb(4001), perms.identity_perm(4002))
    assert evaluate_word(power_word("x0", 4000)) == expected


def test_evaluate_word_across_run_boundaries(monkeypatch):
    # runs of local moves, then neighbour products: ceil(L / k) - 1 products for L symbols
    k = generators._RUN
    rng = random.Random(43)
    symbols = list(MOVES)
    general, products = Element.__mul__, 0

    def counted(a, b):
        nonlocal products
        products += 1
        return general(a, b)

    for length in (0, 1, k - 1, k, k + 1, 2 * k, 2 * k + 1):
        word = tuple(rng.choice(symbols) for _ in range(length))
        folded = Element.identity()
        for s in word:
            folded = folded * MOVES[s]
        products = 0
        with monkeypatch.context() as m:
            m.setattr(Element, "__mul__", counted)
            assert evaluate_word(word) == folded
        assert products <= max(-(-length // k) - 1, 0), length


def test_evaluated_synthesized_word_follows_interval_maps():
    # independent semantics: the generators' maps applied symbol by symbol
    x = random_element(64, random.Random(64))
    word = synthesize_word(x)
    e = evaluate_word(word)
    assert e == x
    maps = {s: g.interval_map() for s, g in MOVES.items()}
    points = [Fraction(2 * j + 1, 3 << 8) for j in range(0, 384, 37)]
    images = list(points)
    for s in word:
        images = [maps[s].apply(t) for t in images]
    assert [e.interval_map().apply(t) for t in points] == images


def test_x_words_match_explicit_rotation_diagrams():
    for k in range(6):
        assert evaluate_word(x_word(k)).equals(rotation_element(k))


def test_sort_patterns_are_geodesic():
    patterns = [
        (words._JOIN, "(.,(.,.))|((.,.),.)|[1,2,3]"),
        (words._START_Z, "(.,(.,.))|((.,.),.)|[2,1,3]"),
        (words._TO_Z, "((.,.),(.,.))|(((.,.),.),.)|[1,3,2,4]"),
        (words._TO_O, "((.,.),(.,.))|((.,(.,.)),.)|[1,2,3,4]"),
        (words._LAST_TO_Z, "((.,.),.)|((.,.),.)|[1,3,2]"),
        (words._LAST_TO_O, "((.,.),.)|(.,(.,.))|[1,2,3]"),
        (words._LAST_START_Z, "(.,.)|(.,.)|[2,1]"),
    ]
    for word, text in patterns:
        diagram = Element.parse(text)
        assert evaluate_word(word).equals(diagram), text
        assert len(word) == exact_word_length(diagram, 5).length, text


def test_comb_perm_word_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 8)
        p = list(range(1, n + 1))
        rng.shuffle(p)
        p = tuple(p)
        target = Element(right_comb(n - 1), right_comb(n - 1), p)
        assert evaluate_word(comb_perm_word(p)).equals(target)


def _tree_stack_comb_perm_word(p):
    """Reference: the radix sort with both stacks grown as trees, each pass
    ended by the F word of the diagram (Tree(Z, O), comb, identity)."""
    n = len(p)
    comb = right_comb(n - 1)
    order = list(range(n))
    word = []
    for b in range((n - 1).bit_length()):
        zero = one = None
        for j, i in enumerate(order):
            bit = (p[i] - 1) >> b & 1
            last = j == n - 1
            if j == 0:
                pass
            elif zero is not None and one is not None:
                if bit:
                    word += words._LAST_TO_O if last else words._TO_O
                else:
                    word += words._LAST_TO_Z if last else words._TO_Z
            elif zero is None and not bit:
                word += words._LAST_START_Z if last else words._START_Z
            elif not last:
                word += words._JOIN
            if bit:
                one = LEAF if one is None else Tree(one, LEAF)
            else:
                zero = LEAF if zero is None else Tree(zero, LEAF)
        word += f_normal_form_word(Element(Tree(zero, one), comb, perms.identity_perm(n)))
        order.sort(key=lambda i: (p[i] - 1) >> b & 1)
    return free_reduce(tuple(word))


def test_comb_perm_word_matches_tree_stacks():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert comb_perm_word(p) == _tree_stack_comb_perm_word(p), p
    rng = random.Random(46)
    for _ in range(20):
        p = list(range(1, rng.randint(7, 300) + 1))
        rng.shuffle(p)
        assert comb_perm_word(tuple(p)) == _tree_stack_comb_perm_word(tuple(p)), len(p)


def test_stack_pair_schedule_closed_form():
    """(Z, O) with left combs of z and o leaves rotates z-1 times at depth 0
    and o-2 times at depth z, the schedule comb_perm_word emits."""
    for z in range(1, 65):
        for o in range(1, 65):
            expected = [0] * (z - 1) + [z] * (o - 2)
            assert spine_rotations_to_comb(Tree(left_comb(z - 1), left_comb(o - 1))) == expected, (z, o)


def test_f_normal_form_examples():
    assert f_normal_form_word(Element.identity()) == ()
    assert format_word(f_normal_form_word(X0)) == "x0"
    two = f_normal_form_word(X0 * X0)
    assert len(two) == 2
    assert evaluate_word(two).equals(X0 * X0)
    with pytest.raises(ValueError):
        f_normal_form_word(PI)


def test_f_normal_form_round_trip_and_linear_length():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        f = Element(random_tree(n, rng), random_tree(n, rng), perms.identity_perm(n + 1))
        f = f.reduce()
        word = f_normal_form_word(f)
        assert all(s.name in ("x0", "x1") for s in word)
        assert evaluate_word(word).equals(f)
        assert len(word) <= 6 * max(f.caret_count(), 1)


def _concatenated_f_word(f: Element):
    """Reference: each x_k^{+-1} written out in full, then freely reduced."""
    word = ()
    for k in spine_rotations_to_comb(f.domain_tree):
        word += invert_word(x_word(k))
    for k in reversed(spine_rotations_to_comb(f.range_tree)):
        word += x_word(k)
    return free_reduce(word)


def test_f_normal_form_matches_concatenation():
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randint(1, 40)
        f = Element(random_tree(n, rng), random_tree(n, rng), perms.identity_perm(n + 1))
        f = f.reduce()
        assert f_normal_form_word(f) == _concatenated_f_word(f)
    big = Element(random_tree(850, rng), random_tree(850, rng), perms.identity_perm(851))
    n = big.caret_count()
    assert len(f_normal_form_word(big)) <= 6 * n


def test_synthesize_examples():
    assert synthesize_word(Element.identity()) == ()
    f = (X0 * X1).reduce()
    assert synthesize_word(f) == f_normal_form_word(f)
    y1 = Element.parse("(.,(.,(.,.)))|(.,(.,(.,.)))|[1,3,2,4]")
    assert evaluate_word(synthesize_word(y1)).equals(y1)
    swap = Element.parse("(.,.)|(.,.)|[2,1]")  # one caret, two clusters
    assert evaluate_word(synthesize_word(swap)).equals(swap)


def _all_trees(carets: int) -> list[Tree]:
    if carets == 0:
        return [LEAF]
    return [
        Tree(left, right)
        for k in range(carets)
        for left in _all_trees(k)
        for right in _all_trees(carets - 1 - k)
    ]


def test_synthesize_f_elements_as_f_normal_form():
    """F elements go through the collapse too (B = 1, empty sort word); their
    words must be the F normal form words, for every reduced F element N <= 5."""
    seen = 0
    for n in range(6):
        trees = _all_trees(n)
        for domain, range_ in itertools.product(trees, trees):
            f = Element(domain, range_, perms.identity_perm(n + 1))
            if f.is_reduced():
                seen += 1
                assert synthesize_word(f) == f_normal_form_word(f)
    assert seen == 1055


def _within_cluster_bound(word, x: Element, factor: int) -> bool:
    """|w| <= factor * (N + B log2 B), exactly: 2^|w| <= 2^(factor N) * B^(factor B)."""
    n, b = x.caret_count(), x.cluster_count()
    return 1 << len(word) <= (1 << factor * n) * b ** (factor * b)


def test_synthesize_round_trip_random():
    rng = random.Random(43)
    for _ in range(150):
        x = random_element(rng.randint(1, 8), rng)
        word = synthesize_word(x)
        assert evaluate_word(word).equals(x)
        assert _within_cluster_bound(word, x, 5)


def test_synthesize_sweep_within_cluster_bound():
    """|w| <= 5 (N + B log2 B) for N = 8..1024; round trips checked up to N = 32."""
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        for seed in range(3):
            x = random_element(n, random.Random(seed))
            word = synthesize_word(x)
            assert _within_cluster_bound(word, x, 5), (n, seed)
            if n <= 32:
                assert evaluate_word(word).equals(x)


def test_synthesize_t_elements_linear():
    """Elements of T have B = 2, so the bound is linear in N, as for T itself."""
    rng = random.Random(45)
    for n in (4, 8, 16, 32, 64, 128, 256):
        for _ in range(3):
            shift = rng.randint(1, n)
            images = tuple((i + shift) % (n + 1) + 1 for i in range(n + 1))
            x = Element(random_tree(n, rng), random_tree(n, rng), images).reduce()
            assert x.cluster_count() == 2
            word = synthesize_word(x)
            assert _within_cluster_bound(word, x, 8), n
            if n <= 32:
                assert evaluate_word(word).equals(x)
