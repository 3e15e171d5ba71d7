import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import left_comb, random_element
from thompsonv.bounds import birget_upper, new_upper
from thompsonv import permutations as perms
from thompsonv.elements import Element
from thompsonv import generators, search
from thompsonv.generators import GENERATOR_NAMES, MOVES, GenSymbol, evaluate_word
from thompsonv.search import (
    LengthResult,
    ResourceLimitError,
    ball_sizes,
    enumerate_ball,
    exact_word_length,
)
from thompsonv.trees import random_tree, right_comb, split_leaf

RADIUS = 4


@pytest.fixture(scope="module")
def ball():
    return enumerate_ball(RADIUS)


def test_identity_at_distance_zero(ball):
    assert ball.distance_of(Element.identity()) == 0
    assert exact_word_length(Element.identity(), 3).length == 0


def test_every_generator_symbol_at_distance_one(ball):
    for name in GENERATOR_NAMES:
        for exp in (1, -1):
            e = MOVES[GenSymbol(name, exp)]
            assert ball.distance_of(e) == 1
            assert ball.distance_of(e.expand_leaf(1)) == 1  # lookup by an unreduced diagram
            assert exact_word_length(e, 2).length == 1


def test_level_one_count_is_seven(ball):
    # pi is an involution, so the eight symbols give seven distinct elements
    assert ball.sizes()[1] == 7


def test_element_keys_agree_with_text_keys(ball):
    assert len({e.text() for level in ball.levels for e in level}) == ball.total()


def test_x0_squared_at_distance_two(ball):
    x0 = MOVES[GenSymbol("x0")]
    assert ball.distance_of(x0 * x0) == 2
    assert exact_word_length(x0 * x0, 4).length == 2


def test_ball_sizes_prefix_stable():
    assert ball_sizes(2) == ball_sizes(4)[:3]


def test_witness_words_are_geodesic(ball):
    rng = random.Random(61)
    for dist, level in enumerate(ball.levels):
        sample = level if len(level) <= 30 else rng.sample(level, 30)
        for e in sample:
            word = ball.witness_word(e)
            assert len(word) == dist
            assert evaluate_word(word).equals(e)
    expanded = ball.levels[-1][0].expand_leaf(2)
    word = ball.witness_word(expanded)
    assert len(word) == RADIUS
    assert evaluate_word(word).equals(expanded)


def test_witness_none_outside_ball(ball):
    far = Element.identity()
    x0 = MOVES[GenSymbol("x0")]
    for _ in range(RADIUS + 1):
        far = far * x0
    assert ball.witness_word(far) is None
    assert ball.distance_of(far) is None


def test_bidirectional_agrees_with_ball(ball):
    rng = random.Random(62)
    for dist, level in enumerate(ball.levels):
        for e in rng.sample(level, min(len(level), 10)):
            assert exact_word_length(e, RADIUS).length == dist


def test_unknown_beyond_radius():
    x0 = MOVES[GenSymbol("x0")]
    deep = x0 ** 6
    result = exact_word_length(deep, 3)
    assert not result.known
    assert str(result) == "unknown beyond radius 3"
    # the bidirectional search reaches it with a bigger radius
    assert exact_word_length(deep, 8).length == 6


def test_length_result_str():
    assert str(LengthResult(4, 7)) == "4"


def test_budget_exhaustion_names_completed_radius():
    with pytest.raises(ResourceLimitError) as err:
        enumerate_ball(3, budget_mb=0)
    assert err.value.completed_radius == 0
    with pytest.raises(ResourceLimitError):
        exact_word_length(MOVES[GenSymbol("x1")] ** 4, 8, budget_mb=0)
    # a length query names the levels both sides completed together: 1 MB holds 8 of the 11
    x = Element.parse("(((.,.),.),((.,.),.))|((.,(.,(.,.))),(.,.))|[1,3,4,6,2,5]")
    assert exact_word_length(x, 12).length == 11
    with pytest.raises(ResourceLimitError) as err:
        exact_word_length(x, 12, budget_mb=1)
    assert err.value.completed_radius == 8


@pytest.mark.parametrize("track_parents", [False, True])
def test_budget_charges_what_the_ball_holds(monkeypatch, track_parents):
    budgets = []

    class RecordingBudget(search._Budget):
        def __init__(self, budget_mb):
            super().__init__(budget_mb)
            budgets.append(self)

    monkeypatch.setattr(search, "_Budget", RecordingBudget)
    gc.collect()  # nodes kept alive by earlier tests' garbage would be shared, not traced
    tracemalloc.start()
    try:
        ball = enumerate_ball(5, track_parents=track_parents)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ball.total() == 4410
    assert 1 / 1.5 <= budgets[0].used / traced <= 1.5


def test_budget_charges_stored_plans(monkeypatch):
    # radius 5 expands levels 0-4; an element stores a plan per range tree for each symbol its
    # state allows, the state being the last K-1 symbols of its witness word, and the search's
    # split memo an entry per (domain tree, leaf) that those moves split
    budgets = []

    class RecordingBudget(search._Budget):
        def __init__(self, budget_mb):
            super().__init__(budget_mb)
            budgets.append(self)

    monkeypatch.setattr(search, "_Budget", RecordingBudget)
    ball = enumerate_ball(5)
    elements = sum(
        search._ELEMENT_BYTES + search._LEAF_BYTES * e.n_leaves + search._PARENT_BYTES
        for e in ball.distance
    )
    windows = set(search._windows(search._WINDOW))
    made = [
        (e, s)
        for level in ball.levels[:5]
        for e in level
        for s in MOVES
        if ball.witness_word(e)[1 - search._WINDOW :] + (s,) in windows
    ]
    stored = {(e.range_tree, s) for e, s in made}
    assert len(stored) < 8 * len({e.range_tree for level in ball.levels[:5] for e in level})
    # the same moves without a memo, each split recorded
    splits = []
    with monkeypatch.context() as m:
        m.setattr(generators, "split_leaf", lambda t, i: splits.append((t, i)) or split_leaf(t, i))
        for e, s in made:
            generators.LOCAL_MOVES[s](e)
    assert (len(splits), len(set(splits))) == (2360, 241)
    assert budgets[0].used == (
        elements + len(stored) * search._PLAN_BYTES + len(set(splits)) * search._SPLIT_BYTES
    )
    # plans alone overrun a budget that the elements fit, naming the radius completed before
    monkeypatch.setattr(search, "_PLAN_BYTES", 1 << 16)
    with pytest.raises(ResourceLimitError) as err:
        enumerate_ball(4, budget_mb=1)
    assert err.value.completed_radius == 1


def unpruned_ball(radius):
    """Reference BFS: all eight moves on every element, levels expanded in order."""
    identity = Element.identity()
    levels, distance, parent = [[identity]], {identity: 0}, {}
    for d in range(1, radius + 1):
        levels.append([])
        for e in levels[-2]:
            for s, move in generators.LOCAL_MOVES.items():
                p = move(e)
                if p not in distance:
                    distance[p], parent[p] = d, (e, s)
                    levels[-1].append(p)
    return levels, distance, parent


@pytest.fixture(scope="module")
def reference():
    return unpruned_ball(6)


def test_witness_words_are_shortlex_least(ball):
    # every word of up to RADIUS symbols, shortlex in LOCAL_MOVES order: the first to reach an
    # element is its shortlex-least geodesic
    symbols = generators.LOCAL_MOVES
    words = [w for n in range(RADIUS + 1) for w in itertools.product(symbols, repeat=n)]
    assert len(words) == 4681
    least = {}
    for word in words:
        least.setdefault(evaluate_word(word), word)
    assert len(least) == ball.total()
    assert all(ball.witness_word(e) == word for e, word in least.items())


def test_windows_are_the_small_balls(ball):
    for k, count in [(2, 44), (3, 211), (4, 978)]:
        windows = search._windows(k)
        assert len(windows) == count == sum(ball.sizes()[: k + 1])
        assert len(set(windows)) == count and [len(w) for w in windows] == sorted(map(len, windows))
        assert all(w[:-1] in windows and w[1:] in windows for w in windows if w)
        assert all(GenSymbol("pi", -1) not in w for w in windows)
        assert [evaluate_word(w) for w in windows] == [e for level in ball.levels[: k + 1] for e in level]


@pytest.mark.parametrize("track_parents", [False, True])
def test_pruned_ball_equals_unpruned(reference, track_parents):
    levels, distance, parent = reference
    ball = enumerate_ball(6, track_parents=track_parents)
    assert ball.levels == levels
    assert list(ball.distance.items()) == list(distance.items())
    assert ball.parent == (parent if track_parents else None)


def test_pruned_ball_makes_fewer_moves(monkeypatch, reference):
    # radius 6 expands the 4,410 elements of levels 0-5; all eight moves on each would be 35,280
    made = []
    search._steps()  # built before counting: only the search's own moves count

    def counting(symbol, move):
        return lambda *args: made.append(symbol) or move(*args)

    counted = {s: counting(s, move) for s, move in generators.LOCAL_MOVES.items()}
    monkeypatch.setattr(search, "LOCAL_MOVES", counted)
    enumerate_ball(6, track_parents=False)
    levels, _, parent = reference
    words = {levels[0][0]: ()}
    for e in (e for level in levels[1:6] for e in level):
        words[e] = words[parent[e][0]] + (parent[e][1],)
    windows = set(search._windows(search._WINDOW))
    allowed = [s for w in words.values() for s in MOVES if w[1 - search._WINDOW :] + (s,) in windows]
    assert len(made) == len(allowed) <= 23557


def test_pruned_length_agrees_with_reference(reference):
    levels, distance, _ = reference
    rng = random.Random(24)
    elements = [e for level in levels[:5] for e in level]
    elements += rng.sample(levels[5] + levels[6], 200)
    assert all(exact_word_length(e, 12).length == distance[e] for e in elements)
    expanded = levels[6][0].expand_leaf(3)
    assert exact_word_length(expanded, 12).length == 6


def test_lower_and_upper_consistency_over_ball(ball):
    # caret counts grow at most linearly with distance; the cluster bound
    # dominated by a constant covers every element of the ball
    worst_lower = 0.0
    worst_upper = 0.0
    for dist, level in enumerate(ball.levels):
        if dist == 0:
            continue
        for e in level:
            n = e.domain_tree.carets
            b = len(perms.cluster_runs(e.perm))
            worst_lower = max(worst_lower, n / dist)
            worst_upper = max(worst_upper, dist / (new_upper(n, b) + 1.0))
    assert worst_lower <= 4.0
    assert worst_upper <= 2.0


def test_new_upper_at_most_birget_plus_constant(ball):
    # over observed (N, B) pairs the gap is maximal only when B = N + 1
    gaps = {}
    for dist, level in enumerate(ball.levels):
        if dist == 0:
            continue
        for e in level:
            n = e.domain_tree.carets
            b = len(perms.cluster_runs(e.perm))
            gaps[(n, b)] = new_upper(n, b) - birget_upper(n)
    c0 = max(gaps.values())
    assert c0 < 20.0
    for (n, b), gap in gaps.items():
        if gap == c0:
            assert b == n + 1


def local_move_mismatches(elements):
    """(element, symbol) pairs where the local move and the general product differ."""
    return [
        (e, s)
        for e in elements
        for s, move in generators.LOCAL_MOVES.items()
        if move(e) != e * MOVES[s]
    ]


def test_local_moves_equal_products():
    # all eight moves on the radius-5 ball, which include every product of the radius-6 search
    elements = [e for level in enumerate_ball(5, track_parents=False).levels for e in level]
    assert len(elements) * len(MOVES) == 35280
    assert local_move_mismatches(elements) == []


def test_unchecked_elements_pass_the_checks():
    # moves, cancel_pair, expand_leaf, _from_pieces and inverse build elements without
    # Element(...)'s checks; rebuilding each through them must give it back
    elements = [e for level in enumerate_ball(5, track_parents=False).levels for e in level]
    rng = random.Random(28)
    for e in elements:
        assert perms.check_perm(e.perm) == e.perm
        assert e.domain_tree.leaves == e.range_tree.leaves == len(e.perm)
    for e in rng.sample(elements, 300):
        expanded = e.expand_leaf(rng.randint(1, e.n_leaves))
        for x in (e.inverse(), expanded, expanded.reduce(), e * rng.choice(elements)):
            assert Element(x.domain_tree, x.range_tree, x.perm) == x


def test_local_moves_follow_interval_maps(ball):
    # independent semantics: apply e's map, then g's, at every third odd multiple of 1/128
    points = [Fraction(2 * k + 1, 128) for k in range(0, 64, 3)]
    maps = {s: g.interval_map() for s, g in MOVES.items()}
    for e in (e for level in ball.levels[:4] for e in level):
        middle = [e.interval_map().apply(t) for t in points]
        for s, move in generators.LOCAL_MOVES.items():
            after = move(e).interval_map()
            assert [after.apply(t) for t in points] == [maps[s].apply(m) for m in middle]


def test_local_moves_on_large_and_deep_elements():
    # seeded reduced elements of 50-400 carets, and x0^2000 = (right comb, left comb, id) and
    # its inverse, where the fit step splits a domain leaf 2000 carets deep
    rng = random.Random(20)
    elements = [random_element(rng.randint(50, 400), rng) for _ in range(10)]
    deep = Element(right_comb(2000), left_comb(2000), perms.identity_perm(2001))
    elements += [deep, deep.inverse()]
    assert all(e.is_reduced() for e in elements)
    assert local_move_mismatches(elements) == []
    # two points in the pieces 40 carets down either comb, and two in the middle
    points = [Fraction(1, 3 << 40), Fraction(1, 3), Fraction(2, 3), 1 - Fraction(1, 3 << 40)]
    maps = {s: g.interval_map() for s, g in MOVES.items()}
    for e in (elements[0], deep, deep.inverse()):
        middle = [e.interval_map().apply(t) for t in points]
        for s, move in generators.LOCAL_MOVES.items():
            after = move(e).interval_map()
            assert [after.apply(t) for t in points] == [maps[s].apply(m) for m in middle]


def test_local_move_mutations_are_caught(ball, monkeypatch):
    elements = [e for level in ball.levels[:4] for e in level]
    with monkeypatch.context() as m:
        m.setattr(Element, "cancel_pair", lambda self, i: None)  # no cancel step
        assert local_move_mismatches(elements)
    with monkeypatch.context() as m:  # a move builds its product unchecked: reverse its images
        trusted = Element._trusted
        reversing = type("Reversing", (), {"_trusted": lambda d, r, p: trusted(d, r, p[::-1])})
        m.setattr(generators, "Element", reversing)
        assert local_move_mismatches(elements)
    x0, x0_inv = GenSymbol("x0"), GenSymbol("x0", -1)
    swapped = dict(generators.LOCAL_MOVES)
    swapped[x0], swapped[x0_inv] = swapped[x0_inv], swapped[x0]
    monkeypatch.setattr(generators, "LOCAL_MOVES", swapped)
    assert local_move_mismatches(elements)


def test_stored_plans_equal_products(ball):
    # one plan dict per symbol over all eight moves on the radius-5 ball: most moves reuse a plan
    elements = [e for level in enumerate_ball(5, track_parents=False).levels for e in level]
    plans = {s: {} for s in MOVES}
    moves = generators.LOCAL_MOVES.items()
    assert [(e, s) for e in elements for s, move in moves if move(e, plans[s]) != e * MOVES[s]] == []
    assert [len(table) for table in plans.values()] == [192] * 8
    assert len({e.range_tree for e in elements}) == 192
    # a large reduced element and another with its range tree, whose move reads the stored plan
    rng = random.Random(22)
    for _ in range(10):
        a = random_element(rng.randint(50, 400), rng)
        b = a
        while b == a or not b.is_reduced():
            images = list(a.perm)
            rng.shuffle(images)
            b = Element(random_tree(a.domain_tree.carets, rng), a.range_tree, tuple(images))
        for s, move in moves:
            table = {}
            assert move(a, table) == a * MOVES[s]
            assert move(b, table) == b * MOVES[s]
            assert list(table) == [a.range_tree]
    # mutation: one dict shared by all eight symbols hands each symbol another's plan
    shared = {}
    small = [e for level in ball.levels[:4] for e in level]
    assert [(e, s) for e in small for s, move in moves if move(e, shared) != e * MOVES[s]]
