"""Exact word lengths by breadth-first search of the Cayley graph.

States are reduced diagrams. A reduced diagram is unique, so `==` on states is
group equality and deduplication is exact. A state is multiplied by a generator
through `generators.LOCAL_MOVES`, which rewrites only the top carets of its
range tree and gives the same reduced diagram as `*`, built without
`Element`'s checks. A move's plan depends on the range tree alone, so a search
stores it once per range tree. The domain leaves a move splits repeat too, so
its eight moves share one memo, (tree, leaf) -> `split_leaf(tree, leaf)`: the
radius-6 ball makes 10,060 splits of 637 distinct pairs. A search drops its
plans and memo when it returns. Every search runs through one level loop,
`_Search.expand`: the ball, both sides of a length query and the window table.
Levels are expanded whole: every element of level k is known before level k+1
starts, which makes enumeration order, ball sizes and reports deterministic.
Point queries meet in the middle to double the reachable radius. Memory is
capped by `_Budget`, the one budget every resource refusal charges. A search
charges each stored element the bytes measured for it: a fixed cost, a word
per leaf (trees are interned and shared) and its parent entry when parents
are tracked; and each plan and each memo entry a fixed cost, once, as it is
stored. Exceeding it raises a resource error naming the last completed
radius. `experiments` charges its fitted peak memory before it builds
anything, and those refusals name none; a survey's ball shares its budget.

Moves that cannot reach a new element are skipped (Epstein et al., *Word
Processing in Groups*, 1992). Order words shortlex, symbols in `LOCAL_MOVES`
order. Each element has one shortlex-least geodesic, and every subword of it is
the shortlex-least geodesic of its own element. Each level is expanded in order,
each element by its moves in order, so by induction every element is first
reached by its shortlex-least geodesic and each level lists its elements in
shortlex order of those words. Every window of `_WINDOW` symbols of such a word
is then in the table `_windows`, so a move whose last window is not in it can
only repeat an element. Each frontier element keeps as its state the last
`_WINDOW` - 1 symbols of the word that first reached it, and makes only the
moves that extend its state to a window of the table. The same holds from any
start, so both sides of a length query prune alike. Levels, their order,
distances, parents and witness words are those of the search that makes all
eight moves, which is how `_windows` builds the table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

from .elements import Element
from .generators import LOCAL_MOVES, GenSymbol, Word

ENV_BUDGET = "THOMPSON_MEM_BUDGET_MB"
DEFAULT_BUDGET_MB = 512
# bytes held per element, fitted to tracemalloc of enumerate_ball at radius 5-6, parents on/off;
# trees are shared between elements, so a leaf costs about its entry in the permutation
_ELEMENT_BYTES = 165
_LEAF_BYTES = 8
_PARENT_BYTES = 100
_PLAN_BYTES = 145  # per stored move plan: tracemalloc of the plan dicts at radius 5-7 read 136-153
_SPLIT_BYTES = 100  # per split memo entry: tracemalloc of the memo at radius 5-7 read 85-100
_WINDOW = 3  # symbols per pruning window: 2, 3 and 4 timed alike at radius 6-8; 3 needs 44 states
_Parents = dict[Element, tuple[Element, GenSymbol]] | None  # element -> (predecessor, move)


class ResourceLimitError(RuntimeError):
    """Work would pass the memory budget; a search's `completed_radius` levels are trusted."""

    def __init__(self, budget_mb: int, completed_radius: int | None = None):
        radius = "" if completed_radius is None else f"; completed radius {completed_radius}"
        super().__init__(f"memory budget of {budget_mb} MB exceeded{radius}")
        self.budget_mb = budget_mb
        self.completed_radius = completed_radius


@dataclass(frozen=True)
class LengthResult:
    """Exact distance from the identity, or unknown beyond the radius."""

    length: int | None
    radius: int

    @property
    def known(self) -> bool:
        return self.length is not None

    def __str__(self) -> str:
        return str(self.length) if self.known else f"unknown beyond radius {self.radius}"


class _Budget:
    """`budget_mb` MB, else $THOMPSON_MEM_BUDGET_MB, else 512; each resource refusal is a charge."""

    def __init__(self, budget_mb: int | None = None):
        if budget_mb is None:
            env = os.environ.get(ENV_BUDGET)
            if env and not env.isdecimal():
                raise ValueError(f"{ENV_BUDGET} must be a non-negative integer, got {env!r}")
            budget_mb = int(env) if env else DEFAULT_BUDGET_MB
        elif budget_mb < 0:
            raise ValueError(f"--budget-mb must be non-negative, got {budget_mb}")
        self.budget_mb = budget_mb
        self.limit = budget_mb << 20
        self.used = 0

    def charge(self, nbytes: int, completed_radius: int | None = None) -> None:
        self.used += nbytes
        if self.used > self.limit:
            raise ResourceLimitError(self.budget_mb, completed_radius)


class _Charged(dict):
    """A dict that charges `budget` `nbytes` for each entry stored in it."""

    __slots__ = ("budget", "nbytes")

    def __init__(self, budget: _Budget, nbytes: int):
        super().__init__()
        self.budget, self.nbytes = budget, nbytes

    def __setitem__(self, key, value) -> None:
        self.budget.charge(self.nbytes)
        dict.__setitem__(self, key, value)


@dataclass
class BallData:
    """Every element within the radius, grouped by exact distance."""

    radius: int
    levels: list[list[Element]]
    distance: dict[Element, int]
    parent: _Parents

    def sizes(self) -> list[int]:
        return [len(level) for level in self.levels]

    def total(self) -> int:
        return len(self.distance)

    def distance_of(self, x: Element) -> int | None:
        return self.distance.get(x.reduce())

    def witness_word(self, x: Element) -> Word | None:
        """A geodesic word for x, if x lies inside the ball."""
        if self.parent is None:
            raise ValueError("ball was enumerated without parent tracking")
        e = x.reduce()
        if e not in self.distance:
            return None
        symbols: list[GenSymbol] = []
        while True:
            step = self.parent.get(e)
            if step is None:
                break
            e, symbol = step
            symbols.append(symbol)
        return tuple(reversed(symbols))


@cache
def _windows(k: int) -> tuple[Word, ...]:
    """The shortlex-least geodesic words of up to k symbols, in shortlex order.

    They are the witness words of a radius-k search with parents in which
    every element makes every move, as the module docstring shows. It runs
    under the default budget.
    """
    every = [[(i, 0) for i in range(len(LOCAL_MOVES))]]
    ball = _ball(k, _Budget(DEFAULT_BUDGET_MB), every, {})
    return tuple(ball.witness_word(e) for level in ball.levels for e in level)


@cache
def _steps() -> list[list[tuple[int, int]]]:
    """Per state, the moves it makes: (index in `LOCAL_MOVES`, the state after).

    The states are the windows of fewer than `_WINDOW` symbols, numbered in
    shortlex order, so the empty word is state 0.
    """
    windows = _windows(_WINDOW)
    states = {w: i for i, w in enumerate(w for w in windows if len(w) < _WINDOW)}
    allowed = set(windows)
    return [
        [(i, states[(w + (s,))[1 - _WINDOW :]]) for i, s in enumerate(LOCAL_MOVES) if w + (s,) in allowed]
        for w in states
    ]


def _rows(steps: list[list[tuple[int, int]]], budget: _Budget) -> list[list[tuple]]:
    """Per state, its moves as (symbol, move, plan dict, state after); one plan dict per symbol,
    which charges `budget` for each plan it stores."""
    moves = [(*item, _Charged(budget, _PLAN_BYTES)) for item in LOCAL_MOVES.items()]
    return [[(*moves[i], state) for i, state in row] for row in steps]


class _Search:
    """A breadth-first search from `start`, grown one whole level by `expand`.

    Each element makes the moves that `rows` (from `_rows`) lists for its
    state; the start has the empty word's state 0. Both sides of a length
    query share their rows, and so their plans. The eight moves share one
    split memo, `memo`, which lives as long as the search.
    """

    def __init__(self, start: Element, budget: _Budget, rows: list, parent: _Parents = None):
        self.budget, self.rows, self.parent = budget, rows, parent
        self.held = _ELEMENT_BYTES + _PARENT_BYTES * (parent is not None)  # plus _LEAF_BYTES a leaf
        budget.charge(self.held + _LEAF_BYTES * start.n_leaves, 0)
        self.memo = _Charged(budget, _SPLIT_BYTES)
        self.dist = {start: 0}
        self.depth = 0
        self.level = [start]
        self.states: bytearray | None = bytearray(1)

    def expand(self, completed_radius: int, last: bool = False) -> list[Element]:
        """The next level in discovery order, which becomes the frontier.

        A budget overrun names `completed_radius`. The states of a `last`
        level are not built, as nothing expands it.
        """
        budget, dist, parent, held, rows = self.budget, self.dist, self.parent, self.held, self.rows
        memo, stored, size = self.memo, dist.setdefault, len(dist)
        self.depth += 1
        depth = self.depth
        level: list[Element] = []
        states = None if last else bytearray()
        try:
            for e, state in zip(self.level, self.states):
                for symbol, move, plans, next_state in rows[state]:
                    p = move(e, plans, memo)
                    stored(p, depth)  # one probe; `dist` grows if p is new
                    if len(dist) > size:
                        size += 1
                        budget.charge(held + _LEAF_BYTES * p.n_leaves)
                        if parent is not None:
                            parent[p] = (e, symbol)
                        level.append(p)
                        if states is not None:
                            states.append(next_state)
        except ResourceLimitError:  # charges for elements, plans and splits name no radius
            raise ResourceLimitError(budget.budget_mb, completed_radius) from None
        self.level, self.states = level, states
        return level


def _ball(radius: int, budget: _Budget, steps: list, parent: _Parents) -> BallData:
    """Levels 0..radius around the identity, by the moves `steps` allows."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    search = _Search(Element.identity(), budget, _rows(steps, budget), parent)
    levels = [search.level]
    for d in range(radius):
        levels.append(search.expand(d, last=d + 1 == radius))
        if not levels[-1]:
            break
    return BallData(radius, levels, search.dist, parent)


def enumerate_ball(
    radius: int, budget_mb: int | None = None, track_parents: bool = True
) -> BallData:
    """Breadth-first levels 0..radius around the identity."""
    return _ball(radius, _Budget(budget_mb), _steps(), {} if track_parents else None)


def ball_sizes(radius: int, budget_mb: int | None = None) -> list[int]:
    """Count of distinct elements at each exact distance 0..radius."""
    return enumerate_ball(radius, budget_mb=budget_mb, track_parents=False).sizes()


def exact_word_length(x: Element, radius: int, budget_mb: int | None = None) -> LengthResult:
    """Exact distance of x from the identity if it is at most `radius`.

    Grows balls around both endpoints one full level at a time (smaller
    frontier first) and meets in the middle; distances it reports are exact
    by the level-completeness argument.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    budget = _Budget(budget_mb)
    target = x.reduce()
    if target == Element.identity():
        return LengthResult(0, radius)
    rows = _rows(_steps(), budget)
    sides = [_Search(Element.identity(), budget, rows), _Search(target, budget, rows)]
    completed = 0  # levels expanded on both sides together
    best: int | None = None
    while completed < radius and best is None:
        near, far = sides if len(sides[0].level) <= len(sides[1].level) else sides[::-1]
        level = near.expand(completed, last=completed + 1 == radius)
        completed += 1
        meets = [far.dist[p] for p in level if p in far.dist]
        if meets:
            best = near.depth + min(meets)
    return LengthResult(best, radius)
