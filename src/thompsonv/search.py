"""Exact word lengths by breadth-first search of the Cayley graph.

States are reduced diagrams. A reduced diagram is unique, so `==` on states is
group equality and deduplication is exact. A state is multiplied by a generator
through `generators.LOCAL_MOVES`, which rewrites only the top carets of its
range tree and gives the same reduced diagram as `*`. A move's plan depends on
the range tree alone, so a search stores it once per range tree and drops the
plans when it returns. Levels are expanded whole: every element of level k is
known before level k+1 starts, which makes enumeration order, ball sizes and
reports deterministic. Point queries meet in the middle to double the reachable
radius. Memory is capped by a byte budget that charges each stored element the
bytes measured for it: a fixed cost, a word per leaf (trees are interned and
shared) and its parent entry when parents are tracked; and each plan a fixed
cost as it is stored. Exceeding it raises a resource error naming the last
completed radius.

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
eight moves.
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
_WINDOW = 3  # symbols per pruning window: 2, 3 and 4 timed alike at radius 6-8; 3 needs 44 states


class ResourceLimitError(RuntimeError):
    """Work would pass the memory budget; a search's `completed_radius` levels are trusted."""

    def __init__(self, budget_mb: int, completed_radius: int | None = None):
        radius = "" if completed_radius is None else f"; completed radius {completed_radius}"
        super().__init__(f"memory budget of {budget_mb} MB exceeded{radius}")
        self.budget_mb = budget_mb
        self.completed_radius = completed_radius


def memory_budget_mb(budget_mb: int | None = None) -> int:
    """The budget in MB: `budget_mb`, else $THOMPSON_MEM_BUDGET_MB, else 512."""
    if budget_mb is None:
        env = os.environ.get(ENV_BUDGET)
        if env and not env.isdecimal():
            raise ValueError(f"{ENV_BUDGET} must be a non-negative integer, got {env!r}")
        return int(env) if env else DEFAULT_BUDGET_MB
    if budget_mb < 0:
        raise ValueError(f"--budget-mb must be non-negative, got {budget_mb}")
    return budget_mb


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
    def __init__(self, budget_mb: int):
        self.budget_mb = budget_mb
        self.limit = budget_mb << 20
        self.used = 0

    def charge(self, e: Element, completed_radius: int, with_parent: bool = False) -> None:
        self.used += _ELEMENT_BYTES + _LEAF_BYTES * e.n_leaves + _PARENT_BYTES * with_parent
        if self.used > self.limit:
            raise ResourceLimitError(self.budget_mb, completed_radius)

    def charge_plan(self, completed_radius: int) -> None:
        self.used += _PLAN_BYTES
        if self.used > self.limit:
            raise ResourceLimitError(self.budget_mb, completed_radius)


@dataclass
class BallData:
    """Every element within the radius, grouped by exact distance."""

    radius: int
    levels: list[list[Element]]
    distance: dict[Element, int]
    parent: dict[Element, tuple[Element, GenSymbol]] | None

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

    A BFS of radius k with first-discovery words. It makes a move only where the
    extended word less its first symbol is in the table, as a suffix of a
    shortlex-least geodesic is one.
    """
    words: list[Word] = [()]
    seen = {Element.identity()}
    level: list[tuple[Element, Word]] = [(Element.identity(), ())]
    for _ in range(k):
        known, last = set(words), level
        level = []
        for e, w in last:
            for s, move in LOCAL_MOVES.items():
                v = w + (s,)
                if v[1:] in known and (p := move(e)) not in seen:
                    seen.add(p)
                    level.append((p, v))
        words += [w for _, w in level]
    return tuple(words)


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


def _expand(
    frontier: list[Element], states: bytearray, dist: dict[Element, int], depth: int,
    budget: _Budget, completed_radius: int, plans: list[dict],
    parent: dict[Element, tuple[Element, GenSymbol]] | None = None,
) -> tuple[list[Element], bytearray]:
    """The next BFS level in discovery order and its states, by the moves `_steps` allows.

    New products get distance `depth`; a budget overrun names `completed_radius`.
    `plans` holds a plan dict per symbol, in the order of `LOCAL_MOVES`.
    """
    level: list[Element] = []
    after = bytearray()
    moves = list(LOCAL_MOVES.items())
    steps = [[(*moves[i], plans[i], state) for i, state in row] for row in _steps()]
    for e, state in zip(frontier, states):
        for symbol, move, table, next_state in steps[state]:
            if e.range_tree not in table:
                budget.charge_plan(completed_radius)
            p = move(e, table)
            if p not in dist:
                dist[p] = depth
                budget.charge(p, completed_radius, parent is not None)
                if parent is not None:
                    parent[p] = (e, symbol)
                level.append(p)
                after.append(next_state)
    return level, after


def enumerate_ball(
    radius: int, budget_mb: int | None = None, track_parents: bool = True
) -> BallData:
    """Breadth-first levels 0..radius around the identity."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    budget = _Budget(memory_budget_mb(budget_mb))
    identity = Element.identity()
    distance = {identity: 0}
    parent: dict[Element, tuple[Element, GenSymbol]] | None = {} if track_parents else None
    budget.charge(identity, 0, track_parents)
    levels = [[identity]]
    states = bytearray(1)
    plans: list[dict] = [{} for _ in LOCAL_MOVES]
    for d in range(1, radius + 1):
        level, states = _expand(levels[-1], states, distance, d, budget, d - 1, plans, parent)
        levels.append(level)
        if not level:
            break
    return BallData(radius, levels, distance, parent)


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
    budget = _Budget(memory_budget_mb(budget_mb))
    target = x.reduce()
    if target == Element.identity():
        return LengthResult(0, radius)

    frontiers = [[Element.identity()], [target]]
    states = [bytearray(1), bytearray(1)]  # both sides start from the empty word
    for frontier in frontiers:
        budget.charge(frontier[0], 0)
    dists = [{frontier[0]: 0} for frontier in frontiers]
    depths = [0, 0]
    plans: list[dict] = [{} for _ in LOCAL_MOVES]

    best: int | None = None
    while sum(depths) < radius and best is None:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        other = dists[1 - side]
        frontiers[side], states[side] = _expand(
            frontiers[side], states[side], dists[side], depths[side] + 1, budget, sum(depths), plans
        )
        depths[side] += 1
        meets = [other[p] for p in frontiers[side] if p in other]
        if meets:
            best = depths[side] + min(meets)
    return LengthResult(best, radius)
