"""The four benchmark workloads: seeded inputs, the timed op and its check.

Inputs come from this file's own generator (trees as preorder codes), so the
same seed gives the same inputs whatever the library does inside. The library
receives text, words or an argv list only. Every answer is checked by a path
that does not reuse the computation being timed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Library functions are called through their modules, so that the traced run
# can replace them there.
from thompsonv import Element, cli, collapse, generators, search, words

# -- seeded diagrams, independent of the library ----------------------------


def random_tree_code(carets: int, rng: random.Random) -> list[int]:
    """Preorder code (1 = caret, 0 = leaf) of a uniform random full binary tree.

    Cycle lemma: of the rotations of a shuffled word with `carets` ones and
    `carets + 1` zeros, exactly one is a preorder code. It starts right after
    the first minimum of the running count (ones minus zeros).
    """
    code = [1] * carets + [0] * (carets + 1)
    rng.shuffle(code)
    level = low = cut = 0
    for i, c in enumerate(code):
        level += 1 if c else -1
        if level < low:
            low, cut = level, i + 1
    return code[cut:] + code[:cut]


def code_text(code: list[int]) -> str:
    """Tree text ("." or "(left,right)") of a preorder code."""
    out: list[str] = []
    open_carets: list[bool] = []  # per open caret: is its left child done?
    for c in code:
        if c:
            out.append("(")
            open_carets.append(False)
            continue
        out.append(".")
        while open_carets:
            if not open_carets[-1]:
                open_carets[-1] = True
                out.append(",")
                break
            open_carets.pop()
            out.append(")")
    return "".join(out)


def cherries(code: list[int]) -> set[int]:
    """Leaf indices i whose leaves i, i+1 hang from one caret: code 1, 0, 0."""
    out = set()
    leaf = 0
    for p, c in enumerate(code):
        if not c:
            leaf += 1
        elif code[p + 1] == 0 and code[p + 2] == 0:
            out.add(leaf + 1)
    return out


def split_leaf(code: list[int], leaf: int) -> list[int]:
    seen = 0
    for p, c in enumerate(code):
        if not c:
            seen += 1
            if seen == leaf:
                return code[:p] + [1, 0, 0] + code[p + 1 :]
    raise ValueError(f"no leaf {leaf}")


@dataclass(frozen=True)
class Diagram:
    domain: list[int]
    range: list[int]
    perm: list[int]

    def text(self) -> str:
        images = ",".join(map(str, self.perm))
        return f"{code_text(self.domain)}|{code_text(self.range)}|[{images}]"

    def clusters(self) -> int:
        return 1 + sum(1 for a, b in zip(self.perm, self.perm[1:]) if b != a + 1)

    def expand(self, i: int) -> Diagram:
        """Split domain leaf i and its image: the same group element."""
        v = self.perm[i - 1]
        images: list[int] = []
        for j, w in enumerate(self.perm):
            w = w if w <= v else w + 1
            images.extend((w, w + 1) if j == i - 1 else (w,))
        return Diagram(split_leaf(self.domain, i), split_leaf(self.range, v), images)


def random_reduced_diagram(carets: int, rng: random.Random) -> Diagram:
    """Uniform trees and a uniform permutation with no cancelling caret pair.

    Such a diagram is reduced, so its text is the canonical form the library
    must return for any expansion of it.
    """
    domain = random_tree_code(carets, rng)
    range_ = random_tree_code(carets, rng)
    domain_cherries, range_cherries = cherries(domain), cherries(range_)
    perm = list(range(1, carets + 2))
    while True:
        rng.shuffle(perm)
        if not any(
            perm[i] == perm[i - 1] + 1 and perm[i - 1] in range_cherries
            for i in domain_cherries
        ):
            return Diagram(domain, range_, list(perm))


def cluster_bound(carets: int, clusters: int) -> float:
    return carets + clusters * math.log2(clusters)


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request: what the library is handed, and what the check expects."""

    argument: object
    expected: object = None


class Workload:
    """A seeded stream of request batches, the timed op, and its check.

    `ops_per_request` converts requests to the workload's op count.
    `extras(requests, outputs)` gives exact counts derived from outputs.
    """

    name = ""
    ops_per_request = 1

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.small = small

    def rng(self, batch: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{batch}")

    def batch(self, index: int) -> list[Request]:
        raise NotImplementedError

    def op(self, argument):
        raise NotImplementedError

    def check(self, request: Request, output) -> bool:
        raise NotImplementedError

    def extras(self, requests: list[Request], outputs: list) -> dict[str, float]:
        return {}


# `thompsonv constants --radius R` output recorded from the seed commit.
CONSTANTS_OUTPUT = {
    6: """radius: 6
generators: x0 x1 c pi
ball_sizes: 1 7 36 167 767 3432 15254
total: 19664
max_carets_over_length: 3.000000
max_carets_over_length_witness: (.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]
max_length_over_cluster_bound: 1.200000
max_length_over_cluster_bound_witness: (.,(.,((.,.),.)))|(((.,(.,.)),.),.)|[1,2,3,4,5]
""",
    3: """radius: 3
generators: x0 x1 c pi
ball_sizes: 1 7 36 167
total: 211
max_carets_over_length: 3.000000
max_carets_over_length_witness: (.,(.,(.,.)))|(.,((.,.),.))|[1,2,3,4]
max_length_over_cluster_bound: 0.750000
max_length_over_cluster_bound_witness: ((.,.),(.,.))|((.,(.,.)),.)|[1,2,3,4]
""",
}


class Ball(Workload):
    """`thompsonv constants --radius 6` through cli.main; the seed is unused.

    An op is one generator product the search computes: 8 per element of
    levels 0 .. radius-1, 35,280 = 8 x 4,410 at radius 6. Radius 7 takes
    13-17 s a call on a 2-CPU machine, too long for five timed passes in
    one run.
    """

    name = "ball"

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        self.radius = 3 if small else 6
        self.expected = CONSTANTS_OUTPUT[self.radius]
        sizes = self.expected.splitlines()[2].split()[1:]
        self.ops_per_request = 8 * sum(int(s) for s in sizes[:-1])

    def batch(self, index):
        return [Request(["constants", "--radius", str(self.radius)], self.expected)]

    def op(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, request, output):
        return output == (0, request.expected)


class Length(Workload):
    """Exact word length of the element of a 6-symbol random walk, radius 12.

    The walk lengths in a batch are fixed by class: a walk's element is at
    distance d <= 5 if the radius-5 reference ball holds it, else exactly 6.
    Fixing the mix keeps the batch cost and its percentiles the same across
    seeds; p50 falls inside the length-5 class and p90 inside length 6.
    """

    name = "length"
    WALK = 6
    RADIUS = 12
    MIX = {2: 10, 3: 10, 4: 30, 5: 20, 6: 50}
    SMALL_MIX = {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        self.reference = search.enumerate_ball(self.WALK - 1, track_parents=False)

    def batch(self, index):
        rng = self.rng(index)
        symbols = [f"{n}{e}" for e in ("", "^-1") for n in generators.GENERATOR_NAMES]
        wanted = dict(self.SMALL_MIX if self.small else self.MIX)
        out: list[Request] = []
        for _ in range(100_000):
            if not any(wanted.values()):
                rng.shuffle(out)
                return out
            word = generators.parse_word(" ".join(rng.choice(symbols) for _ in range(self.WALK)))
            distance = self.reference.distance_of(generators.evaluate_word(word))
            length = self.WALK if distance is None else distance
            if wanted.get(length):
                wanted[length] -= 1
                out.append(Request(word, length))
        raise RuntimeError(f"walks did not fill the length mix {wanted}")

    def op(self, word):
        return search.exact_word_length(generators.evaluate_word(word), radius=self.RADIUS)

    def check(self, request, output):
        return output.length == request.expected


class Synthesis(Workload):
    """synthesize_word then evaluate_word on random reduced 8-caret elements.

    The cost of one element varies by about 25% at a fixed caret count, so
    the size is kept small enough for about a hundred elements in a run.
    """

    name = "synthesis"
    CARETS = 8
    PER_BATCH = 10

    def batch(self, index):
        rng = self.rng(index)
        carets, count = (6, 2) if self.small else (self.CARETS, self.PER_BATCH)
        out = []
        for _ in range(count):
            d = random_reduced_diagram(carets, rng)
            out.append(Request(d.text(), (carets, d.clusters())))
        return out

    def op(self, text):
        word = words.synthesize_word(Element.parse(text))
        return word, generators.evaluate_word(word)

    def check(self, request, output):
        return output[1].reduce().text() == request.argument

    def extras(self, requests, outputs):
        lengths = [len(word) for word, _ in outputs]
        ratios = [len(w) / cluster_bound(*r.expected) for (w, _), r in zip(outputs, requests)]
        return {
            "words.word_symbols": sum(lengths),
            "words.max_len_over_cluster_bound": max(ratios),
        }


@dataclass(frozen=True)
class DiagramCase:
    expanded: str
    other: str
    reduced: str
    clusters: int
    points: tuple[Fraction, ...]


class Diagrams(Workload):
    """Reduce, inverse product, product, collapse and interval map of large diagrams.

    Per element of N carets: reduce its expansion by N random leaf splits,
    check a * a^-1 is the identity, multiply by a second random element,
    collapse clusters and count interval-map components.
    """

    name = "diagrams"
    SIZES = (100, 200, 400)
    POINTS = 4

    def batch(self, index):
        rng = self.rng(index)
        out = []
        for carets in (50,) if self.small else self.SIZES:
            x = random_reduced_diagram(carets, rng)
            other = random_reduced_diagram(carets, rng)
            e = x
            for _ in range(carets):
                e = e.expand(rng.randint(1, len(e.perm)))
            points = tuple(Fraction(rng.randrange(1 << 64), 1 << 64) for _ in range(self.POINTS))
            case = DiagramCase(e.text(), other.text(), x.text(), x.clusters(), points)
            out.append(Request(case))
        return out

    def op(self, case):
        a = Element.parse(case.expanded).reduce()
        b = Element.parse(case.other)
        return (
            a,
            b,
            (a * a.inverse()).is_identity(),
            a * b,
            collapse.collapse_clusters(a),
            a.interval_map().component_count(),
        )

    def check(self, request, output):
        case = request.argument
        a, b, inverse_ok, product, collapsed, components = output
        if a.text() != case.reduced or not inverse_ok:
            return False
        if not collapsed.collapsed.n_leaves == case.clusters == components:
            return False
        a_map, b_map, ab_map = a.interval_map(), b.interval_map(), product.interval_map()
        return all(ab_map.apply(p) == b_map.apply(a_map.apply(p)) for p in case.points)


WORKLOADS = {w.name: w for w in (Ball, Length, Synthesis, Diagrams)}
