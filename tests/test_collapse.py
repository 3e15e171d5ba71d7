import itertools
import random

from conftest import random_element
from thompsonv import permutations as perms
from thompsonv.collapse import collapse_clusters
from thompsonv.elements import Element
from thompsonv.generators import MOVES, GenSymbol
from thompsonv.trees import random_tree
from thompsonv.words import synthesize_word


def test_collapse_of_f_element_is_identity():
    x0 = MOVES[GenSymbol("x0")]
    res = collapse_clusters(x0)
    assert res.collapsed.equals(Element.identity())
    assert res.collapsed.n_leaves == 1


def test_collapse_of_cycle_is_half_swap():
    res = collapse_clusters(MOVES[GenSymbol("c")])
    assert res.collapsed.text() == "(.,.)|(.,.)|[2,1]"


def test_collapse_contract_random():
    rng = random.Random(51)
    for _ in range(200):
        x = random_element(rng.randint(1, 10), rng)
        n, b = x.caret_count(), x.cluster_count()
        res = collapse_clusters(x)
        # y and z are order-preserving, built with exactly N carets per tree
        assert res.y.in_f() and res.z.in_f()
        assert perms.is_identity(res.y.perm) and perms.is_identity(res.z.perm)
        assert res.y_diagram_carets == n == res.y.domain_tree.carets
        assert res.z_diagram_carets == n == res.z.range_tree.carets
        # the collapsed element has one leaf per cluster, all runs singleton
        assert (res.y * x * res.z).equals(res.collapsed)
        assert res.collapsed.is_reduced()
        assert res.collapsed.n_leaves == b
        assert res.collapsed.caret_count() == b - 1
        assert perms.cluster_runs(res.collapsed.perm).sizes() == [1] * b


def test_collapse_on_identity():
    res = collapse_clusters(Element.identity())
    assert res.collapsed.equals(Element.identity())
    assert res.y_diagram_carets == 0


def test_collapsed_is_the_product_as_a_diagram():
    # `collapsed` is counted off the cluster runs; the product it stands for
    # must be that very diagram, not just the same group element.
    rng = random.Random(16)
    xs = [Element.identity(), *MOVES.values()]
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            xs.append(Element(random_tree(n - 1, rng), random_tree(n - 1, rng), images))
    for x in xs:
        res = collapse_clusters(x)
        assert res.collapsed == res.y * x * res.z


def test_collapse_and_synthesis_compute_no_product(monkeypatch):
    rng = random.Random(17)
    xs = [random_element(rng.randint(1, 12), rng) for _ in range(20)]

    def no_product(self, other):
        raise AssertionError("diagram product computed")

    monkeypatch.setattr(Element, "__mul__", no_product)
    for x in xs:
        collapse_clusters(x)
        synthesize_word(x)
