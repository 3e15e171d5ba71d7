import io
import random

import pytest

from thompsonv import elements, experiments
from thompsonv import permutations as perms
from thompsonv.elements import Element
from thompsonv.generators import evaluate_word, format_word
from thompsonv.experiments import (
    SURVEY_HEADER,
    counterexample_product,
    counterexample_y,
    estimate_constants,
    survey_bounds,
    survey_csv,
    verify_conjugation_identity,
)
from thompsonv.search import ResourceLimitError, exact_word_length


def test_counterexample_y_examples():
    y1 = counterexample_y(1)
    assert y1.text() == "(.,(.,(.,.)))|(.,(.,(.,.)))|[1,3,2,4]"
    for n in range(1, 6):
        y = counterexample_y(n)
        assert y.is_reduced()
        assert y.caret_count() == 2 * n + 1
        assert (y * y).equals(Element.identity())
    with pytest.raises(ValueError):
        counterexample_y(0)


def test_counterexample_refused_past_the_budget(monkeypatch):
    # the fitted bytes of the combs pass 16 MB between n = 2246 and 2247, before any diagram
    monkeypatch.setenv("THOMPSON_MEM_BUDGET_MB", "16")
    assert counterexample_y(2246).caret_count() == 4493
    with pytest.raises(ResourceLimitError) as err:
        counterexample_y(2247)
    assert str(err.value) == "memory budget of 16 MB exceeded"
    assert err.value.completed_radius is None


def test_conjugation_identity_validates_under_one_convention():
    trivial = verify_conjugation_identity(1)
    assert trivial.as_written and trivial.mirrored  # zero exponent on both sides
    for n in range(2, 9):
        report = verify_conjugation_identity(n)
        assert report.mirrored and not report.as_written


def test_counterexample_product_small():
    p1, w1 = counterexample_product(1)
    assert p1.equals(counterexample_y(1))
    assert format_word(w1) == "c^-1 x1^-1 pi x1 c"  # criterion 6's slope of 9 rests on it
    assert evaluate_word(w1).equals(p1)
    direct = counterexample_y(1)
    for n in range(2, 41):
        direct = direct * counterexample_y(n)
        product, word = counterexample_product(n)
        assert product == direct.reduce()  # the same reduced diagram, not just the same element
        assert len(word) <= 9 * n
        if n <= 5:
            assert evaluate_word(word).equals(product)


def test_counterexample_product_computes_no_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("P_n is written down, not multiplied out")

    monkeypatch.setattr(Element, "__mul__", no_product)
    product, word = counterexample_product(200)
    assert product.caret_count() == 401 and product.cluster_count() == 402
    assert len(word) <= 9 * 200


def test_counterexample_product_growth():
    for n in range(1, 9):
        product, _ = counterexample_product(n)
        assert product.caret_count() == 2 * n + 1
        assert product.cluster_count() == 2 * n + 2


def test_random_element_deterministic():
    a = Element.random(6, random.Random(123))
    assert a == Element.random(6, random.Random(123))
    r = a.reduce()
    assert r.is_reduced()
    assert r.caret_count() <= 6


def test_random_elements_mostly_fully_scattered():
    # most uniform permutations have nearly one cluster per leaf
    rng = random.Random(71)
    scattered = 0
    total = 300
    for _ in range(total):
        n = 9
        p = list(range(1, n + 1))
        rng.shuffle(p)
        if len(perms.cluster_runs(tuple(p))) >= n - 2:
            scattered += 1
    assert scattered > total // 2


def test_survey_records_consistent():
    records = list(survey_bounds(count=30, carets=4, radius=3, seed=5))
    assert len(records) == 30
    for r in records:
        x = Element.parse(r.element_text)
        assert x.is_reduced()
        assert x.caret_count() == r.carets
        assert x.cluster_count() == r.clusters
        if r.clusters == 1:
            assert r.new_bound == r.carets
        assert r.new_bound <= r.birget + 20.0
        if r.exact_length is not None:
            assert r.exact_length <= 3
            assert r.exact_length >= r.carets / 3.0  # c1 = 3 from the sweep


def test_survey_csv_deterministic():
    a, b = io.StringIO(), io.StringIO()
    survey_csv(survey_bounds(count=20, carets=5, radius=2, seed=9), a)
    survey_csv(survey_bounds(count=20, carets=5, radius=2, seed=9), b)
    a, b = a.getvalue(), b.getvalue()
    assert a == b
    header = a.splitlines()[0]
    assert header == ",".join(SURVEY_HEADER)
    assert len(a.splitlines()) == 21


def test_survey_draws_with_one_catalan_table(monkeypatch):
    # the rows are Element.random's seeded draws, made with one table for the whole survey
    rng = random.Random(4)
    texts = [Element.random(6, rng).reduce().text() for _ in range(10)]
    built = []
    catalan = experiments._catalan
    monkeypatch.setattr(experiments, "_catalan", lambda n: built.append(n) or catalan(n))
    monkeypatch.setattr(elements, "_catalan", None)  # Element.random's own table
    assert [r.element_text for r in survey_bounds(10, 6, 0, 4)] == texts
    assert built == [6]


def test_survey_refused_past_the_budget():
    # the Catalan table of a survey passes 16 MB between N = 9185 and 9186
    assert len(list(survey_bounds(1, 9185, 0, 0, budget_mb=16))) == 1
    with pytest.raises(ResourceLimitError) as err:
        survey_bounds(1, 9186, 0, 0, budget_mb=16)
    assert str(err.value) == "memory budget of 16 MB exceeded"
    assert err.value.completed_radius is None
    # the ball is charged to the same budget: the table's 16,775,747 bytes leave no room for
    # the radius-3 ball, which is refused after its start
    with pytest.raises(ResourceLimitError) as err:
        survey_bounds(1, 9185, 3, 0, budget_mb=16)
    assert err.value.completed_radius == 0


def test_product_length_bracketed_by_oracle():
    # where the oracle reaches P_n, the exact length sits between the
    # caret-count lower bound and the explicit witness word
    report = estimate_constants(4)
    c1 = report.carets_over_length
    for n in (1, 2):
        product, word = counterexample_product(n)
        result = exact_word_length(product, 12)
        assert result.known
        assert result.length <= len(word)
        assert result.length >= product.caret_count() / c1


def test_estimate_constants():
    report = estimate_constants(3)
    again = estimate_constants(3)
    assert str(report) == str(again)  # deterministic
    assert report.carets_over_length >= 1 / 8
    assert report.length_over_bound >= 1 / 8
    assert report.sizes[0] == 1 and report.sizes[1] == 7
    assert "radius: 3" in str(report)
    # witnesses really attain the reported ratios
    w = Element.parse(report.carets_witness)
    assert w.caret_count() / 3 <= report.carets_over_length
