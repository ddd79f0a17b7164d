import json
import os
import random
import subprocess
import sys

import pytest

from oracles import in_span, reference_closure_check

from treehopf import (
    Forest,
    LEAF,
    LinComb,
    b_plus,
    closure_check,
    coproduct,
    decompose,
    delta_k,
    enumerate_trees,
    eval_growth_expr,
    fan_closed_form_report,
    fan_coproduct,
    fan_graph,
    generate_subalgebra,
    natural_growth,
    parse_growth_expr,
    parse_tree,
)
from treehopf.growth import GrowthApply, GrowthLeaf
from treehopf.trees import TreeParseError

CHERRY = parse_tree("[[][]]")
L2 = parse_tree("[[]]")


def test_decompose_base_cases():
    assert isinstance(decompose(LEAF), GrowthLeaf)
    expr = decompose(b_plus(Forest((CHERRY,))))
    assert isinstance(expr, GrowthApply)
    assert expr.tree == CHERRY
    assert isinstance(expr.sub, GrowthLeaf)


def test_decompose_round_trip():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert eval_growth_expr(decompose(t)) == LinComb.of(t), t.serial


def test_eval_growth_leaf_and_iterates():
    assert eval_growth_expr(GrowthLeaf()) == LinComb.of(LEAF)
    expr = GrowthApply(LEAF, GrowthApply(LEAF, GrowthLeaf()))
    assert eval_growth_expr(expr) == delta_k(3)


def test_delta_k_recombination():
    for k in range(1, 6):
        acc = LinComb.of(LEAF)
        for _ in range(k - 1):
            acc = natural_growth(LEAF, acc)
        assert acc == delta_k(k)


def test_growth_expr_text_round_trip():
    for t in [CHERRY, parse_tree("[[[]][]]"), parse_tree("[[][][]]")]:
        expr = decompose(t)
        parsed = parse_growth_expr(str(expr))
        assert eval_growth_expr(parsed) == LinComb.of(t)


@pytest.mark.parametrize("text", ["1/0 .", "1/2/3 .", "// ."])
def test_malformed_growth_coefficient_is_a_parse_error_at_its_start(text):
    with pytest.raises(TreeParseError) as info:
        parse_growth_expr(text)
    assert type(info.value) is TreeParseError
    assert str(info.value) == f"malformed rational coefficient at position 0: {text!r}"
    assert info.value.pos == 0


def test_fan_graphs():
    assert fan_graph(1) == LEAF
    assert fan_graph(2) == L2
    assert fan_graph(3) == CHERRY
    for i in range(1, 9):
        f = fan_graph(i)
        assert f.vertex_count == i
        assert f.fertility == i - 1
    with pytest.raises(ValueError):
        fan_graph(0)


def test_fan_coproduct_f1_f3():
    assert fan_coproduct(1) == coproduct(LinComb.of(LEAF))
    got = fan_coproduct(3)
    from treehopf import EMPTY_FOREST, Tensor2

    want = (
        Tensor2.of(EMPTY_FOREST, Forest((CHERRY,)))
        + Tensor2.of(Forest((CHERRY,)), EMPTY_FOREST)
        + Tensor2.of(Forest((LEAF,)), Forest((L2,)), 2)
        + Tensor2.of(Forest((LEAF, LEAF)), Forest((LEAF,)))
    )
    assert got == want


def test_fan_closed_form_resolves_subscript():
    for n in range(1, 8):
        rep = fan_closed_form_report(n)
        assert rep["matches_f_n_minus_i"], n
        for i, want in rep["expected_binomials"].items():
            assert rep["binomial_coefficients"].get(i, 0) == want
    # the off-by-one variant does not match once proper cuts exist
    for n in range(3, 8):
        assert not fan_closed_form_report(n)["matches_paper_f_n_minus_i_minus_1"], n


def test_subalgebra_hck_dimensions():
    basis = generate_subalgebra({LEAF}, 6)
    dims = {d: len(b) for d, b in basis.by_degree.items()}
    # graded dimensions of the polynomial algebra on one generator per degree
    assert dims == {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
    for d, elems in basis.by_degree.items():
        for e in elems:
            assert e.homogeneous_degree() == d


def test_subalgebra_contains_iterated_growth():
    basis = generate_subalgebra({fan_graph(1), fan_graph(2)}, 4)
    degree4 = basis.degree_span(4)
    target = natural_growth(fan_graph(2), LinComb.of(fan_graph(2)))
    assert in_span([e.terms for e in degree4], target.terms)


def test_closure_of_fan_subalgebras():
    for k in (1, 2, 3):
        gens = {fan_graph(i) for i in range(1, k + 1)}
        assert closure_check(generate_subalgebra(gens, 6)), k


def test_closure_fails_without_hopf_hypothesis():
    rep = closure_check(generate_subalgebra({CHERRY}, 6))
    assert not rep
    assert rep.element is not None
    assert rep.bidegree is not None
    # the escaping leg is the single vertex produced by a leaf cut
    assert rep.bidegree[0] == 1 or rep.bidegree[1] == 1


def _same_closure_report(gens, max_degree):
    basis = generate_subalgebra(gens, max_degree)
    got, want = closure_check(basis), reference_closure_check(basis)
    assert (got.ok, got.element, got.bidegree, got.term) == (
        want.ok, want.element, want.bidegree, want.term), (gens, max_degree)
    assert str(got) == str(want)
    return got


@pytest.mark.parametrize("gens, max_degree, ok", [
    ({fan_graph(1)}, 6, True),
    ({fan_graph(1), fan_graph(2)}, 6, True),
    ({fan_graph(1), fan_graph(2), fan_graph(3)}, 6, True),
    ({CHERRY}, 6, False),
    ({parse_tree("[[[]]]")}, 4, False),
    ({LEAF, parse_tree("[[[]]]")}, 5, False),
])
def test_closure_check_matches_the_per_component_reference(gens, max_degree, ok):
    assert _same_closure_report(gens, max_degree).ok is ok


def test_closure_check_matches_the_reference_on_random_generators():
    rng = random.Random(15)
    small = [t for n in range(1, 5) for t in enumerate_trees(n)]
    outcomes = set()
    for _ in range(40):
        gens = set(rng.sample(small, rng.randint(1, 3)))
        top = max(t.vertex_count for t in gens)
        outcomes.add(_same_closure_report(gens, rng.randint(top, 5)).ok)
    assert outcomes == {True, False}


def test_generate_subalgebra_validates_input():
    with pytest.raises(ValueError):
        generate_subalgebra(set(), 4)
    with pytest.raises(ValueError):
        generate_subalgebra({CHERRY}, 2)


def test_basis_independence():
    basis = generate_subalgebra({LEAF, L2}, 5)
    from treehopf.linalg import independent_rows

    for d, elems in basis.by_degree.items():
        assert len(independent_rows([e.terms for e in elems])) == len(elems)


# Runs the growth suite twice in one process: first on empty memos, then warm.
_GROWTH_TWICE = """
import json
from treehopf.verify import verify_growth
print(json.dumps(verify_growth(6)))
print(json.dumps(verify_growth(6)))
"""


def test_growth_suite_reports_the_same_cold_and_warm():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _GROWTH_TWICE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    cold, warm = proc.stdout.splitlines()
    assert json.loads(cold)["ok"] and json.loads(cold)["checks"] > 0
    assert cold == warm
