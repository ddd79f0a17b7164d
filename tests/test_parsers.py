"""Differential test of the text parsers against their frozen references.

Each public parser must return the same value as its reference in
`oracles.py`, or raise the same exception class with the same message and
the same `.pos`.  Two differences are documented.  A malformed growth
coefficient (`1/0`, `1/2/3`, `//`) made the reference raise a bare
ZeroDivisionError or ValueError, and now raises
TreeParseError("malformed rational coefficient") at the coefficient's start,
as `parse_lincomb` does.  A polynomial exponent of digits that `str.isdigit`
accepts but `int` does not (`x^²`) made the reference raise a bare
ValueError, and now raises SeriesParseError("malformed exponent") at the
exponent's start.

Inputs are strings over each grammar's alphabet and valid inputs with a
few characters inserted, deleted or replaced.  The alphabets hold Unicode
digits that `str.isdigit` accepts (`²` is not a decimal digit, `١` and `٣`
are) and non-ASCII whitespace.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    reference_parse_forest,
    reference_parse_growth_expr,
    reference_parse_lincomb,
    reference_parse_polynomial,
    reference_parse_tree,
)
from treehopf import (enumerate_trees, parse_forest, parse_growth_expr, parse_lincomb,
                      parse_polynomial, parse_tree)
from treehopf.series import SeriesParseError
from treehopf.trees import TreeParseError

WHITESPACE = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000"]
DIGITS = ["0", "1", "2", "3", "12", "/", "1/2", "²", "١", "٣"]
SIGNS = ["+", "-", " + ", " - "]
TREES = [t.serial for n in range(1, 5) for t in enumerate_trees(n)]

TREE_TOKENS = ["[", "]", "[]", "[[]]", "*", "1", "x", *WHITESPACE, *DIGITS[:3]]
LINCOMB_TOKENS = ["[", "]", "[]", "[[]]", "*", *DIGITS, *SIGNS, *WHITESPACE, "x"]
GROWTH_TOKENS = [".", "N{", "N", "{", "}", "(", ")", "[", "]", "[]", *DIGITS, *SIGNS,
                 *WHITESPACE]
POLY_TOKENS = ["x", "y", "x1", "x2", "x12", "^", "^2", "*", "z", *DIGITS, *SIGNS, *WHITESPACE]


def _tree():
    return st.sampled_from(TREES)


def _forest():
    return st.one_of(st.just("1"), st.lists(_tree(), min_size=1, max_size=3).map(" * ".join))


def _coefficient():
    return st.sampled_from(["", "2 ", "1/2 ", "3/4 ", "0 ", "1 "])


def _signed_sum(term):
    """`term`s joined by `+` or `-`, with an optional leading sign."""
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(s + t for s, t in rest),
        st.sampled_from(["", "-", "+ "]), term,
        st.lists(st.tuples(st.sampled_from(SIGNS), term), max_size=2))


def _growth():
    leaf = st.just(".")

    def grow(inner):
        atom = st.one_of(
            st.builds("N{{{}}}({})".format, _tree(), inner),
            inner.map("({})".format))
        return _signed_sum(st.builds(str.__add__, _coefficient(), atom))

    return st.recursive(leaf, grow, max_leaves=4)


def _polynomial(names):
    factor = st.builds(str.__add__, st.sampled_from(names), st.sampled_from(["", "^2", "^3"]))
    monomial = st.builds(lambda c, fs: c + " ".join(fs), _coefficient(),
                         st.lists(factor, min_size=1, max_size=3))
    return _signed_sum(st.one_of(monomial, st.sampled_from(["1", "2", "1/3"])))


def _texts(tokens, valid):
    """Token strings, and valid inputs with up to three one-character edits."""
    chars = sorted({c for tok in tokens for c in tok})
    edit = st.tuples(st.integers(0, 40), st.sampled_from(["insert", "delete", "replace"]),
                     st.sampled_from(chars))

    def mutate(text, edits):
        for at, op, char in edits:
            at = min(at, len(text))
            if op == "insert":
                text = text[:at] + char + text[at:]
            elif op == "delete":
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + char + text[at + 1:]
        return text

    return st.one_of(
        st.lists(st.sampled_from(tokens), max_size=10).map("".join),
        st.builds(mutate, valid, st.lists(edit, max_size=3)))


def _poly(names, trunc):
    return (lambda text: parse_polynomial(text, names, trunc),
            lambda text: reference_parse_polynomial(text, names, trunc),
            lambda p: (p, p.nvars, p.trunc, str(p)),
            _texts(POLY_TOKENS, _polynomial(names)))


# grammar -> (parser, frozen reference, the view of a value that must agree, inputs)
GRAMMARS = {
    "tree": (parse_tree, reference_parse_tree, lambda t: (t,), _texts(TREE_TOKENS, _tree())),
    "forest": (parse_forest, reference_parse_forest, lambda f: (f,),
               _texts(TREE_TOKENS, _forest())),
    "lincomb": (parse_lincomb, reference_parse_lincomb, lambda x: (x, str(x)),
                _texts(LINCOMB_TOKENS, _signed_sum(st.builds(str.__add__, _coefficient(),
                                                             _forest())))),
    "growth": (parse_growth_expr, reference_parse_growth_expr,
               lambda e: (e, repr(e), str(e)), _texts(GROWTH_TOKENS, _growth())),
    "polynomial-x": _poly(["x"], None),
    "polynomial-x-trunc": _poly(["x"], 3),
    "polynomial-xy": _poly(["x", "y"], None),
    "polynomial-x1-x2-x12": _poly(["x1", "x2", "x12"], 4),
}


def _outcome(fn, view, text):
    try:
        return "value", view(fn(text))
    except Exception as exc:
        return "error", (type(exc), str(exc), getattr(exc, "pos", None))


def _is_growth_coefficient_fix(grammar, text, got, want):
    """The documented difference: a reference coefficient error the scanner now names."""
    if grammar != "growth" or want[0] != "error":
        return False
    if want[1][0] not in (ValueError, ZeroDivisionError):
        return False
    assert got[0] == "error", text
    cls, message, pos = got[1]
    assert cls is TreeParseError
    assert message == f"malformed rational coefficient at position {pos}: {text!r}"
    # pos starts the run of digits and `/` that the coefficient is.
    assert text[pos].isdigit() or text[pos] == "/"
    assert pos == 0 or not (text[pos - 1].isdigit() or text[pos - 1] == "/")
    return True


def _is_polynomial_exponent_fix(grammar, text, got, want):
    """The documented difference: a reference `int` error on an exponent the scanner now names."""
    if not grammar.startswith("polynomial") or want[0] != "error" or want[1][0] is not ValueError:
        return False
    assert got[0] == "error", text
    cls, message, pos = got[1]
    assert cls is SeriesParseError
    assert message == f"malformed exponent at position {pos}: {text!r}"
    # pos starts the digit run after a `^`, and that run is not a decimal number.
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    assert pos > 0 and text[pos - 1] == "^"
    assert end > pos and not text[pos:end].isdecimal()
    return True


def _huge_exact_power(grammar, text):
    """A big exponent of an exact one-variable polynomial, which the reference builds densely."""
    if grammar != "polynomial-x":
        return False
    for at in (i for i, c in enumerate(text) if c == "^"):
        end = at + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        try:
            if int(text[at + 1:end] or 0) > 64:
                return True
        except ValueError:
            pass
    return False


def _check(grammar, text):
    parse, reference, view, _ = GRAMMARS[grammar]
    want = _outcome(reference, view, text)
    got = _outcome(parse, view, text)
    if not (_is_growth_coefficient_fix(grammar, text, got, want)
            or _is_polynomial_exponent_fix(grammar, text, got, want)):
        assert got == want, text


@pytest.mark.parametrize("grammar", list(GRAMMARS))
def test_parsers_match_their_frozen_references(grammar):
    @settings(max_examples=250)
    @given(GRAMMARS[grammar][3])
    @example("")
    @example("  ")
    @example("١ [[]]" if grammar == "lincomb" else "²")
    def run(text):
        assume(not _huge_exact_power(grammar, text))
        _check(grammar, text)

    run()


@pytest.mark.parametrize("grammar, text", [
    ("tree", "[ [] [[ ]] ] "), ("tree", "[]]"), ("tree", "[[]"),
    ("forest", " 1 "), ("forest", "1 *[]"), ("forest", "[] *\t[[]] "), ("forest", "[]*"),
    ("lincomb", "0"), ("lincomb", "1"), ("lincomb", "1 + 1"), ("lincomb", "- 1 [] + 1"),
    ("lincomb", "1*[]"), ("lincomb", "1/0 [[]]"), ("lincomb", "١ []"), ("lincomb", "١/٣ []"),
    ("lincomb", "² []"), ("lincomb", "[] []"), ("lincomb", "[] +"),
    ("lincomb", "2 1 - 1/2 [[]]*[]"),
    ("growth", "2 N{[]}(.) - 1/2 ."), ("growth", "-(. + .)"), ("growth", "+ ."),
    ("growth", "N{[]} (.)"), ("growth", "N{[] }(.)"), ("growth", "N{ []}(.)"),
    ("growth", "N{[]}x"), ("growth", "١ ."), ("growth", ". )"),
    ("polynomial-x", "x + 1/2 x^2 - x^3"), ("polynomial-x", "x^"), ("polynomial-x", "x^²"),
    ("polynomial-x", "x^١٢"), ("polynomial-x", "- 3*x x"), ("polynomial-x", "x +"),
    ("polynomial-x", "* + x"), ("polynomial-x", "1/0 x"), ("polynomial-x", "q"),
    ("polynomial-x", "x - x"), ("polynomial-x-trunc", "x^5 + x"),
    ("polynomial-xy", "y^2 x - y + x y^2"),
    ("polynomial-x1-x2-x12", "x12 x1^2 - x2 + x1^2 x12"), ("polynomial-xy", "x^1² + y"),
])
def test_known_inputs_match_their_frozen_references(grammar, text):
    _check(grammar, text)
