"""The sparse int echelon against a Fraction rref per candidate row.

Rows are lists, read as index -> entry, or mappings keyed by ints, forests
and forest pairs; the oracle always sees the dense expansion.
"""

import random
from fractions import Fraction

from oracles import in_span, rref_in_span, rref_independent_rows

from treehopf.linalg import Span, independent_rows
from treehopf.trees import EMPTY_FOREST, enumerate_forests


def random_entry(rng):
    if rng.random() < 0.5:
        return 0
    if rng.random() < 0.3:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randint(-3, 3)


def combination(rng, rows, width):
    out = [0] * width
    for row in rng.sample(rows, rng.randint(1, len(rows))):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out = [a + c * b for a, b in zip(out, row)]
    return out


def random_matrix(rng):
    """Rows with zero rows, duplicates and planted combinations mixed in."""
    width = rng.randint(0, 7)
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * width)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.45 and rows:
            rows.append(combination(rng, rows, width))
        else:
            rows.append([random_entry(rng) for _ in range(width)])
    return rows, width


def test_independent_rows_matches_rref_oracle():
    rng = random.Random(2024)
    for trial in range(2500):
        rows, _ = random_matrix(rng)
        assert independent_rows(rows) == rref_independent_rows(rows), (trial, rows)


def test_in_span_matches_rref_oracle():
    rng = random.Random(1968)
    for trial in range(2500):
        rows, width = random_matrix(rng)
        targets = [[0] * width, [random_entry(rng) for _ in range(width)]]
        if rows:
            targets.append(combination(rng, rows, width))
        for target in targets:
            assert in_span(rows, target) == rref_in_span(rows, target), (trial, rows, target)


def test_empty_and_zero_width():
    assert independent_rows([]) == []
    assert independent_rows([[], []]) == []
    assert in_span([], [])
    assert in_span([[]], [])
    assert in_span([], [0, 0])
    assert not in_span([], [0, Fraction(1, 2)])
    assert independent_rows([[0, 0], [0, -1], [0, 3], [Fraction(1, 3), 1]]) == [1, 3]


def probe(rng, rows, width):
    """A zero row, a random row, or a combination of `rows`, as ints or Fractions."""
    kind = rng.random()
    if kind < 0.2:
        row = [0] * width
    elif kind < 0.6 and rows:
        row = combination(rng, rows, width)
    else:
        row = [random_entry(rng) for _ in range(width)]
    return [Fraction(x) for x in row] if rng.random() < 0.3 else row


def test_span_add_and_contains_match_rref_oracle():
    rng = random.Random(1515)
    for trial in range(1200):
        rows, width = random_matrix(rng)
        span, added, kept = Span(), [], []
        for row in rows:
            for _ in range(rng.randint(0, 2)):
                target = probe(rng, added, width)
                assert span.contains(target) == rref_in_span(added, target), (trial, added, target)
            if span.add(row):
                kept.append(len(added))
            added.append(row)
        assert kept == rref_independent_rows(added), (trial, added)
        target = probe(rng, added, width)
        assert span.contains(target) == rref_in_span(added, target), (trial, added, target)


def test_empty_span_and_empty_rows():
    span = Span()
    assert span.contains([])
    assert span.contains([0, Fraction(0)])
    assert not span.contains([0, Fraction(1, 2)])
    assert not span.add([])
    assert not span.add([0, 0])
    assert span.contains([0, 0])
    assert span.add([Fraction(1, 2), 0])
    assert span.contains([3, 0])
    assert not span.contains([3, 1])
    assert not span.add([Fraction(-4, 3), 0])


# Mapping rows: the same systems keyed by ints, forests and forest pairs.
_FORESTS = [f for n in range(4) for f in enumerate_forests(n)]
_KEY_POOL = (list(range(-2, 6)) + _FORESTS
             + [(a, b) for a in _FORESTS[:4] for b in _FORESTS[:4]])


def as_mapping(rng, row, keys):
    """`row` keyed by `keys`, with some explicit zeros, inserted in shuffled order."""
    items = [(k, x if x else rng.choice((0, Fraction(0))))
             for k, x in zip(keys, row) if x or rng.random() < 0.3]
    rng.shuffle(items)
    return dict(items)


def keyed_system(rng):
    """Dense rows padded by columns that no row reaches, and distinct mixed keys for all."""
    rows, width = random_matrix(rng)
    width_all = width + rng.randint(0, 2)
    rows = [row + [0] * (width_all - width) for row in rows]
    return rows, width_all, rng.sample(_KEY_POOL, width_all)


def test_independent_rows_on_mappings_matches_rref_oracle():
    rng = random.Random(1818)
    for trial in range(800):
        rows, _, keys = keyed_system(rng)
        want = rref_independent_rows(rows)
        for _ in range(2):  # a second pass inserts every key in another order
            mappings = [as_mapping(rng, row, keys) for row in rows]
            assert independent_rows(mappings) == want, (trial, rows, mappings)


def test_span_on_mappings_matches_rref_oracle():
    rng = random.Random(1819)
    for trial in range(600):
        rows, width, keys = keyed_system(rng)
        span, added, kept = Span(), [], []
        for row in rows:
            for _ in range(rng.randint(0, 2)):
                # probes may hold the padding keys, which no kept row has
                target = probe(rng, added, width)
                got = span.contains(as_mapping(rng, target, keys))
                assert got == rref_in_span(added, target), (trial, added, target)
            if span.add(as_mapping(rng, row, keys)):
                kept.append(len(added))
            added.append(row)
        assert kept == rref_independent_rows(added), (trial, added)
        target = probe(rng, added, width)
        want = rref_in_span(added, target)
        mapped = [as_mapping(rng, row, keys) for row in added]
        assert in_span(mapped, as_mapping(rng, target, keys)) == want, (trial, added, target)


def test_in_span_tests_the_values_of_a_mapping_target():
    # 0 is a falsy key: only the entries decide.
    assert not in_span([], {0: 5})
    assert not in_span([{1: 1}], {0: Fraction(1, 2)})
    assert in_span([{0: 2}], {0: Fraction(-1, 3)})
    assert in_span([], {0: 0, 1: Fraction(0)})
    assert not in_span([{1: 1}], {EMPTY_FOREST: 1})
    assert in_span([{EMPTY_FOREST: 3, 0: 1}], {0: 2, EMPTY_FOREST: 6})
