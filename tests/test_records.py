"""The six value classes against the dataclasses they replace.

`trees.Cut` and, in `growth`, `GrowthLeaf`, `GrowthApply`, `GrowthCombo`,
`GradedBasis` and `ClosureReport` are hand-written `__slots__` records, so
that importing the package does not import `dataclasses` (and with it
`inspect`).  Every sample value is converted to its dataclass copy from
`oracles.py`, and the two must agree on equality, hashing (or its
absence), repr and str up to the class-name prefix, immutability,
construction, and copy, deepcopy and pickle round trips.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import (DataclassClosureReport, DataclassCut, DataclassGradedBasis,
                     DataclassGrowthApply, DataclassGrowthCombo, DataclassGrowthLeaf)
from treehopf import LEAF, LinComb, admissible_cuts, enumerate_trees, parse_tree
from treehopf.growth import (ClosureReport, GradedBasis, GrowthApply, GrowthCombo, GrowthLeaf,
                             closure_check, decompose, generate_subalgebra, parse_growth_expr)
from treehopf.trees import Cut

REFERENCE = {
    Cut: DataclassCut,
    GrowthLeaf: DataclassGrowthLeaf,
    GrowthApply: DataclassGrowthApply,
    GrowthCombo: DataclassGrowthCombo,
    GradedBasis: DataclassGradedBasis,
    ClosureReport: DataclassClosureReport,
}
FROZEN = (Cut, GrowthLeaf, GrowthApply, GrowthCombo)


def as_dataclass(x):
    """`x` with every record in it, nested ones too, replaced by its dataclass copy."""
    if isinstance(x, tuple):
        return tuple(as_dataclass(v) for v in x)
    ref = REFERENCE.get(type(x))
    if ref is None:
        return x
    return ref(*[as_dataclass(getattr(x, f.name)) for f in dataclasses.fields(ref)])


def unprefixed(text: str) -> str:
    return text.replace("Dataclass", "")


def field_names(x):
    return [f.name for f in dataclasses.fields(REFERENCE[type(x)])]


TREES = [t for n in range(1, 6) for t in enumerate_trees(n)]
CUTS = [cut for t in TREES if t.vertex_count <= 4 for cut, _, _ in admissible_cuts(t)]
EXPRS = ([GrowthLeaf(), GrowthApply(LEAF, GrowthLeaf()),
          GrowthCombo(((Fraction(1), GrowthLeaf()),)), GrowthCombo(()),
          parse_growth_expr("1/2 N{[]}(.) - 3 (N{[[]]}(.) + N{[]}(N{[]}(.)))")]
         + [decompose(t) for t in TREES])
BASES = [generate_subalgebra([LEAF], 3), generate_subalgebra([parse_tree("[[]]")], 3),
         generate_subalgebra([parse_tree("[[][]]")], 4)]
REPORTS = [closure_check(b) for b in BASES] + [ClosureReport(True)]
SAMPLES = CUTS + EXPRS + BASES + REPORTS


def test_the_samples_cover_every_class_and_both_closure_outcomes():
    assert {type(x) for x in SAMPLES} == set(REFERENCE)
    assert {r.ok for r in REPORTS} == {True, False}


def test_equality_matches_the_dataclasses():
    refs = [as_dataclass(x) for x in SAMPLES]
    for a, ra in zip(SAMPLES, refs):
        assert type(ra) is REFERENCE[type(a)]
        for b, rb in zip(SAMPLES, refs):
            assert (a == b) is (ra == rb)
            assert (a != b) is (ra != rb)
        # Equal fields are not enough: the classes must match too.
        assert a != ra and ra != a
        assert a != tuple(getattr(a, name) for name in field_names(a))


def test_equality_needs_the_same_class():
    class SubCut(Cut):
        __slots__ = ()

    class SubDataclassCut(DataclassCut):
        pass

    edges = frozenset({(0,)})
    assert Cut(edges, "proper") != SubCut(edges, "proper")
    assert DataclassCut(edges, "proper") != SubDataclassCut(edges, "proper")
    assert Cut(LEAF, GrowthLeaf()) != GrowthApply(LEAF, GrowthLeaf())
    assert DataclassCut(LEAF, GrowthLeaf()) != DataclassGrowthApply(LEAF, GrowthLeaf())


def test_equal_values_built_apart_are_equal():
    assert Cut(frozenset({(0,)}), "proper") == Cut(frozenset({(0,)}), "proper")
    assert Cut(frozenset(), "empty") != Cut(frozenset(), "full")
    assert GrowthLeaf() == GrowthLeaf()
    assert decompose(parse_tree("[[][]]")) == parse_growth_expr(str(decompose(parse_tree("[[][]]"))))
    assert generate_subalgebra([LEAF], 3) == generate_subalgebra([LEAF], 3)
    assert ClosureReport(True) == ClosureReport(ok=True)


def test_hash_matches_the_dataclasses():
    for x in SAMPLES:
        ref = as_dataclass(x)
        if type(x) in FROZEN:
            assert hash(x) == hash(ref) == hash(tuple(getattr(x, f) for f in field_names(x)))
        else:
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(ref)
    assert hash(GrowthLeaf()) == hash(())
    assert len({*CUTS}) == len({as_dataclass(c) for c in CUTS})


def test_repr_and_str_match_the_dataclasses():
    for x in SAMPLES:
        ref = as_dataclass(x)
        assert repr(x) == unprefixed(repr(ref))
        assert str(x) == unprefixed(str(ref))
    assert repr(GrowthLeaf()) == "GrowthLeaf()"
    assert repr(Cut(frozenset(), "full")) == "Cut(edges=frozenset(), kind='full')"
    assert [bool(r) for r in REPORTS] == [bool(as_dataclass(r)) for r in REPORTS]


def test_frozen_records_refuse_assignment_and_deletion():
    for x in CUTS[:5] + EXPRS:
        for obj in (x, as_dataclass(x)):
            for name in field_names(x):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
            with pytest.raises(AttributeError):
                obj.extra = 1


def test_mutable_records_take_assignment_like_the_dataclasses():
    for make in (lambda: generate_subalgebra([LEAF], 3), lambda: closure_check(BASES[1])):
        x, ref = make(), as_dataclass(make())
        for obj in (x, ref):
            name = field_names(x)[0]
            setattr(obj, name, "changed")
            assert getattr(obj, name) == "changed"
        assert repr(x) == unprefixed(repr(ref))
        assert x != make()


def test_construction_matches_the_dataclasses():
    edges = frozenset({(0,), (1, 0)})
    expr = GrowthApply(LEAF, GrowthLeaf())
    basis = BASES[0]
    cases = [
        (Cut, (edges, "proper"), {"edges": edges, "kind": "proper"}),
        (GrowthLeaf, (), {}),
        (GrowthApply, (LEAF, GrowthLeaf()), {"tree": LEAF, "sub": GrowthLeaf()}),
        (GrowthCombo, (((Fraction(2), expr),),), {"parts": ((Fraction(2), expr),)}),
        (GradedBasis, (basis.generators, 3, basis.by_degree),
         {"generators": basis.generators, "max_degree": 3, "by_degree": basis.by_degree}),
        (ClosureReport, (False, LinComb.of(LEAF), (1, 0), None),
         {"ok": False, "element": LinComb.of(LEAF), "bidegree": (1, 0), "term": None}),
    ]
    for cls, args, kwargs in cases:
        ref = REFERENCE[cls]
        assert cls(*args) == cls(**kwargs)
        assert repr(cls(*args)) == unprefixed(repr(ref(*as_dataclass(args))))
        for bad_args, bad_kwargs in ((args + (None,), {}), ((), {"nope": 1})):
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)
            with pytest.raises(TypeError):
                ref(*bad_args, **bad_kwargs)
        if args:
            with pytest.raises(TypeError):
                cls()
            with pytest.raises(TypeError):
                ref()
    # Only the closure report has defaults.
    assert ClosureReport(True) == ClosureReport(True, None, None, None)
    assert repr(ClosureReport(True)) == unprefixed(repr(DataclassClosureReport(True)))


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(round_trip):
    for x in SAMPLES:
        y = round_trip(x)
        assert type(y) is type(x)
        assert y == x
        assert repr(y) == repr(x)
        assert unprefixed(repr(round_trip(as_dataclass(x)))) == repr(x)
        if type(x) in FROZEN:
            assert hash(y) == hash(x)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Compare the modules before and after the import, so that whatever the
    # interpreter's start-up loads does not count.
    code = ("import sys; before = set(sys.modules); import treehopf.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "treehopf.cli" in added
    assert not added & {"dataclasses", "inspect"}
