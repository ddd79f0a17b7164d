"""Per-layer tracing of treehopf from outside the library.

`install` wraps the public functions and operators of each treehopf module
and rebinds every module-level name that referred to the original, so
`growth`'s own references to `coproduct` or `independent_rows` are traced
as well.  Spans (name, start, end, parent span, op id) are kept in flat
arrays in memory and written when the run ends; `aggregate` turns them
into calls and self time per name, and `layer_values` and `ratios` into
the per-layer metrics of BENCHMARK.json.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from types import SimpleNamespace

clock = time.perf_counter


class Trace:
    """In-memory span store plus the work counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.nids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = -1
        self.enabled = False
        self.counts: dict[str, int] = defaultdict(int)
        self.gamma_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def inside(self, name: str) -> bool:
        nid = self.ids.get(name)
        return any(self.nids[i] == nid for i in self.stack[1:])

    def write(self, path: str, extra: dict) -> None:
        """Write the spans as `path`.bin (five flat arrays) and `path`.json."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.nids, self.parents, self.ops, self.starts, self.ends):
                arr.tofile(fh)
        counts = dict(self.counts)
        counts["frame.gamma_t.distinct_keys"] = len(self.gamma_keys)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "n": len(self.nids), "counts": counts, **extra}, fh)


def read_spans(path: str):
    """(meta, nids, parents, starts, ends) as written by Trace.write."""
    with open(path + ".json") as fh:
        meta = json.load(fh)
    n = meta["n"]
    arrays = [array(code) for code in "iiidd"]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    nids, parents, _ops, starts, ends = arrays
    return meta, nids, parents, starts, ends


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(names, nids, parents, starts, ends) -> dict:
    """Per span name: calls, and self time = duration minus what child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = {name: {"calls": 0, "self_s": 0.0} for name in names}
    for i, nid in enumerate(nids):
        rec = out[names[nid]]
        rec["calls"] += 1
        rec["self_s"] += (ends[i] - starts[i]) - covered(children.get(i, ()), starts[i], ends[i])
    return out


# -- wrappers -------------------------------------------------------------------


def span(trace: Trace, name: str, fn, count=None):
    """Wrap fn so each call records a span and, optionally, work counts."""
    nid = trace.name_id(name)
    nids, parents, ops, starts, ends, stack = (
        trace.nids, trace.parents, trace.ops, trace.starts, trace.ends, trace.stack)

    def wrapper(*args, **kwargs):
        if not trace.enabled:
            return fn(*args, **kwargs)
        idx = len(nids)
        nids.append(nid)
        parents.append(stack[-1])
        ops.append(trace.op)
        starts.append(0.0)
        ends.append(0.0)
        stack.append(idx)
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
        if count is not None:
            count(trace, args, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def counter(trace: Trace, name: str, fn):
    """Wrap fn so each call only bumps `name`; used on the hottest constructors."""
    counts = trace.counts

    def wrapper(*args, **kwargs):
        if trace.enabled:
            counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _add(name, value_fn):
    def count(trace, args, out):
        trace.counts[name] += value_fn(args, out)
    return count


def _independent_rows(trace, args, out):
    rows = args[0]
    trace.counts["linalg.independent_rows.rows_in"] += len(rows)
    trace.counts["linalg.independent_rows.kept"] += len(out)
    if trace.inside("growth.generate_subalgebra"):
        trace.counts["growth.generate_subalgebra.candidates"] += len(rows)


def _series_mul(trace, args, out):
    a, b = args
    pairs = len(a.terms) * len(b.terms)
    trace.counts["series.MultiSeries.mul.coeff_pairs"] += pairs
    if a.nvars == 1:
        trace.counts["series.MultiSeries.mul.univariate_pairs"] += pairs


def _gamma_key(trace, args, out):
    t, psi, gamma = args
    trace.gamma_keys.add((t.serial, frozenset(psi.series.terms.items()), psi.series.trunc,
                          frozenset(gamma.terms.items()), gamma.trunc))


def _solve_cells(args, out):
    a = args[0]
    return len(a) * (len(a[0]) + 1) if a else 0


# (module, attribute, span name, count function); "Class.method" patches the class.
SPANS = (
    ("trees", "admissible_cuts", "trees.admissible_cuts",
     _add("trees.admissible_cuts.cuts", lambda a, o: len(o))),
    ("trees", "enumerate_trees", "trees.enumerate_trees", None),
    ("trees", "parse_tree", "trees.parse", None),
    ("trees", "parse_forest", "trees.parse", None),
    ("hopf", "parse_lincomb", "trees.parse", None),
    ("hopf", "coproduct", "hopf.coproduct", _add("hopf.coproduct.terms_out", lambda a, o: len(o.terms))),
    ("hopf", "antipode", "hopf.antipode", _add("hopf.antipode.terms_out", lambda a, o: len(o.terms))),
    ("hopf", "natural_growth", "hopf.natural_growth", None),
    ("hopf", "LinComb.__mul__", "hopf.LinComb.mul",
     _add("hopf.LinComb.mul.term_pairs", lambda a, o: len(a[0].terms) * len(a[1].terms))),
    ("hopf", "Tensor2.__mul__", "hopf.Tensor2.mul",
     _add("hopf.Tensor2.mul.term_pairs", lambda a, o: len(a[0].terms) * len(a[1].terms))),
    ("hopf", "LinComb.__add__", "hopf.LinComb.add",
     _add("hopf.LinComb.add.terms_copied", lambda a, o: len(a[0].terms))),
    ("hopf", "Tensor2.__add__", "hopf.Tensor2.add",
     _add("hopf.Tensor2.add.terms_copied", lambda a, o: len(a[0].terms))),
    ("growth", "generate_subalgebra", "growth.generate_subalgebra",
     _add("growth.generate_subalgebra.basis_dim",
          lambda a, o: sum(len(b) for b in o.by_degree.values()))),
    ("growth", "closure_check", "growth.closure_check", None),
    ("growth", "decompose", "growth.decompose", None),
    ("linalg", "independent_rows", "linalg.independent_rows", _independent_rows),
    ("linalg", "solve_consistent", "linalg.solve_consistent",
     _add("linalg.solve_consistent.cells", _solve_cells)),
    ("linalg", "rref", "linalg.rref", None),
    ("series", "MultiSeries.__mul__", "series.MultiSeries.mul", _series_mul),
    ("series", "MultiSeries.__add__", "series.MultiSeries.add", None),
    ("series", "MultiSeries.deriv", "series.MultiSeries.deriv", None),
    ("series", "MultiSeries.compose1", "series.MultiSeries.compose1", None),
    ("series", "MultiSeries.reversion", "series.MultiSeries.reversion", None),
    ("series", "MultiSeries.reciprocal", "series.MultiSeries.reciprocal", None),
    ("series", "series_solve", "series.series_solve", None),
    ("butcher", "elementary_differential", "butcher.elementary_differential", None),
    ("butcher", "phi_t_apply", "butcher.phi_t_apply", None),
    ("butcher", "check_generalized_growth", "butcher.check_generalized_growth", None),
    ("frame", "lift_apply", "frame.lift_apply", None),
    ("frame", "monomial_product", "frame.monomial_product", None),
    ("frame", "X_t_apply", "frame.X_t_apply", None),
    ("frame", "delta_t_apply", "frame.delta_t_apply", None),
    ("frame", "phi_frame_op", "frame.phi_frame_op", None),
    ("frame", "FrameFunction.__mul__", "frame.FrameFunction.mul", None),
    ("frame", "gamma_t", "frame.gamma_t", _gamma_key),
    ("verify", "verify_cm", "verify.verify_cm", _add("verify.checks", lambda a, o: o["checks"])),
    ("verify", "verify_butcher", "verify.verify_butcher", _add("verify.checks", lambda a, o: o["checks"])),
    ("cli", "run", "cli.run", None),
    # Rendering of results into CLI text and JSON.
    ("hopf", "LinComb.__str__", "cli.render", None),
    ("hopf", "Tensor2.__str__", "cli.render", None),
    ("series", "MultiSeries.__str__", "cli.render", None),
    ("frame", "FrameFunction.__str__", "cli.render", None),
    ("growth", "GrowthLeaf.__str__", "cli.render", None),
    ("growth", "GrowthApply.__str__", "cli.render", None),
    ("growth", "GrowthCombo.__str__", "cli.render", None),
    ("growth", "ClosureReport.__str__", "cli.render", None),
    ("cli", "_lincomb_json", "cli.render", None),
    ("cli", "_tensor_json", "cli.render", None),
    ("cli", "_series_json", "cli.render", None),
    ("cli", "_frame_json", "cli.render", None),
)

COUNTERS = (
    ("trees", "RootedTree.__post_init__", "trees.RootedTree.built"),
    ("trees", "Forest.__post_init__", "trees.Forest.built"),
    ("growth", "_component_in_span", "growth.closure_check.components"),
)


def _rebind(orig, wrapped) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "treehopf" or modname.startswith("treehopf."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def _patch(trace: Trace, module: str, attr: str, make) -> None:
    mod = sys.modules.get("treehopf." + module)
    if mod is None:        # e.g. treehopf.cli in a batch child: not imported, not traced
        return
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(getattr(cls, meth)))
    else:
        orig = getattr(mod, attr)
        _rebind(orig, make(orig))


def install(trace: Trace) -> None:
    """Wrap every traced name in the already imported treehopf modules."""
    for module, attr, name, count in SPANS:
        _patch(trace, module, attr, lambda fn, name=name, count=count: span(trace, name, fn, count))
    for module, attr, name in COUNTERS:
        _patch(trace, module, attr, lambda fn, name=name: counter(trace, name, fn))
    cli = sys.modules.get("treehopf.cli")
    if cli is not None:
        cli.json = SimpleNamespace(dumps=span(trace, "cli.render", cli.json.dumps))


# -- per-layer metrics ---------------------------------------------------------------

# span name -> reported fields
SPAN_FIELDS = {
    "trees.admissible_cuts": ("calls", "self_s"),
    "trees.enumerate_trees": ("self_s",),
    "trees.parse": ("calls", "self_s"),
    "hopf.coproduct": ("calls", "self_s"),
    "hopf.antipode": ("calls", "self_s"),
    "hopf.natural_growth": ("calls", "self_s"),
    "hopf.LinComb.mul": ("calls", "self_s"),
    "hopf.Tensor2.mul": ("calls", "self_s"),
    "hopf.LinComb.add": ("calls", "self_s"),
    "hopf.Tensor2.add": ("calls", "self_s"),
    "growth.generate_subalgebra": ("self_s",),
    "growth.closure_check": ("self_s",),
    "growth.decompose": ("calls", "self_s"),
    "linalg.independent_rows": ("calls", "self_s"),
    "linalg.solve_consistent": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s"),
    "series.MultiSeries.mul": ("calls", "self_s"),
    "series.MultiSeries.add": ("calls", "self_s"),
    "series.MultiSeries.deriv": ("calls", "self_s"),
    "series.MultiSeries.compose1": ("calls", "self_s"),
    "series.MultiSeries.reversion": ("calls", "self_s"),
    "series.MultiSeries.reciprocal": ("calls", "self_s"),
    "series.series_solve": ("self_s",),
    "butcher.elementary_differential": ("calls", "self_s"),
    "butcher.phi_t_apply": ("calls", "self_s"),
    "butcher.check_generalized_growth": ("self_s",),
    "frame.lift_apply": ("calls", "self_s"),
    "frame.monomial_product": ("calls", "self_s"),
    "frame.X_t_apply": ("calls", "self_s"),
    "frame.delta_t_apply": ("calls", "self_s"),
    "frame.phi_frame_op": ("calls", "self_s"),
    "frame.FrameFunction.mul": ("calls", "self_s"),
    "frame.gamma_t": ("calls", "self_s"),
    "verify.verify_cm": ("self_s",),
    "verify.verify_butcher": ("self_s",),
}

# metric -> (unit, better)
COUNT_FIELDS = {
    "trees.RootedTree.built": "lower",
    "trees.Forest.built": "lower",
    "trees.admissible_cuts.cuts": "lower",
    "hopf.coproduct.terms_out": "lower",
    "hopf.antipode.terms_out": "lower",
    "hopf.LinComb.mul.term_pairs": "lower",
    "hopf.Tensor2.mul.term_pairs": "lower",
    "hopf.LinComb.add.terms_copied": "lower",
    "hopf.Tensor2.add.terms_copied": "lower",
    "growth.generate_subalgebra.candidates": "lower",
    "growth.generate_subalgebra.basis_dim": "higher",
    "growth.closure_check.components": "lower",
    "linalg.independent_rows.rows_in": "lower",
    "linalg.solve_consistent.cells": "lower",
    "series.MultiSeries.mul.coeff_pairs": "lower",
    "verify.checks": "higher",
}

# ratio metric -> (numerator count, denominator count, better); repeat_ratio is 1 - n/d
RATIO_FIELDS = {
    "growth.generate_subalgebra.yield":
        ("growth.generate_subalgebra.basis_dim", "growth.generate_subalgebra.candidates", "higher"),
    "linalg.independent_rows.kept_ratio":
        ("linalg.independent_rows.kept", "linalg.independent_rows.rows_in", "higher"),
    "series.MultiSeries.mul.univariate_share":
        ("series.MultiSeries.mul.univariate_pairs", "series.MultiSeries.mul.coeff_pairs", "lower"),
    "frame.gamma_t.repeat_ratio":
        ("frame.gamma_t.distinct_keys", "frame.gamma_t.calls", "lower"),
}

CLI_FIELDS = ("cli.python_startup_ms", "cli.import_ms", "cli.run.self_ms", "cli.render_ms")


def per_layer_spec() -> list[dict]:
    """Every per-layer metric with its unit and direction, in report order."""
    spec = []
    for name, fields in SPAN_FIELDS.items():
        for f in fields:
            spec.append({"name": f"{name}.{f}", "unit": "count" if f == "calls" else "s",
                         "better": "lower"})
    for name, better in COUNT_FIELDS.items():
        spec.append({"name": name, "unit": "count", "better": better})
    for name, (_n, _d, better) in RATIO_FIELDS.items():
        spec.append({"name": name, "unit": "ratio", "better": better})
    for name in CLI_FIELDS:
        spec.append({"name": name, "unit": "ms", "better": "lower"})
    spec.append({"name": "trace_overhead_s", "unit": "s", "better": "lower"})
    return spec


def layer_values(agg: dict, counts: dict) -> dict:
    """Span and count metrics of one traced process (before ratios)."""
    out = {}
    for name, fields in SPAN_FIELDS.items():
        rec = agg.get(name, {"calls": 0, "self_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = rec[f]
    out["frame.gamma_t.calls"] = agg.get("frame.gamma_t", {"calls": 0})["calls"]
    for name in COUNT_FIELDS:
        out[name] = counts.get(name, 0)
    for num, den, _ in RATIO_FIELDS.values():
        out.setdefault(num, counts.get(num, 0))
        out.setdefault(den, counts.get(den, 0))
    out["cli.run.self_ms"] = agg.get("cli.run", {"self_s": 0.0})["self_s"] * 1e3
    out["cli.render_ms"] = agg.get("cli.render", {"self_s": 0.0})["self_s"] * 1e3
    return out


def ratios(values: dict) -> dict:
    out = {}
    for name, (num, den, _) in RATIO_FIELDS.items():
        n, d = values.get(num, 0), values.get(den, 0)
        share = n / d if d else 0.0
        out[name] = 1.0 - share if name.endswith("repeat_ratio") and d else share
    return out
