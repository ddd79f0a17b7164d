"""Command-line front end.

Exit codes: 0 on success, 1 on verification failure, 2 on parse or usage
errors, on input nested too deeply to process, on output that cannot be
written (an unwritable `--out`, or a stdout closed by its reader), and on
a size above its bound.  Each bound is a `MAX_*` constant below, whose
comment gives the timing behind it.  All output goes to stdout unless
--out is given.

Each subcommand has one handler, registered on its subparser with
`set_defaults`.  A handler checks its sizes, does the work, and returns
its exit code with two functions, one building its JSON payload and one
its text; `run` calls only the one the request asks for.

Every request is a fresh interpreter, so the module imports at top level
only what every subcommand needs: `trees` and `hopf`, which `import
treehopf` loads anyway.  A handler imports the other layers it uses when
it runs.  `json.dumps`, `run`, the `_*_json` renderers, `enumerate_trees`,
`delta_k` and the `MAX_*` constants stay module-level names, looked up
when a request runs, so a tracer or a test can rebind them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .hopf import LinComb, antipode, coproduct, delta_k, multiply, natural_growth, parse_lincomb
from .trees import (SCHEMA_VERSION, TreeParseError, _digits_end, _expect_end, _skip_ws,
                    enumerate_trees, parse_tree)

SUITES = ("hopf", "growth", "butcher", "cm", "all")

# The largest sizes `trees --vertices` and `delta-k` accept.  On 2 cores with
# CPython 3.11.7, `trees --vertices 14` (32,973 trees) takes about 3 s and
# `delta-k 14` about 2 s; at 15 they take 17 s and 5 s, each size up
# multiplies the memory by 2 to 2.5, and `--vertices 20` would ask for 12.8
# million trees.
MAX_VERTICES = 14
MAX_DELTA_K = 14
# The largest `subalgebra --max-degree`: `--gens fan:3 --check-closure` takes
# about 3.5 s at 10 and 14 s at 11.
MAX_SUBALGEBRA_DEGREE = 10
# The largest `cm gamma --order`: a 7-vertex tree takes about 2 s at 512, and
# the single vertex 8 s at 1,000.
MAX_GAMMA_ORDER = 512
# The largest `verify --max-degree`, `--order` and `--trials`: the hopf suite takes
# about 4.5 s at degree 9 and 13 s at 10; the cm suite at its defaults about 5 s at
# order 32, 14 s at 64, and 5 s at 100 trials (2.9 s at 300 and 7 s at 1,000 on degree 1).
MAX_VERIFY_DEGREE = 9
MAX_VERIFY_ORDER = 32
MAX_VERIFY_TRIALS = 100
# `butcher --taylor` takes 1 s at 256 and 5.6 s at 512 on 2 variables; `--tree` grows with
# nvars ** max fertility: a fan with 14 children takes 1.7 s on 2 variables, 15 take 6.7 s.
# A one-variable field is a dense jet: `--tree` keeps about degree * |s| entries per subtree s
# and multiplies jets as long, so degree * |t| ** 2 bounds both.  At 2^23, `f1 = x1^N` takes
# 0.8 s and 96 MB on `[[]]`, and 0.2 to 0.5 s on ladders and fans of 5 to 200 vertices.
# A product runs over one factor's nonzero terms, so the time also follows the field's term
# count T: on `[[]]` at degree 2^21, 1 term takes 0.6 s, 20 take 2.1 s and 60 take 6.3 s, and
# T * degree * |t| ** 2 at 2^28 takes 3.0 to 4.4 s on `[[]]` and `[[[]]]`.  Fans cost more,
# as sibling products multiply term counts: `[[][][]]` at T = 64, degree 2^16 runs over 60 s.
# In several variables phi(s) has at most C(D + nvars, nvars) terms, D = 1 + |s| (degree - 1),
# for each of the |t| subtrees s.  Ladders on the 2-variable quadratic field cost the most per
# term: at 2^19, 99 vertices take 2.1 s and 72 MB, and 126 vertices (2^20) 3.0 to 4.6 s.
MAX_TAYLOR_ORDER = 256
MAX_TREE_BRANCHING = 2 ** 14
MAX_TREE_JET_ENTRIES = 2 ** 23
MAX_TREE_JET_WORK = 2 ** 28
MAX_TREE_TERMS = 2 ** 19


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treehopf",
        description="Exact computer algebra for rooted-tree Hopf algebras, "
                    "Butcher differentials, and the frame-bundle operator model.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, help):
        sp = parent.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = command(sub, "trees", _trees, "enumerate canonical rooted trees")
    sp.add_argument("--vertices", type=int, required=True)

    sp = command(sub, "coproduct", _coproduct, "coproduct of a linear combination")
    sp.add_argument("expr")

    sp = command(sub, "antipode", _antipode, "antipode of a linear combination")
    sp.add_argument("expr")

    sp = command(sub, "multiply", _multiply, "product of two linear combinations")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = command(sub, "grow", _grow, "natural growth N_t applied to an expression")
    sp.add_argument("--by", required=True, metavar="TREE")
    sp.add_argument("expr")

    sp = command(sub, "delta-k", _delta_k, "iterated natural growth of the single vertex")
    sp.add_argument("k", type=int)

    sp = command(sub, "decompose", _decompose, "write a tree as iterated natural growth")
    sp.add_argument("tree")

    sp = command(sub, "subalgebra", _subalgebra, "generate a growth subalgebra basis")
    sp.add_argument("--gens", required=True, help="comma-separated trees, or fan:K")
    sp.add_argument("--max-degree", type=int, default=5)
    sp.add_argument("--check-closure", action="store_true")

    sp = command(sub, "butcher", _butcher, "elementary differentials and Taylor flows")
    sp.add_argument("--field", required=True, metavar="FILE")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree")
    group.add_argument("--taylor", type=int)

    sp = sub.add_parser("cm", help="frame-bundle model computations")
    cmsub = sp.add_subparsers(dest="cm_command", required=True)
    sp = command(cmsub, "gamma", _cm_gamma, "tree-indexed symbol gamma_t(psi)")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--Gamma", required=True)
    sp.add_argument("--tree", required=True)
    sp.add_argument("--order", type=int, default=8)

    sp = command(sub, "verify", _verify, "run verification suites")
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--max-degree", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--trials", type=int, default=10)
    return p


def _lincomb_json(x: LinComb) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "lincomb": [
            {"coeff": str(c), "forest": f.serial} for f, c in x.sorted_terms()
        ],
    }


def _tensor_json(t) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tensor": [
            {"coeff": str(c), "left": fl.serial, "right": fr_.serial}
            for (fl, fr_), c in t.sorted_terms()
        ],
    }


def _series_json(ms) -> dict:
    return {
        "terms": [
            {"exponents": list(e), "coeff": str(c)}
            for e, c in sorted(ms.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        ],
        "trunc": ms.trunc,
    }


def _frame_json(h) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "frame_function": [
            {"y_degree": k, "series": _series_json(g)} for k, g in sorted(h.coeffs.items())
        ],
    }


def run(argv=None) -> int:
    """Parse argv, run the subcommand's handler, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        code, payload, text = args.handler(args)
        text = json.dumps(payload()) if args.json else text()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)     # a closed stdout fails here, not at exit
    except (ValueError, OSError) as exc:    # the parse and truncation errors are ValueErrors
        if isinstance(exc, BrokenPipeError):    # a closed stdout: drop what is still buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    return code


def _trees(args):
    _require_at_most("--vertices", args.vertices, MAX_VERTICES)
    ts = enumerate_trees(args.vertices)
    return (0, lambda: {"schema": SCHEMA_VERSION, "vertices": args.vertices,
                        "trees": [t.serial for t in ts]},
            lambda: "\n".join(t.serial for t in ts) if ts else "(none)")


def _coproduct(args):
    d = coproduct(parse_lincomb(args.expr))
    return 0, lambda: _tensor_json(d), lambda: str(d)


def _lincomb(x: LinComb):
    """The return of every handler whose result is one `LinComb`."""
    return 0, lambda: _lincomb_json(x), lambda: str(x)


def _antipode(args):
    return _lincomb(antipode(parse_lincomb(args.expr)))


def _multiply(args):
    return _lincomb(multiply(parse_lincomb(args.left), parse_lincomb(args.right)))


def _grow(args):
    return _lincomb(natural_growth(parse_tree(args.by), parse_lincomb(args.expr)))


def _delta_k(args):
    _require_at_most("k", args.k, MAX_DELTA_K)
    return _lincomb(delta_k(args.k))


def _decompose(args):
    from .growth import decompose

    t = parse_tree(args.tree)
    expr = decompose(t)
    return (0, lambda: {"schema": SCHEMA_VERSION, "tree": t.serial, "expr": str(expr)},
            lambda: str(expr))


def _subalgebra(args):
    from .growth import closure_check, generate_subalgebra

    _require_at_most("--max-degree", args.max_degree, MAX_SUBALGEBRA_DEGREE)
    basis = generate_subalgebra(_parse_generators(args.gens, args.max_degree), args.max_degree)
    report = closure_check(basis) if args.check_closure else None
    generators = [t.serial for t in basis.generators]

    def payload():
        out = {"schema": SCHEMA_VERSION, "generators": generators, "max_degree": basis.max_degree,
               "dimensions": {str(d): len(b) for d, b in basis.by_degree.items()},
               "basis": {str(d): [str(e) for e in b] for d, b in basis.by_degree.items()}}
        if report is not None:
            out.update(closed=bool(report), closure_report=str(report))
        return out

    def text():
        lines = [f"generators: {', '.join(generators)}"]
        for d in sorted(basis.by_degree):
            lines.append(f"degree {d} (dim {len(basis.by_degree[d])}):")
            lines += (f"  {e}" for e in basis.by_degree[d])
        if report is not None:
            lines.append(f"closure: {report}")
        return "\n".join(lines)

    return (1 if report is not None and not report else 0), payload, text


def _butcher(args):
    from .butcher import elementary_differential
    from .series import ODEProblem, parse_vector_field, series_solve

    with open(args.field) as fh:
        field = parse_vector_field(fh.read())
    if args.tree is None:
        _require_at_most("--taylor", args.taylor, MAX_TAYLOR_ORDER)
        rows = [[str(c) for c in vec] for vec in series_solve(ODEProblem(field, args.taylor))]
        return (0, lambda: {"schema": SCHEMA_VERSION, "taylor": rows},
                lambda: "\n".join(f"s^{k}: ({', '.join(row)})" for k, row in enumerate(rows)))
    t = parse_tree(args.tree)
    _require_at_most("--tree: nvars ** max fertility", field.nvars ** t.max_fertility(),
                     MAX_TREE_BRANCHING)
    degree, n = max(c.total_degree() for c in field.components), t.vertex_count
    if field.nvars == 1:
        _require_at_most("--tree: field degree * vertices ** 2", degree * n ** 2,
                         MAX_TREE_JET_ENTRIES)
        _require_at_most("--tree: field terms * degree * vertices ** 2",
                         len(field.components[0].terms) * degree * n ** 2, MAX_TREE_JET_WORK)
    else:
        from math import comb
        _require_at_most("--tree: vertices * C(1 + vertices * (degree - 1) + nvars, nvars)",
                         n * comb(1 + n * max(degree - 1, 0) + field.nvars, field.nvars),
                         MAX_TREE_TERMS)
    vec = elementary_differential(t, field)
    return (0, lambda: {"schema": SCHEMA_VERSION, "tree": t.serial,
                        "phi": [_series_json(c) for c in vec]},
            lambda: "\n".join(f"phi^{i+1} = {c}" for i, c in enumerate(vec)))


def _cm_gamma(args):
    from .frame import FormalDiffeo, _require_order, gamma_t
    from .series import parse_polynomial

    _require_order(args.order)
    _require_at_most("--order", args.order, MAX_GAMMA_ORDER)
    psi = FormalDiffeo(parse_polynomial(args.psi, ["x"], args.order))
    gamma = parse_polynomial(args.Gamma, ["x"], args.order)
    if gamma.is_zero():
        print("note: Gamma = 0 is the degenerate flat case; the operators of every tree "
              "beyond the single vertex vanish", file=sys.stderr)
    out = gamma_t(parse_tree(args.tree), psi, gamma)
    return 0, lambda: _frame_json(out), lambda: str(out)


def _verify(args):
    from .verify import run_suites

    _require_at_most("--max-degree", args.max_degree, MAX_VERIFY_DEGREE)
    _require_at_most("--order", args.order, MAX_VERIFY_ORDER)
    _require_at_most("--trials", args.trials, MAX_VERIFY_TRIALS)
    report = run_suites(args.suite, max_degree=args.max_degree, seed=args.seed,
                        order=args.order, trials=args.trials)

    def text():
        lines = []
        for suite in report["suites"]:
            fails = [r for r in suite["results"] if r["status"] == "fail"]
            lines.append(f"suite {suite['suite']}: {'ok' if suite['ok'] else 'FAIL'} "
                         f"({suite['checks']} checks, {len(fails)} failures)")
            by_rel: dict[str, list] = {}
            for r in fails:
                by_rel.setdefault(r["relation"], []).append(r)
            for rel, rows in sorted(by_rel.items()):
                lines.append(f"  FAIL {rel} ({len(rows)} instances), e.g. {rows[0]['instance']}")
        lines.append("result: " + ("ok" if report["ok"] else "FAIL"))
        return "\n".join(lines)

    return (0 if report["ok"] else 1), lambda: report, text


def _require_at_most(what: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{what} must be <= {bound}, got {value}")


def _parse_generators(spec: str, max_degree: int):
    """The trees of `spec`; `fan:K` is checked against max_degree before any fan is built."""
    if spec.startswith("fan:"):
        from .growth import fan_graph

        start = _skip_ws(spec, 4)
        end = _digits_end(spec, start)
        if not spec[start:end].isdecimal():     # no digits, or `str.isdigit` ones like `²`
            raise TreeParseError("expected a fan size", spec, start)
        _expect_end(spec, end, "trailing input after fan size")
        k = int(spec[start:end])
        if k > max_degree:
            raise ValueError("max_degree must cover the generating set")
        return {fan_graph(i) for i in range(1, k + 1)}
    return {parse_tree(part.strip()) for part in spec.split(",") if part.strip()}


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
