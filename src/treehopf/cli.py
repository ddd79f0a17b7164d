"""Command-line front end.

Exit codes: 0 on success, 1 on verification failure, 2 on parse or
usage errors and on input nested too deeply to process.  All output goes
to stdout unless --out is given.

Every request is a fresh interpreter, so the module imports at top level
only what every subcommand needs: `trees` and `hopf`, which `import
treehopf` loads anyway.  A subcommand imports the other layers it uses
when it runs: `decompose` and `subalgebra` load `growth` (and with it
`linalg`), `butcher` loads `series` and `butcher`, `cm gamma` loads
`frame` (and the layers it builds on, but not `verify`), and `verify`
loads every layer.  `json.dumps`, `run` and the `_*_json` renderers stay
module-level names, so a tracer can rebind them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .hopf import LinComb, antipode, coproduct, delta_k, multiply, natural_growth, parse_lincomb
from .trees import SCHEMA_VERSION, enumerate_trees, parse_tree

SUITES = ("hopf", "growth", "butcher", "cm", "all")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treehopf",
        description="Exact computer algebra for rooted-tree Hopf algebras, "
                    "Butcher differentials, and the frame-bundle operator model.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("trees", help="enumerate canonical rooted trees")
    sp.add_argument("--vertices", type=int, required=True)

    sp = sub.add_parser("coproduct", help="coproduct of a linear combination")
    sp.add_argument("expr")

    sp = sub.add_parser("antipode", help="antipode of a linear combination")
    sp.add_argument("expr")

    sp = sub.add_parser("multiply", help="product of two linear combinations")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("grow", help="natural growth N_t applied to an expression")
    sp.add_argument("--by", required=True, metavar="TREE")
    sp.add_argument("expr")

    sp = sub.add_parser("delta-k", help="iterated natural growth of the single vertex")
    sp.add_argument("k", type=int)

    sp = sub.add_parser("decompose", help="write a tree as iterated natural growth")
    sp.add_argument("tree")

    sp = sub.add_parser("subalgebra", help="generate a growth subalgebra basis")
    sp.add_argument("--gens", required=True, help="comma-separated trees, or fan:K")
    sp.add_argument("--max-degree", type=int, default=5)
    sp.add_argument("--check-closure", action="store_true")

    sp = sub.add_parser("butcher", help="elementary differentials and Taylor flows")
    sp.add_argument("--field", required=True, metavar="FILE")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree")
    group.add_argument("--taylor", type=int)

    sp = sub.add_parser("cm", help="frame-bundle model computations")
    cmsub = sp.add_subparsers(dest="cm_command", required=True)
    spg = cmsub.add_parser("gamma", help="tree-indexed symbol gamma_t(psi)")
    spg.add_argument("--psi", required=True)
    spg.add_argument("--Gamma", required=True)
    spg.add_argument("--tree", required=True)
    spg.add_argument("--order", type=int, default=8)

    sp = sub.add_parser("verify", help="run verification suites")
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
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        code, text = _dispatch(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except (ValueError, OSError) as exc:    # the parse and truncation errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    if not args.out:
        print(text)
    return code


def _dispatch(args) -> tuple[int, str]:
    cmd = args.command
    if cmd == "trees":
        ts = enumerate_trees(args.vertices)
        if args.json:
            return 0, json.dumps({"schema": SCHEMA_VERSION, "vertices": args.vertices,
                                  "trees": [t.serial for t in ts]})
        return 0, "\n".join(t.serial for t in ts) if ts else "(none)"

    if cmd == "coproduct":
        x = parse_lincomb(args.expr)
        d = coproduct(x)
        return 0, json.dumps(_tensor_json(d)) if args.json else str(d)

    if cmd == "antipode":
        x = antipode(parse_lincomb(args.expr))
        return 0, json.dumps(_lincomb_json(x)) if args.json else str(x)

    if cmd == "multiply":
        x = multiply(parse_lincomb(args.left), parse_lincomb(args.right))
        return 0, json.dumps(_lincomb_json(x)) if args.json else str(x)

    if cmd == "grow":
        t = parse_tree(args.by)
        x = natural_growth(t, parse_lincomb(args.expr))
        return 0, json.dumps(_lincomb_json(x)) if args.json else str(x)

    if cmd == "delta-k":
        x = delta_k(args.k)
        return 0, json.dumps(_lincomb_json(x)) if args.json else str(x)

    if cmd == "decompose":
        from .growth import decompose

        t = parse_tree(args.tree)
        expr = decompose(t)
        if args.json:
            return 0, json.dumps({"schema": SCHEMA_VERSION, "tree": t.serial,
                                  "expr": str(expr)})
        return 0, str(expr)

    if cmd == "subalgebra":
        from .growth import closure_check, generate_subalgebra

        gens = _parse_generators(args.gens)
        basis = generate_subalgebra(gens, args.max_degree)
        payload = {
            "schema": SCHEMA_VERSION,
            "generators": [t.serial for t in basis.generators],
            "max_degree": basis.max_degree,
            "dimensions": {str(d): len(b) for d, b in basis.by_degree.items()},
            "basis": {str(d): [str(e) for e in b] for d, b in basis.by_degree.items()},
        }
        code = 0
        if args.check_closure:
            rep = closure_check(basis)
            payload["closed"] = bool(rep)
            payload["closure_report"] = str(rep)
            code = 0 if rep else 1
        if args.json:
            return code, json.dumps(payload)
        lines = [f"generators: {', '.join(payload['generators'])}"]
        for d in sorted(basis.by_degree):
            lines.append(f"degree {d} (dim {len(basis.by_degree[d])}):")
            for e in basis.by_degree[d]:
                lines.append(f"  {e}")
        if args.check_closure:
            lines.append(f"closure: {payload['closure_report']}")
        return code, "\n".join(lines)

    if cmd == "butcher":
        from .butcher import elementary_differential
        from .series import ODEProblem, parse_vector_field, series_solve

        with open(args.field) as fh:
            field = parse_vector_field(fh.read())
        if args.tree is not None:
            t = parse_tree(args.tree)
            vec = elementary_differential(t, field)
            if args.json:
                return 0, json.dumps({
                    "schema": SCHEMA_VERSION, "tree": t.serial,
                    "phi": [_series_json(c) for c in vec],
                })
            return 0, "\n".join(f"phi^{i+1} = {c}" for i, c in enumerate(vec))
        sol = series_solve(ODEProblem(field, args.taylor))
        if args.json:
            return 0, json.dumps({
                "schema": SCHEMA_VERSION,
                "taylor": [[str(c) for c in vec] for vec in sol],
            })
        lines = [
            f"s^{k}: (" + ", ".join(str(c) for c in vec) + ")" for k, vec in enumerate(sol)
        ]
        return 0, "\n".join(lines)

    if cmd == "cm":
        if args.cm_command == "gamma":
            from .frame import FormalDiffeo, _require_order, gamma_t
            from .series import parse_polynomial

            _require_order(args.order)
            psi = FormalDiffeo(parse_polynomial(args.psi, ["x"], args.order))
            gamma = parse_polynomial(args.Gamma, ["x"], args.order)
            if gamma.is_zero():
                print("note: Gamma = 0 is the degenerate flat case; the "
                      "operators of every tree beyond the single vertex vanish",
                      file=sys.stderr)
            t = parse_tree(args.tree)
            out = gamma_t(t, psi, gamma)
            if args.json:
                return 0, json.dumps(_frame_json(out))
            return 0, str(out)

    if cmd == "verify":
        from .verify import run_suites

        report = run_suites(
            args.suite, max_degree=args.max_degree, seed=args.seed,
            order=args.order, trials=args.trials,
        )
        code = 0 if report["ok"] else 1
        if args.json:
            return code, json.dumps(report)
        lines = []
        for suite in report["suites"]:
            fails = [r for r in suite["results"] if r["status"] == "fail"]
            lines.append(
                f"suite {suite['suite']}: {'ok' if suite['ok'] else 'FAIL'} "
                f"({suite['checks']} checks, {len(fails)} failures)"
            )
            by_rel: dict[str, list] = {}
            for r in fails:
                by_rel.setdefault(r["relation"], []).append(r)
            for rel, rows in sorted(by_rel.items()):
                lines.append(f"  FAIL {rel} ({len(rows)} instances), e.g. {rows[0]['instance']}")
        lines.append("result: " + ("ok" if report["ok"] else "FAIL"))
        return code, "\n".join(lines)

    raise ValueError(f"unknown command {cmd!r}")


def _parse_generators(spec: str):
    if spec.startswith("fan:"):
        from .growth import fan_graph

        k = int(spec[4:])
        return {fan_graph(i) for i in range(1, k + 1)}
    return {parse_tree(part.strip()) for part in spec.split(",") if part.strip()}


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
