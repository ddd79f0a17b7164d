import json
import os
import subprocess
import sys

import pytest

from treehopf import LinComb, parse_lincomb
from treehopf.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_delta_k_display(capsys):
    code, out, _ = run_cli(capsys, "delta-k", "4")
    assert code == 0
    assert out == "1 [[][][]] + 3 [[[]][]] + 1 [[[][]]] + 1 [[[[]]]]"


def test_coproduct_display(capsys):
    code, out, _ = run_cli(capsys, "coproduct", "[[]]")
    assert code == 0
    assert out == "1 ([[]] | 1) + 1 (1 | [[]]) + 1 ([] | [])"


def test_trees_listing(capsys):
    code, out, _ = run_cli(capsys, "trees", "--vertices", "4")
    assert code == 0
    assert out.splitlines() == ["[[][][]]", "[[[]][]]", "[[[][]]]", "[[[[]]]]"]


def test_oversized_trees_and_delta_k_exit_2_before_any_work(capsys, monkeypatch):
    from treehopf import cli

    # Above every size the tests, the README and the benchmark ask for.
    assert cli.MAX_VERTICES >= 10 and cli.MAX_DELTA_K >= 10

    def must_not_run(*args):
        raise AssertionError("the work started before the size was checked")

    monkeypatch.setattr(cli, "enumerate_trees", must_not_run)
    monkeypatch.setattr(cli, "delta_k", must_not_run)
    for argv, what, bound in ((("trees", "--vertices"), "--vertices", cli.MAX_VERTICES),
                              (("delta-k",), "k", cli.MAX_DELTA_K)):
        for size in (bound + 1, 20):
            code, out, err = run_cli(capsys, *argv, str(size))
            assert code == 2, (argv, size)
            assert err == f"error: {what} must be <= {bound}, got {size}\n", (argv, size)
            assert out == "", (argv, size)
    # At the bound the guard lets the request through.
    monkeypatch.setattr(cli, "enumerate_trees", lambda n: ())
    monkeypatch.setattr(cli, "delta_k", lambda k: LinComb.zero())
    assert run_cli(capsys, "trees", "--vertices", str(cli.MAX_VERTICES)) == (0, "(none)", "")
    assert run_cli(capsys, "delta-k", str(cli.MAX_DELTA_K)) == (0, "0", "")


def test_oversized_degrees_and_orders_exit_2_before_any_work(capsys, monkeypatch, tmp_path):
    from types import SimpleNamespace

    from treehopf import butcher, cli, frame, growth, series, verify

    # Above every degree, order and count the tests, the README and the
    # benchmark ask for (subalgebra degree 5, verify degree 5, order 8 and 10
    # trials, Taylor order 5, and trees of at most 6 vertices).
    assert cli.MAX_SUBALGEBRA_DEGREE >= 8 and cli.MAX_VERIFY_DEGREE >= 8
    assert cli.MAX_GAMMA_ORDER >= 16 and cli.MAX_VERIFY_ORDER >= 16
    assert cli.MAX_VERIFY_TRIALS >= 20 and cli.MAX_TAYLOR_ORDER >= 16
    assert cli.MAX_TREE_BRANCHING >= 2 ** 6
    field = tmp_path / "field.txt"
    field.write_text("f1 = x2 + 1/2 x1^2\nf2 = -x1 + x1 x2 - 1/3 x2^2\n")

    def must_not_run(*args, **kwargs):
        raise AssertionError("the work started before the size was checked")

    monkeypatch.setattr(growth, "generate_subalgebra", must_not_run)
    monkeypatch.setattr(frame, "gamma_t", must_not_run)
    monkeypatch.setattr(verify, "run_suites", must_not_run)
    monkeypatch.setattr(series, "series_solve", must_not_run)
    monkeypatch.setattr(butcher, "elementary_differential", must_not_run)
    subalgebra = ("subalgebra", "--gens", "fan:3", "--max-degree")
    gamma = ("cm", "gamma", "--psi", "x + x^2", "--Gamma", "x", "--tree", "[[]]", "--order")
    cases = ((subalgebra, "--max-degree", cli.MAX_SUBALGEBRA_DEGREE),
             (gamma, "--order", cli.MAX_GAMMA_ORDER),
             (("verify", "--max-degree"), "--max-degree", cli.MAX_VERIFY_DEGREE),
             (("verify", "--suite", "cm", "--order"), "--order", cli.MAX_VERIFY_ORDER),
             (("verify", "--suite", "cm", "--trials"), "--trials", cli.MAX_VERIFY_TRIALS),
             (("butcher", "--field", str(field), "--taylor"), "--taylor", cli.MAX_TAYLOR_ORDER))
    for argv, what, bound in cases:
        for size in (bound + 1, 100000):
            code, out, err = run_cli(capsys, *argv, str(size))
            assert code == 2, (argv, size)
            assert err == f"error: {what} must be <= {bound}, got {size}\n", (argv, size)
            assert out == "", (argv, size)
    # `butcher --tree` bounds nvars ** max fertility: on 2 variables, the
    # least fan above the bound, one with 40 children, and a tree whose
    # deepest vertex has as many children as that least fan.
    fan = lambda k: "[" + "[]" * k + "]"
    bound = cli.MAX_TREE_BRANCHING
    k = bound.bit_length()    # 2 ** (k - 1) <= bound < 2 ** k
    for tree, size in ((fan(k), 2 ** k), (fan(40), 2 ** 40), (f"[[{fan(k)}][]]", 2 ** k)):
        code, out, err = run_cli(capsys, "butcher", "--field", str(field), "--tree", tree)
        assert (code, out) == (2, ""), tree
        assert err == f"error: --tree: nvars ** max fertility must be <= {bound}, got {size}\n"
    # At the bound the guard lets the request through.
    monkeypatch.setattr(growth, "generate_subalgebra", lambda gens, degree: SimpleNamespace(
        generators=(), max_degree=degree, by_degree={}))
    monkeypatch.setattr(frame, "gamma_t", lambda t, psi, gamma: "stub")
    monkeypatch.setattr(verify, "run_suites", lambda *args, **kwargs: {"suites": [], "ok": True})
    assert run_cli(capsys, *subalgebra, str(cli.MAX_SUBALGEBRA_DEGREE)) == (0, "generators: ", "")
    assert run_cli(capsys, *gamma, str(cli.MAX_GAMMA_ORDER)) == (0, "stub", "")
    assert run_cli(capsys, "verify", "--max-degree", str(cli.MAX_VERIFY_DEGREE),
                   "--order", str(cli.MAX_VERIFY_ORDER),
                   "--trials", str(cli.MAX_VERIFY_TRIALS)) == (0, "result: ok", "")
    monkeypatch.setattr(series, "series_solve", lambda problem: [[problem.taylor_order]])
    taylor = str(cli.MAX_TAYLOR_ORDER)
    assert run_cli(capsys, "butcher", "--field", str(field), "--taylor", taylor) == \
        (0, f"s^0: ({taylor})", "")
    monkeypatch.setattr(butcher, "elementary_differential", lambda t, f: [t.vertex_count])
    assert run_cli(capsys, "butcher", "--field", str(field), "--tree", fan(k - 1)) == \
        (0, f"phi^1 = {k}", "")


def test_one_variable_field_degree_above_its_bound_exits_2_before_any_work(capsys, monkeypatch,
                                                                          tmp_path):
    from treehopf import butcher, cli

    # A one-variable field is a dense jet: `butcher --tree` bounds its degree
    # times the square of the tree's vertex count.
    bound = cli.MAX_TREE_JET_ENTRIES
    assert bound >= 2 ** 16
    field = tmp_path / "field.txt"
    fan10 = "[" + "[]" * 9 + "]"

    def must_not_run(*args):
        raise AssertionError("the work started before the size was checked")

    monkeypatch.setattr(butcher, "elementary_differential", must_not_run)
    for degree, tree, sizes in ((bound // 4 + 1, "[[]]", 4), (10 ** 10, "[[]]", 4),
                                (bound // 16 + 1, "[[[[]]]]", 16), (bound // 100 + 1, fan10, 100)):
        field.write_text(f"f1 = x1 - x1^{degree}\n")
        code, out, err = run_cli(capsys, "butcher", "--field", str(field), "--tree", tree)
        assert (code, out) == (2, ""), (degree, tree)
        assert err == ("error: --tree: field degree * vertices ** 2 must be "
                       f"<= {bound}, got {degree * sizes}\n"), (degree, tree)
    # At the bound the guard lets the request through.
    monkeypatch.setattr(butcher, "elementary_differential",
                        lambda t, f: [max(c.total_degree() for c in f.components)])
    field.write_text(f"f1 = x1^{bound // 100}\n")
    assert run_cli(capsys, "butcher", "--field", str(field), "--tree", fan10) == \
        (0, f"phi^1 = {bound // 100}", "")


def test_one_variable_field_terms_above_their_bound_exit_2_before_any_work(capsys, monkeypatch,
                                                                         tmp_path):
    from treehopf import butcher, cli

    # Each jet product runs over the nonzero terms of one factor: `butcher
    # --tree` also bounds the field's term count times its degree times the
    # square of the tree's vertex count.
    bound = cli.MAX_TREE_JET_WORK
    degree = cli.MAX_TREE_JET_ENTRIES // 4     # at the degree bound on `[[]]`
    assert bound >= 16 * cli.MAX_TREE_JET_ENTRIES
    field = tmp_path / "field.txt"
    poly = lambda terms: " + ".join(f"x1^{degree * j // terms}" for j in range(1, terms + 1))
    least = bound // (degree * 4) + 1

    def must_not_run(*args):
        raise AssertionError("the work started before the size was checked")

    monkeypatch.setattr(butcher, "elementary_differential", must_not_run)
    for terms in (least, 60):
        field.write_text(f"f1 = {poly(terms)}\n")
        code, out, err = run_cli(capsys, "butcher", "--field", str(field), "--tree", "[[]]")
        assert (code, out) == (2, ""), terms
        assert err == ("error: --tree: field terms * degree * vertices ** 2 must be "
                       f"<= {bound}, got {terms * degree * 4}\n"), terms
    # At the bound the guard lets the request through.
    monkeypatch.setattr(butcher, "elementary_differential",
                        lambda t, f: [len(f.components[0].terms)])
    field.write_text(f"f1 = {poly(least - 1)}\n")
    assert run_cli(capsys, "butcher", "--field", str(field), "--tree", "[[]]") == \
        (0, f"phi^1 = {least - 1}", "")


def test_several_variable_field_above_its_term_bound_exits_2_before_any_work(capsys, monkeypatch,
                                                                             tmp_path):
    from math import comb

    from treehopf import butcher, cli

    # In several variables phi(s) has at most C(D + nvars, nvars) terms,
    # D = 1 + |s| (degree - 1); `butcher --tree` bounds that at |s| = |t|,
    # times the |t| subtrees s it keeps.
    bound = cli.MAX_TREE_TERMS
    field = tmp_path / "field.txt"
    quadratic = "f1 = x2 + 1/2 x1^2\nf2 = -x1 + x1 x2 - 1/3 x2^2\n"
    cubic = "f1 = x2 x3 + x1^3\nf2 = x3^3 - x1 x2\nf3 = x1^2 x2 + 1/2 x3\n"
    ladder = lambda n: "[" * n + "]" * n
    terms = lambda n, degree, nvars: n * comb(1 + n * max(degree - 1, 0) + nvars, nvars)
    least = lambda degree, nvars: next(n for n in range(1, bound) if terms(n, degree, nvars) > bound)
    n2, n3 = least(2, 2), least(3, 3)
    assert n2 > 80    # an 80-vertex ladder on the quadratic field runs in about 1 s

    def must_not_run(*args):
        raise AssertionError("the work started before the size was checked")

    monkeypatch.setattr(butcher, "elementary_differential", must_not_run)
    for text, tree, size in ((quadratic, ladder(n2), terms(n2, 2, 2)),
                             (quadratic, ladder(450), terms(450, 2, 2)),
                             (quadratic, ladder(500), terms(500, 2, 2)),
                             (cubic, ladder(n3), terms(n3, 3, 3)),
                             ("f1 = x2^10000000000\nf2 = x1\n", "[[]]", terms(2, 10 ** 10, 2))):
        field.write_text(text)
        code, out, err = run_cli(capsys, "butcher", "--field", str(field), "--tree", tree)
        assert (code, out) == (2, ""), (text, len(tree))
        assert err == ("error: --tree: vertices * C(1 + vertices * (degree - 1) + nvars, nvars) "
                       f"must be <= {bound}, got {size}\n"), (text, len(tree))
    # At the bound the guard lets the request through; a constant field
    # keeps one term per subtree.
    monkeypatch.setattr(butcher, "elementary_differential", lambda t, f: [t.vertex_count])
    for text, tree in ((quadratic, ladder(n2 - 1)), (cubic, ladder(n3 - 1)),
                       ("f1 = 1\nf2 = 2\n", ladder(400))):
        field.write_text(text)
        assert run_cli(capsys, "butcher", "--field", str(field), "--tree", tree) == \
            (0, f"phi^1 = {len(tree) // 2}", "")


def test_fan_generators_above_the_degree_exit_2_before_any_fan_is_built(capsys, monkeypatch):
    from treehopf import growth

    def must_not_run(*args):
        raise AssertionError("a fan was built before the degree was checked")

    monkeypatch.setattr(growth, "fan_graph", must_not_run)
    for k in (6, 3000):
        code, out, err = run_cli(capsys, "subalgebra", "--gens", f"fan:{k}", "--max-degree", "5")
        assert (code, out, err) == (2, "", "error: max_degree must cover the generating set\n"), k
    # The same exit and message as when generate_subalgebra rejects the built
    # generators; K equal to the degree goes through.
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "subalgebra", "--gens", "[[][][][][][]]", "--max-degree", "5")
    assert (code, out, err) == (2, "", "error: max_degree must cover the generating set\n")
    assert run_cli(capsys, "subalgebra", "--gens", "fan:2", "--max-degree", "2")[0] == 0


def test_antipode_and_multiply(capsys):
    code, out, _ = run_cli(capsys, "antipode", "[[]]")
    assert code == 0
    assert out == "1 []*[] - 1 [[]]"
    code, out, _ = run_cli(capsys, "multiply", "[]", "2 [[]]")
    assert code == 0
    assert out == "2 [[]]*[]"


def test_grow_and_decompose(capsys):
    code, out, _ = run_cli(capsys, "grow", "--by", "[]", "[[]]")
    assert code == 0
    assert out == "1 [[][]] + 1 [[[]]]"
    code, out, _ = run_cli(capsys, "decompose", "[[][]]")
    assert code == 0
    assert out == "1 N{[]}(N{[]}(.)) - 1 N{[[]]}(.)"


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--json", "antipode", "[[][]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    rebuilt = LinComb.zero()
    for term in payload["lincomb"]:
        rebuilt = rebuilt + parse_lincomb(f"{term['coeff']} {term['forest']}")
    from treehopf import antipode, parse_tree, LinComb as LC

    assert rebuilt == antipode(LC.of(parse_tree("[[][]]")))


@pytest.mark.parametrize("argv, message", [
    (["decompose", "[]]"], "trailing input after tree at position 2: '[]]'"),
    (["coproduct", "[[]"], "expected ']' at position 3: '[[]'"),
    (["antipode", "1/0 [[]]"], "malformed rational coefficient at position 0: '1/0 [[]]'"),
    (["cm", "gamma", "--psi", "x^", "--Gamma", "x", "--tree", "[]"],
     "expected exponent at position 2: 'x^'"),
    (["cm", "gamma", "--psi", "x^²", "--Gamma", "x", "--tree", "[]"],
     "malformed exponent at position 2: 'x^²'"),
    (["butcher", "--field", "FIELD", "--tree", "[]"], "malformed rational at position 0: '1/0 x1'"),
    # `²` passes `str.isdigit`, but `int` rejects it.
    (["butcher", "--field", "FIELD_NAME", "--tree", "[]"],
     "component must be named f1..fn at position 0: 'f² = x1'"),
    (["subalgebra", "--gens", "fan:x", "--max-degree", "3"],
     "expected a fan size at position 4: 'fan:x'"),
    # `int` would read `1_0` as 10.
    (["subalgebra", "--gens", "fan:1_0", "--max-degree", "10"],
     "trailing input after fan size at position 5: 'fan:1_0'"),
], ids=["tree", "lincomb", "lincomb-coefficient", "polynomial", "polynomial-exponent",
     "vector-field", "vector-field-name", "fan-size", "fan-size-trailing"])
def test_parse_error_exit_code(capsys, tmp_path, argv, message):
    fields = {"FIELD": "f1 = x2\nf2 = 1/0 x1\n", "FIELD_NAME": "f² = x1\n"}
    for name, text in fields.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in fields else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 2


def test_subalgebra_closure_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "subalgebra", "--gens", "fan:1",
                           "--max-degree", "4", "--check-closure")
    assert code == 0
    assert "closed under the coproduct" in out
    code, out, _ = run_cli(capsys, "subalgebra", "--gens", "[[][]]",
                           "--max-degree", "4", "--check-closure")
    assert code == 1
    assert "escapes the span" in out


def test_butcher_commands(tmp_path, capsys):
    field = tmp_path / "field.txt"
    field.write_text("f1 = 1 + x2\nf2 = x1\n")
    code, out, _ = run_cli(capsys, "butcher", "--field", str(field), "--tree", "[[]]")
    assert code == 0
    assert out.splitlines()[0].startswith("phi^1 =")
    code, out, _ = run_cli(capsys, "--json", "butcher", "--field", str(field),
                           "--taylor", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["taylor"][1] == ["1", "0"]
    assert payload["taylor"][2] == ["0", "1/2"]


def test_cm_gamma(capsys):
    code, out, _ = run_cli(capsys, "cm", "gamma", "--psi", "x + 1/2 x^2",
                           "--Gamma", "x", "--tree", "[]", "--order", "6")
    assert code == 0
    assert "y" in out
    code, out, _ = run_cli(capsys, "cm", "gamma", "--psi", "x", "--Gamma", "x",
                           "--tree", "[[]]", "--order", "6")
    assert code == 0
    assert out == "0"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = run(["--out", str(target), "delta-k", "3"])
    assert code == 0
    assert target.read_text().strip() == "1 [[][]] + 1 [[[]]]"


def test_out_to_an_unwritable_path_exits_2_without_traceback(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    proc = run_module("--out", str(target), "trees", "--vertices", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not target.parent.exists()


def test_verify_growth_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "growth", "--max-degree", "4")
    assert code == 0
    assert "suite growth: ok" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", "hopf",
                           "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert payload["suites"][0]["suite"] == "hopf"


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "verify", "--suite", "butcher",
                             "--max-degree", "3", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "--json", "verify", "--suite", "butcher",
                             "--max-degree", "3", "--seed", "5")
    assert (code1, out1) == (code2, out2)


def module_env():
    """The environment in which `python -m treehopf` runs the checkout's source."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "treehopf", *argv],
                          capture_output=True, text=True, env=module_env(), timeout=120)


def test_a_closed_stdout_exits_2_without_traceback():
    # `trees --vertices 12` prints about 119 KB, more than a pipe holds, so
    # its write meets the pipe its reader closed after one line.
    proc = subprocess.Popen([sys.executable, "-m", "treehopf", "trees", "--vertices", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env())
    assert proc.stdout.readline() == b"[[][][][][][][][][][][]]\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_over_deep_input_exits_2_without_traceback():
    # A 1,200-deep ladder is deeper than the interpreter's recursion limit.
    ladder = "[" * 1200 + "]" * 1200
    proc = run_module("coproduct", ladder)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_900_deep_ladder_coproduct_exits_0():
    # The coproduct of a ladder builds from an explicit stack, not recursion.
    ladder = "[" * 900 + "]" * 900
    proc = run_module("coproduct", ladder)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" | ") == 901


def test_verify_hopf_without_degrees_exits_2_without_traceback():
    for degree in ("0", "-1"):
        proc = run_module("verify", "--suite", "hopf", "--max-degree", degree)
        assert proc.returncode == 2, degree
        assert proc.stderr.startswith("error: max_degree must be >= 1"), degree
        assert "Traceback" not in proc.stderr, degree


def test_verify_cm_and_butcher_without_degrees_exit_2_without_traceback():
    for suite in ("cm", "butcher"):
        for degree in ("0", "-1"):
            proc = run_module("verify", "--suite", suite, "--max-degree", degree)
            assert proc.returncode == 2, (suite, degree)
            assert proc.stderr.startswith("error: max_degree must be >= 1"), (suite, degree)
            assert "Traceback" not in proc.stderr, (suite, degree)


def test_verify_growth_below_its_least_degree_exits_2_naming_it():
    for suite in ("growth", "all"):
        for degree in ("1", "2"):
            proc = run_module("verify", "--suite", suite, "--max-degree", degree)
            assert proc.returncode == 2, (suite, degree)
            assert proc.stderr.startswith(
                "error: max_degree must be >= 3 for the growth suite"), (suite, degree)
            assert "generating set" not in proc.stderr, (suite, degree)
            assert "Traceback" not in proc.stderr, (suite, degree)


def test_orders_below_two_exit_2_naming_the_least_order():
    # Order 0 used to fail on "orientation preserving", order 1 on an
    # exhausted derivative; both now fail on the bound before any jet is built.
    gamma = ("cm", "gamma", "--psi", "x + x^2", "--Gamma", "x", "--tree", "[[]]", "--order")
    for argv in (gamma, ("verify", "--suite", "cm", "--order"), ("verify", "--suite", "all", "--order")):
        for order in ("1", "0", "-1"):
            proc = run_module(*argv, order)
            assert proc.returncode == 2, (argv, order)
            assert proc.stderr.startswith("error: order must be >= 2 "), (argv, order)
            assert proc.stderr.rstrip().endswith(f"got {order}"), (argv, order)
            assert "Traceback" not in proc.stderr, (argv, order)
    assert run_module("cm", "gamma", "--psi", "x + x^2", "--Gamma", "x", "--tree", "[]",
                      "--order", "2").returncode == 0
    proc = run_module("verify", "--suite", "cm", "--max-degree", "1", "--order", "2", "--trials", "0")
    assert proc.returncode == 0, proc.stderr


def test_verify_cm_below_its_least_order_exits_2_naming_it():
    # The least order comes from the derivatives the checks take: 5 while the
    # suite checks trees up to 3 vertices, 6 from 4 on (the suite stops at 4).
    cases = [("cm", "1", 5), ("cm", "2", 5), ("cm", "3", 5), ("cm", "4", 6), ("cm", "5", 6),
             ("all", "4", 6)]
    for suite, degree, least in cases:
        proc = run_module("verify", "--suite", suite, "--max-degree", degree,
                          "--order", str(least - 1), "--trials", "1")
        assert proc.returncode == 2, (suite, degree)
        assert proc.stderr.startswith(f"error: order must be >= {least} for the cm suite"), \
            (suite, degree, proc.stderr)
        assert proc.stderr.rstrip().endswith(f"got {least - 1}"), (suite, degree)
        assert "Traceback" not in proc.stderr, (suite, degree)


def test_cm_least_order_is_the_first_order_that_runs(monkeypatch):
    from treehopf import TruncationError, verify

    least = {d: verify._cm_least_order(d, 1) for d in range(1, 10)}
    assert verify._cm_least_order(4, 0) == 2
    monkeypatch.setattr(verify, "_cm_least_order", lambda max_degree, trials: 2)
    for degree, order in least.items():
        with pytest.raises(TruncationError, match="derivative exhausted"):
            verify.verify_cm(degree, order=order - 1, trials=1)
        assert verify.verify_cm(degree, order=order, trials=1)["suite"] == "cm"
    assert verify.verify_cm(4, order=2, trials=0)["suite"] == "cm"


def test_negative_trials_are_rejected_before_any_suite_runs(monkeypatch):
    from treehopf import verify

    with pytest.raises(ValueError, match=r"^trials must be >= 0, got -1$"):
        verify.verify_cm(1, trials=-1)
    assert verify.verify_cm(1, trials=0)["ok"]

    def must_not_run(*args):
        raise AssertionError("a suite ran before the trial count was checked")

    monkeypatch.setattr(verify, "verify_hopf", must_not_run)
    for names in (["hopf", "cm"], ["all"]):
        with pytest.raises(ValueError, match=r"^trials must be >= 0, got -1$"):
            verify.run_suites(names, max_degree=1, trials=-1)
    assert verify.run_suites(["cm"], max_degree=1, trials=0)["ok"]


def test_unknown_suites_are_rejected_before_any_suite_runs(monkeypatch):
    from treehopf import verify

    known = r"; known suites: hopf, growth, butcher, cm, all$"
    with pytest.raises(ValueError, match=r"^unknown suite 'bogus'" + known):
        verify.run_suites("bogus")

    def must_not_run(*args):
        raise AssertionError("a suite ran before the suite names were checked")

    monkeypatch.setattr(verify, "verify_hopf", must_not_run)
    for names in (["hopf", "Hopf"], ["all", "Hopf"]):
        with pytest.raises(ValueError, match=r"^unknown suite 'Hopf'" + known):
            verify.run_suites(names, max_degree=1)


def test_verify_negative_trials_exits_2_naming_the_bound():
    for suite in ("cm", "all"):
        proc = run_module("verify", "--suite", suite, "--max-degree", "1", "--trials", "-1")
        assert proc.returncode == 2, suite
        assert proc.stderr == "error: trials must be >= 0, got -1\n", suite
        assert proc.stdout == "", suite
    proc = run_module("verify", "--suite", "cm", "--max-degree", "1", "--trials", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("result: ok")
