"""Golden digests of the jet layers (butcher and frame) and the growth layer.

The jet digests were recorded in a fresh process before the Butcher and
frame flows were routed through one grafting recursion; any change to a
coefficient, a truncation order or a verify report changes them.  The
growth digests were recorded with the Fraction rref path, before the
subalgebra bases and closure checks moved to the int echelon; they pin
every basis element, in order, and the element, bidegree and term that a
failing closure check reports.  The whole v1 report of `verify --suite all`
(every suite at its defaults, 2,007 results) is pinned twice: as sorted
JSON, and as the text the CLI prints for it.

The v1 report keeps the two transfer families as pass/fail only, and the
frame digests above go through `str`, which drops each row's truncation
order.  So delta_t from commutators and the two transfer right sides are
pinned in the CLI's JSON form, which keeps every row's order; both digests
were recorded before delta_from_commutators read `growth.decompose`.

One digest pins the exit code, stdout and stderr of every subcommand, in
text and in JSON.  It was recorded before the CLI's dispatch chain became
one handler per subcommand.  `--help` is left out: its bytes vary with the
Python version.
"""

import hashlib
import json
import random
from fractions import Fraction

from treehopf import (
    FormalDiffeo,
    Monomial,
    MultiSeries,
    closure_check,
    delta_from_commutators,
    enumerate_trees,
    fan_graph,
    gamma_t,
    generate_subalgebra,
    parse_tree,
    phi_frame,
    run_suites,
    verify_butcher,
    verify_cm,
)
from treehopf import cli
from treehopf.frame import coprodcontrib_rhs, pushforward_rhs, random_diffeo, random_frame_function

GAMMA = MultiSeries(1, {(1,): 1}, 8)
PSI = FormalDiffeo(MultiSeries(1, {(1,): 1, (2,): Fraction(1, 2), (3,): -1}, 8))
TREES = [t for n in range(1, 5) for t in enumerate_trees(n)]

VERIFY_CM = "661adde44de059cdb023d38910a24d044f65664f4bf262a5f2d1b96592000a7c"
VERIFY_ALL = "6df11c22f3ae460bc163a69ec4dc95de5fb7d4f2387df751f4f891121e09a780"
VERIFY_ALL_TEXT = "396d9c4583ace31a08930f470b773bbb0fe55708ed24ed7c3d9dbd57c3666ccd"
VERIFY_BUTCHER = "62c0d295c30d9853559a656377c0b27844753a5f66db91d23cfa2958a97b06f9"
PHI_FRAME = {
    "[]": "577c362b13a2af47",
    "[[]]": "c5b6d7045cc702dd",
    "[[][]]": "b8dd57cfc90eb658",
    "[[[]]]": "d520562bc4d981a0",
    "[[][][]]": "360ebd8bf74f6bb4",
    "[[[]][]]": "c95f2ae8c9847048",
    "[[[][]]]": "435db6e429ad2637",
    "[[[[]]]]": "763d5b9805198a88",
}
GAMMA_T = {
    "[]": "e902b13d7f22eec2",
    "[[]]": "4effd2d7eb783e35",
    "[[][]]": "85c9889b7e9bd9f6",
    "[[[]]]": "f5f7a5ef55b57c55",
    "[[][][]]": "3a8094f0b94ad706",
    "[[[]][]]": "e5ea44053134e8e5",
    "[[[][]]]": "1161214b1d9fe700",
    "[[[[]]]]": "cea4398385d7e8a3",
}

# The trees up to 5 vertices, and the three trees up to 9 vertices whose
# natural growth lists its terms in another order than `decompose` lists
# its parts, so the two fold their corrections in different orders.
COMMUTATOR_TREES = [t for n in range(1, 6) for t in enumerate_trees(n)] + [
    parse_tree(s) for s in ("[[[[]][]][[[]][]]]", "[[[[][]]][[[]][]]]", "[[[[[]]]][[[]][]]]")]
DELTA_FROM_COMMUTATORS = "3b27baf3155c424e8382c4699271cdade3431068ed5623cb9af05cc591a93450"
TRANSFER_RHS = "8a8aa1e5571c4e7b2175979f404564b84c0d4fdcf480d05f0dd834c733bc0bc9"

FAN3_DEGREE7 = "b9712382858aa098245814aac108003bd2d04c52e08f97a7b1b5d80a48234568"
CHERRY_DEGREE6 = "14bb9aedc43a27169acc7867b0ce8ad596313a2013e0043f78eeda22a459e80a"
CHERRY_CLOSURE = "e86572fc88f11b1821563c70780fe01e4faa1acef4d78f3bf5cda1b1848cf434"

# Each request runs as given and with --json; a field name stands for a file holding it.
CLI_FIELDS = {"quadratic": "f1 = x2 + 1/2 x1^2\nf2 = -x1 + x1 x2 - 1/3 x2^2\n",
              "linear": "f1 = 1 + x2\nf2 = x1\n", "cubic": "f1 = x1 - x1^3 + 1/2\n"}
CLI_REQUESTS = [
    ["trees", "--vertices", "5"],
    ["coproduct", "2 [[][]] - 1/3 []*[[]] + 1"],
    ["antipode", "[[[]]] + 3/2 []*[]"],
    ["multiply", "1 + []", "[] - [[]]"],
    ["grow", "--by", "[[]]", "[[][]] + 2 []*[]"],
    ["delta-k", "5"],
    ["decompose", "[[[]][]]"],
    ["subalgebra", "--gens", "fan:2", "--max-degree", "4"],
    ["subalgebra", "--gens", "fan:1", "--max-degree", "4", "--check-closure"],
    ["subalgebra", "--gens", "[[][]]", "--max-degree", "4", "--check-closure"],
    ["butcher", "--field", "quadratic", "--tree", "[[][]]"],
    ["butcher", "--field", "cubic", "--tree", "[[[]]]"],
    ["butcher", "--field", "linear", "--taylor", "5"],
    ["butcher", "--field", "cubic", "--taylor", "4"],
    ["cm", "gamma", "--psi", "x + 1/2 x^2", "--Gamma", "x", "--tree", "[[]]", "--order", "6"],
    ["cm", "gamma", "--psi", "x + x^2", "--Gamma", "0", "--tree", "[[][]]", "--order", "5"],
    ["verify", "--suite", "hopf", "--max-degree", "3"],
    ["verify", "--suite", "cm", "--max-degree", "2", "--order", "6", "--trials", "1"],
]
CLI_BYTES = "fcef9842141affc5bc3d065a0592a801e0ccb6fb6e287aed4f5cd23bf2c99b0b"


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_cm_report_is_unchanged():
    report = verify_cm(max_degree=4, order=6, trials=2, seed=0)
    assert sha(json.dumps(report, sort_keys=True)) == VERIFY_CM


def test_verify_butcher_report_is_unchanged():
    assert sha(json.dumps(verify_butcher(5, 0), sort_keys=True)) == VERIFY_BUTCHER


def test_verify_all_report_is_unchanged():
    report = run_suites("all")
    assert sum(len(suite["results"]) for suite in report["suites"]) == 2007
    assert sha(json.dumps(report, sort_keys=True)) == VERIFY_ALL


def test_every_subcommand_prints_the_same_bytes(capsys, tmp_path):
    for name, text in CLI_FIELDS.items():
        (tmp_path / name).write_text(text)
    got = []
    for argv in CLI_REQUESTS:
        argv = [str(tmp_path / arg) if arg in CLI_FIELDS else arg for arg in argv]
        for flags in ([], ["--json"]):
            code = cli.run(flags + argv)
            out = capsys.readouterr()
            got.append([code, out.out, out.err])
    assert sha(json.dumps(got)) == CLI_BYTES


def test_verify_all_text_is_unchanged(capsys):
    assert cli.run(["verify", "--suite", "all"]) == 1
    assert sha(capsys.readouterr().out) == VERIFY_ALL_TEXT


def test_phi_frame_is_unchanged():
    got = {t.serial: sha(" ; ".join(map(str, phi_frame(t, GAMMA, 8))))[:16] for t in TREES}
    assert got == PHI_FRAME


def test_gamma_t_is_unchanged():
    got = {t.serial: sha(str(gamma_t(t, PSI, GAMMA)))[:16] for t in TREES}
    assert got == GAMMA_T


def frame_digest(functions):
    return sha("\n".join(json.dumps(cli._frame_json(h)) for h in functions))


def test_delta_from_commutators_is_unchanged():
    gamma = MultiSeries(1, {(1,): 1}, 12)
    rng = random.Random(0)
    monomials = [Monomial(random_frame_function(rng, 12), random_diffeo(rng, 12))
                 for _ in range(4)]
    got = [delta_from_commutators(t, m, gamma).f for m in monomials for t in COMMUTATOR_TREES]
    assert frame_digest(got) == DELTA_FROM_COMMUTATORS


def test_transfer_right_sides_are_unchanged():
    rng = random.Random(0)
    got = []
    for _ in range(3):
        psi, h = random_diffeo(rng, 8), random_frame_function(rng, 8)
        for t in TREES:
            got += [pushforward_rhs(t, psi, GAMMA, h), coprodcontrib_rhs(t, psi, GAMMA, h)]
    assert frame_digest(got) == TRANSFER_RHS


def render(basis):
    return "\n".join(f"{d}: " + " ; ".join(map(str, basis.by_degree[d]))
                     for d in sorted(basis.by_degree))


def test_fan_subalgebra_basis_is_unchanged():
    basis = generate_subalgebra({fan_graph(i) for i in range(1, 4)}, 7)
    assert sha(render(basis)) == FAN3_DEGREE7


def test_cherry_subalgebra_and_closure_report_are_unchanged():
    basis = generate_subalgebra({parse_tree("[[][]]")}, 6)
    assert sha(render(basis)) == CHERRY_DEGREE6
    report = closure_check(basis)
    assert not report
    assert sha(str(report)) == CHERRY_CLOSURE
