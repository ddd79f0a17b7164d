"""Seeded inputs, operations, renderings and exact checks of the workloads.

Every input is a pure function of the workload seed.  The batch workloads
(`hopf-bulk`, `subalgebra`, `jets`) build their operations inside the
child interpreter, where `treehopf` is importable; the `cli-cold` request
mix is plain text, so the parent harness can build it without importing
the program under test.

An operation is `(op_id, fn)`.  `op_id` names the full input, so the
digest of its rendered result can be looked up in `golden.json` for any
seed that produced the same op.  `render` turns a result into the text
that is digested, and `check` runs the exact, seed-independent checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("hopf-bulk", "subalgebra", "jets", "cli-cold")
BATCH_WORKLOADS = WORKLOADS[:3]

# Number of canonical rooted trees with n vertices, n = 1..10 (OEIS A000081).
TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)

# verify_cm relations that are not identities of the jet model (see README):
# each holds on the trees with fewer vertices than this bound and fails on
# larger trees, except on the odd random instance where both sides agree.
FAILING_FROM = {
    "Delta X_t": 2,
    "Delta delta_t": 3,
    "coprodcontrib cut expansion": 3,
    "pushforward product formula": 3,
}

HOPF_ANTIPODE_MAX = 9
HOPF_COPRODUCT_MAX = 10
HOPF_FORESTS = 24          # identity checks, half of degree 7, half of degree 8
JETS_ORDER = 16
JETS_DIFFEOS = 20
JETS_CM_TRIALS = 4         # verify_cm trials; keeps one repetition near 8 s
# The verify suites draw their instances from this fixed seed, not from the
# workload seed: their work (profiled call counts, seeds 1-8) moves by +-7%
# (verify_cm) and +-11% (verify_butcher) with the seed, which would drown a
# change of a few percent in runs of different seeds.  The workload seed
# draws the order-16 diffeomorphisms.
JETS_VERIFY_SEED = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- hopf-bulk ----------------------------------------------------------------


def random_forest(rng: random.Random, degree: int, trees_by_size) -> tuple:
    """A seeded forest of the given degree, as a tuple of canonical trees."""
    parts = []
    left = degree
    while left:
        k = rng.randint(1, left)
        parts.append(rng.choice(trees_by_size[k]))
        left -= k
    return tuple(parts)


def hopf_inputs(seed: int):
    """(enumeration counts, shuffled S/D op list, identity-check forests)."""
    from treehopf.trees import Forest, enumerate_trees

    trees_by_size = {n: enumerate_trees(n) for n in range(1, HOPF_COPRODUCT_MAX + 1)}
    counts = tuple(len(trees_by_size[n]) for n in sorted(trees_by_size))
    rng = random.Random(seed)
    ops = [("S", t) for n in range(1, HOPF_ANTIPODE_MAX + 1) for t in trees_by_size[n]]
    ops += [("D", t) for n in range(1, HOPF_COPRODUCT_MAX + 1) for t in trees_by_size[n]]
    rng.shuffle(ops)
    forests = [Forest(random_forest(rng, 7 + i % 2, trees_by_size)) for i in range(HOPF_FORESTS)]
    return counts, ops, forests


def antipode_identity(x):
    """m (S (x) id) Delta(x), summed in one pass over the coproduct terms."""
    from treehopf.hopf import LinComb, antipode, coproduct

    terms = []
    for (left, right), c in coproduct(x).terms.items():
        for f, d in (antipode(left) * LinComb.of(right)).terms.items():
            terms.append((f, c * d))
    return LinComb(terms)


def hopf_ops(seed: int):
    from treehopf.hopf import antipode, coproduct

    counts, shuffled, forests = hopf_inputs(seed)
    ops = []
    for kind, t in shuffled:
        fn = antipode if kind == "S" else coproduct
        ops.append((f"{kind} {t.serial}", lambda fn=fn, t=t: fn(t)))
    for f in forests:
        ops.append((f"m(S*id)D {f.serial}", lambda f=f: antipode_identity(f)))
    return counts, ops


def hopf_check(op_id: str, result) -> bool:
    if op_id.startswith("m(S*id)D"):
        return not result    # counit of a non-empty forest is 0
    return bool(result)


# -- subalgebra -----------------------------------------------------------------


def subalgebra_ops(seed: int):
    """The fan:3 growth subalgebra; deterministic, the seed is ignored."""
    from treehopf.growth import closure_check, fan_graph, generate_subalgebra

    gens = {fan_graph(i) for i in range(1, 4)}
    held = {}

    def gen6():
        held["basis"] = generate_subalgebra(gens, 6)
        return held["basis"]

    return [
        ("generate_subalgebra fan:3 7", lambda: generate_subalgebra(gens, 7)),
        ("generate_subalgebra fan:3 6", gen6),
        ("closure_check fan:3 6", lambda: closure_check(held["basis"])),
    ]


def render_basis(basis) -> str:
    lines = [",".join(t.serial for t in basis.generators)]
    for d in sorted(basis.by_degree):
        lines.append(f"{d}: " + " ; ".join(str(e) for e in basis.by_degree[d]))
    return "\n".join(lines)


def subalgebra_check(op_id: str, result) -> bool:
    if op_id.startswith("closure_check"):
        return bool(result)
    return all(basis for d, basis in result.by_degree.items())


# -- jets -------------------------------------------------------------------------


def jets_ops(seed: int):
    from treehopf import frame as fr
    from treehopf.series import MultiSeries
    from treehopf.verify import verify_butcher, verify_cm

    rng = random.Random(seed)
    diffeos = [fr.random_diffeo(rng, JETS_ORDER) for _ in range(JETS_DIFFEOS)]
    gamma = MultiSeries(1, {(1,): 1}, JETS_ORDER)
    vseed = JETS_VERIFY_SEED
    ops = [
        (f"verify_cm 4 8 {JETS_CM_TRIALS} seed={vseed}",
         lambda: verify_cm(max_degree=4, order=8, trials=JETS_CM_TRIALS, seed=vseed)),
        (f"verify_butcher 5 seed={vseed}", lambda: verify_butcher(5, vseed)),
    ]
    held = {}
    for i, psi in enumerate(diffeos):
        eta = diffeos[(i + 1) % len(diffeos)]
        tag = f"#{i} seed={seed} trunc={JETS_ORDER}"

        def inverse(psi=psi, i=i):
            held[i] = psi.inverse()
            return held[i]

        ops += [
            (f"check_cocycle {tag}", lambda psi=psi, eta=eta: fr.check_cocycle(psi, eta, gamma)),
            (f"inverse {tag}", inverse),
            (f"compose {tag}", lambda psi=psi, i=i: psi.compose(held[i])),
        ]
    return ops


def render_jet(result) -> str:
    if isinstance(result, dict):
        return json.dumps(result, sort_keys=True)
    if isinstance(result, bool):
        return str(result)
    return f"{result} | trunc={result.trunc}"


def verify_pattern_ok(report: dict) -> bool:
    """Every relation passes, except the documented families: those may fail
    only on trees of at least their bound, and each must still fail somewhere."""
    if report["suite"] == "butcher":
        return report["ok"] and report["checks"] > 0
    families = {row["relation"] for row in report["results"]} & set(FAILING_FROM)
    failing = set()
    for row in report["results"]:
        if row["status"] == "pass":
            continue
        bound = FAILING_FROM.get(row["relation"])
        tree = row["instance"].split(" t=")[1].split(" ")[0] if bound else ""
        if bound is None or tree.count("[") < bound:
            return False
        failing.add(row["relation"])
    return failing == families


def jets_check(op_id: str, result) -> bool:
    if isinstance(result, dict):
        return verify_pattern_ok(result)
    if isinstance(result, bool):
        return result
    if result.trunc != JETS_ORDER:
        return False
    if op_id.startswith("compose"):
        return result.is_identity()
    return True


# -- batch dispatch ------------------------------------------------------------------


def batch_ops(workload: str, seed: int):
    """(setup facts that must hold, op list) for a batch workload."""
    if workload == "hopf-bulk":
        counts, ops = hopf_ops(seed)
        return {"enumeration counts": counts == TREE_COUNTS}, ops
    if workload == "subalgebra":
        return {}, subalgebra_ops(seed)
    if workload == "jets":
        return {}, jets_ops(seed)
    raise ValueError(f"not a batch workload: {workload}")


def render(workload: str, result) -> str:
    if workload == "subalgebra" and hasattr(result, "by_degree"):
        return render_basis(result)
    if workload == "jets":
        return render_jet(result)
    return str(result)


def check(workload: str, op_id: str, result) -> bool:
    return {"hopf-bulk": hopf_check, "subalgebra": subalgebra_check,
            "jets": jets_check}[workload](op_id, result)


# -- cli-cold ---------------------------------------------------------------------------

FIELD_FILE = "field.txt"
FIELD_TEXT = "f1 = x2 + 1/2 x1^2\nf2 = -x1 + x1 x2 - 1/3 x2^2\n"
SUBALGEBRA_SPECS = (("fan:2", 5), ("fan:3", 5), ("fan:3", 4), ("[],[[]]", 4))
MALFORMED = (
    ["coproduct", "[[]"],
    ["antipode", "1/0 [[]]"],
    ["delta-k", "0"],
    ["trees", "--vertices", "many"],
    ["decompose", "[]]"],
    ["multiply", "[[]] +", "[]"],
)
# Quota of each request kind in one pass; the seed draws the arguments.
CLI_QUOTA = (
    ("coproduct", 5), ("antipode", 5), ("multiply", 4), ("grow", 4),
    ("decompose", 4), ("delta-k", 3), ("trees", 3), ("subalgebra", 3),
    ("butcher", 3), ("cm-gamma", 3), ("malformed", 3),
)
DEEP_LADDER = "[" * 1200 + "]" * 1200
EDGE_PROBES = (["coproduct", DEEP_LADDER], ["decompose", DEEP_LADDER])


def random_tree_text(rng: random.Random, n: int) -> str:
    """Bracket text of a random tree on n vertices, children in arbitrary order."""
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[rng.randrange(v)].append(v)

    def text(v):
        return "[" + "".join(text(c) for c in children[v]) + "]"

    return text(0)


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 1, 2, 3, -1, -2)), rng.choice((1, 1, 2, 3)))


def random_lincomb_text(rng: random.Random, lo: int, hi: int) -> str:
    parts = []
    for _ in range(rng.randint(1, 2)):
        c = random_coeff(rng)
        sizes = [rng.randint(1, hi - 1)] if rng.random() < 0.3 else []
        forest = [random_tree_text(rng, s) for s in sizes]
        rest = rng.randint(lo, hi) - sum(sizes)
        forest.append(random_tree_text(rng, max(rest, 1)))
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)} " + "*".join(forest))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def random_poly_text(rng: random.Random, start: int, stop: int) -> str:
    text = "x"
    for k in range(start, stop + 1):
        c = random_coeff(rng)
        text += f" {'-' if c < 0 else '+'} {abs(c)} x^{k}"
    return text


def cli_request(rng: random.Random, kind: str) -> tuple[list[str], int]:
    """One request's argv after `treehopf`, and its documented exit code."""
    if kind == "coproduct":
        return ["coproduct", random_lincomb_text(rng, 3, 7)], 0
    if kind == "antipode":
        return ["antipode", random_lincomb_text(rng, 3, 7)], 0
    if kind == "multiply":
        return ["multiply", random_lincomb_text(rng, 2, 4), random_lincomb_text(rng, 2, 4)], 0
    if kind == "grow":
        return ["grow", "--by", random_tree_text(rng, rng.randint(1, 3)),
                random_lincomb_text(rng, 2, 5)], 0
    if kind == "decompose":
        return ["decompose", random_tree_text(rng, rng.randint(3, 7))], 0
    if kind == "delta-k":
        return ["delta-k", str(rng.randint(4, 8))], 0
    if kind == "trees":
        return ["trees", "--vertices", str(rng.randint(4, 8))], 0
    if kind == "subalgebra":
        gens, degree = rng.choice(SUBALGEBRA_SPECS)
        return ["subalgebra", "--gens", gens, "--max-degree", str(degree), "--check-closure"], 0
    if kind == "butcher":
        return ["butcher", "--field", FIELD_FILE, "--tree",
                random_tree_text(rng, rng.randint(2, 5))], 0
    if kind == "cm-gamma":
        return ["cm", "gamma", "--psi", random_poly_text(rng, 2, 3), "--Gamma", random_poly_text(rng, 2, 2),
                "--tree", random_tree_text(rng, rng.randint(1, 4)), "--order", "8"], 0
    if kind == "malformed":
        return list(rng.choice(MALFORMED)), 2
    raise ValueError(kind)


def cli_requests(seed: int) -> list[tuple[list[str], int]]:
    """The seeded pass of requests: fixed kind quotas, half with --json, shuffled."""
    rng = random.Random(seed)
    reqs = [cli_request(rng, kind) for kind, n in CLI_QUOTA for _ in range(n)]
    json_idx = set(rng.sample(range(len(reqs)), len(reqs) // 2))
    reqs = [((["--json"] if i in json_idx else []) + argv, code)
            for i, (argv, code) in enumerate(reqs)]
    rng.shuffle(reqs)
    return reqs


def cli_op_id(argv: list[str]) -> str:
    return "treehopf " + json.dumps(argv)


def cli_render(code: int, stdout: bytes) -> str:
    return f"exit={code}\n" + stdout.decode(errors="replace")
