"""treehopf benchmark: fresh-process workloads, end-to-end metrics, per-layer traces.

    python3 bench/run.py --workload hopf-bulk --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 0        # every workload in turn

Each repetition of a workload runs in a fresh child interpreter, one child
at a time, because treehopf's memos are process-wide: a second pass in the
same process would time the caches, not the code.  Repetitions continue
until `--seconds` is used up (at least MIN_REPS of them, MIN_PASSES for
cli-cold).  `work_refs`, the workload's time counted in units of a
reference timed alongside it (a call of refclock.reference(); for
cli-cold, a bare interpreter start), and `wall_s` are their means; `setup_s`
is the median of set-ups spread over the run, and the other end-to-end
metrics are medians.  Repetition r runs under PYTHONHASHSEED=r, and every
op's output digest must agree across repetitions and with golden.json,
which holds the digests recorded for the shipped seeds.

With `--trace 0` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1`, the per-layer metrics, taken from
alternating untraced and traced repetitions.  The lines before it are a
human-readable report; the full record of the run is written to
.bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_REPS = 2              # batch repetitions
MIN_PASSES = 3            # cli-cold passes (3 x 40 >= 100 requests)
MIN_TRACE_PAIRS = 1
CONTROL_RUNS = 5          # `python -c pass` startup control
SETUP_PROBES = 3          # set-up-only children after each untraced repetition
CHILD_TIMEOUT_S = 100


# Every end-to-end figure a run reports; BENCHMARK.json bounds a subset of them.
E2E_UNITS = {"work_refs": "ref", "wall_s": "s", "ref_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "request_p50_ms": "ms", "request_p90_ms": "ms"}


class HarnessError(RuntimeError):
    """The program could not be run at all; no result is printed."""


# -- statistics ------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (0 <= p <= 100) of the values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, ladder=(50, 90, 99, 99.9)):
    """Highest percentile of the ladder with at least ten of n samples beyond it."""
    best = None
    for p in ladder:
        if n * (100 - Fraction(str(p))) / 100 >= 10:
            best = p
    return best


# -- processes --------------------------------------------------------------------


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed), BENCH_SRC=str(SRC))
    return env


def spawn(cmd, env, cwd, stdout, stderr):
    """Run cmd to completion; return (exit code, spawn time, exit time, max RSS in MB).

    The child is reaped with wait4 so its own peak RSS is read; a timer kills
    it if it outlives CHILD_TIMEOUT_S.
    """
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_exit, usage.ru_maxrss / 1024


def python_c(run_dir: Path, code: str) -> float:
    """Spawn-to-exit time of `python -c code`, in seconds.

    `pass` is the startup control and cli-cold's reference clock;
    `import treehopf.cli` is cli-cold's set-up.
    """
    rc, t0, t1, _ = spawn([sys.executable, "-c", code], child_env(1), run_dir,
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if rc != 0:
        raise HarnessError(f"`python -c {code!r}` exited with {rc}")
    return t1 - t0


# -- environment ---------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import hashlib
    import platform

    h = hashlib.sha256()
    for path in sorted((SRC / "treehopf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


# -- checks ------------------------------------------------------------------------------


def load_golden() -> dict:
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)["ops"]


def check_reps(op_rows_per_rep, golden) -> tuple[int, int, list]:
    """(attempted, failed, first failures) over all reps of one workload.

    An op fails if it raised, if its exact check failed, if its digest
    differs from golden.json (when the op is recorded there), or if its
    digest differs from the first repetition, which ran under another
    PYTHONHASHSEED.
    """
    attempted = failed = 0
    notes = []
    first = op_rows_per_rep[0]
    for r, rows in enumerate(op_rows_per_rep):
        for i, (op_id, dig, ok, err) in enumerate(rows):
            attempted += 1
            want = golden.get(workloads.digest(op_id))
            why = None
            if err is not None or not ok:
                why = err.strip().splitlines()[-1] if err else "exact check failed"
            elif want is not None and dig != want:
                why = f"digest {dig} != recorded {want}"
            elif dig != first[i][1]:
                why = f"digest differs from repetition 1 (PYTHONHASHSEED=1)"
            if why:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{op_id[:80]}: {why}")
    return attempted, failed, notes


# -- batch workloads ---------------------------------------------------------------------


def batch_rep(workload: str, seed: int, run_dir: Path, traced: bool, hash_seed: int) -> dict:
    out = run_dir / f"rep{hash_seed}-{int(traced)}"
    with open(run_dir / "child.log", "w+") as log:
        rc, t_spawn, _t_exit, rss = spawn(
            [sys.executable, str(BENCH / "child.py"), "batch", workload, str(seed), str(out),
             "1" if traced else "0"],
            child_env(hash_seed), run_dir, log, log)
        log.seek(0)
        tail = log.read()[-2000:]
    if rc != 0:
        raise HarnessError(f"{workload} child exited with {rc}:\n{tail}")
    with open(str(out) + ".json") as fh:
        data = json.load(fh)
    rep = {
        "hash_seed": hash_seed,
        "wall_s": data["t_end"] - data["t_first"] - data["ref_spent"],
        "work_refs": data["refs"],
        "ref_samples": data["ref_samples"],
        "setup_s": data["t_first"] - t_spawn,
        "peak_rss_mb": rss,
        "latencies_ms": [x * 1e3 for x in data["latencies"]],
        "ops": data["ops"],
        "facts": data["facts"],
        "import_ms": data["import_ms"],
    }
    if traced:
        meta, nids, parents, starts, ends = tracing.read_spans(str(out) + ".spans")
        agg = tracing.aggregate(meta["names"], nids, parents, starts, ends)
        values = tracing.layer_values(agg, meta["counts"])
        values.update(tracing.ratios(values))
        values["cli.import_ms"] = meta["import_ms"]
        rep["layers"] = values
        rep["spans"] = meta["n"]
    return rep


def setup_probe(workload: str, seed: int, run_dir: Path) -> float:
    """Spawn-to-first-op time of a child that stops where its first op would start."""
    out = run_dir / "setup"
    rc, t_spawn, _t_exit, _rss = spawn(
        [sys.executable, str(BENCH / "child.py"), "setup", workload, str(seed), str(out)],
        child_env(1), run_dir, subprocess.DEVNULL, subprocess.DEVNULL)
    if rc != 0:
        raise HarnessError(f"{workload} set-up child exited with {rc}")
    with open(str(out) + ".json") as fh:
        return json.load(fh)["t_first"] - t_spawn


# -- cli-cold ------------------------------------------------------------------------------


def cli_pass(requests, run_dir: Path, traced: bool, hash_seed: int) -> dict:
    """One closed-loop pass: each request is sent when the previous one exits.

    The sum of the requests' spawn-to-exit times is the pass's `wall_s`.
    A request's time is mostly process start, which the in-process reference
    of refclock.py does not track (it left +-7% between passes of one seed,
    against +-2% this way), so cli-cold's reference is a bare interpreter
    start: timed before the first request and after each one, and each
    request's time divided by the mean of the two samples beside it adds up
    to `work_refs`.
    """
    env = child_env(hash_seed)
    lat, rss, outputs, layer_runs = [], [], [], []
    ref = [python_c(run_dir, "pass")]
    out_path = run_dir / "stdout"
    spans = str(run_dir / "cli-spans")
    for argv, _code in requests:
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", spans, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "treehopf"] + argv
        with open(out_path, "w+b") as out:
            rc, t0, t1, r = spawn(cmd, env, run_dir, out, subprocess.DEVNULL)
            out.seek(0)
            outputs.append((rc, out.read()))
        lat.append((t1 - t0) * 1e3)
        rss.append(r)
        ref.append(python_c(run_dir, "pass"))
        if traced:
            meta, nids, parents, starts, ends = tracing.read_spans(spans)
            values = tracing.layer_values(
                tracing.aggregate(meta["names"], nids, parents, starts, ends), meta["counts"])
            values["cli.import_ms"] = meta["import_ms"]
            layer_runs.append(values)
    work_refs = sum(ms / 1e3 / ((a + b) / 2) for ms, a, b in zip(lat, ref, ref[1:]))
    rows = []
    for (argv, code), (rc, stdout) in zip(requests, outputs):
        rows.append([workloads.cli_op_id(argv), workloads.digest(workloads.cli_render(rc, stdout)),
                     rc == code, None])
    rep = {"hash_seed": hash_seed, "wall_s": sum(lat) / 1e3, "work_refs": work_refs,
           "ref_samples": ref,
           "peak_rss_mb": max(rss), "latencies_ms": lat, "ops": rows}
    if traced:
        # Work and self time summed over the pass; the cli.* times per request.
        values = {k: sum(v[k] for v in layer_runs) for k in layer_runs[0]}
        values.update(tracing.ratios(values))
        for k in ("cli.import_ms", "cli.run.self_ms", "cli.render_ms"):
            values[k] = statistics.median(v[k] for v in layer_runs)
        rep["layers"] = values
    return rep


def edge_probes(run_dir: Path) -> list:
    """Over-deep requests, whose documented result is exit 2; run once, untimed."""
    out = []
    for argv in workloads.EDGE_PROBES:
        rc, *_ = spawn([sys.executable, "-m", "treehopf"] + argv, child_env(1), run_dir,
                       subprocess.DEVNULL, subprocess.DEVNULL)
        out.append({"request": f"{argv[0]} <ladder of {argv[1].count('[')}>", "exit": rc,
                    "documented_exit": 2})
    return out


# -- one workload -------------------------------------------------------------------------


def repeat(one_rep, seconds: float, min_reps: int) -> list:
    """Call one_rep(index) at least min_reps times, and while the next call
    would probably end by `seconds` (it starts before seconds - half a call)."""
    reps, durations = [], []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(one_rep(len(reps)))
        durations.append(time.monotonic() - t)
        spent = time.monotonic() - t0
        if len(reps) >= min_reps and spent + statistics.median(durations) / 2 >= seconds:
            return reps


def run_workload(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    golden = load_golden()
    is_cli = workload == "cli-cold"
    if is_cli:
        (run_dir / workloads.FIELD_FILE).write_text(workloads.FIELD_TEXT)
        requests = workloads.cli_requests(seed)

        def one(traced_rep, hash_seed):
            rep = cli_pass(requests, run_dir, traced_rep, hash_seed)
            if not traced_rep:
                rep["setups_s"] = [python_c(run_dir, "import treehopf.cli")
                                   for _ in range(SETUP_PROBES)]
            return rep
    else:
        def one(traced_rep, hash_seed):
            rep = batch_rep(workload, seed, run_dir, traced_rep, hash_seed)
            if not traced_rep:
                rep["setups_s"] = [rep["setup_s"]] + [setup_probe(workload, seed, run_dir)
                                                      for _ in range(SETUP_PROBES)]
            return rep

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "env": environment()}
    record["env"]["python_startup_ms"] = statistics.median(
        python_c(run_dir, "pass") for _ in range(CONTROL_RUNS)) * 1e3

    if traced:
        pairs = repeat(lambda i: (one(False, i + 1), one(True, i + 1)), seconds, MIN_TRACE_PAIRS)
        plain = [p[0] for p in pairs]
        traced_reps = [p[1] for p in pairs]
        reps = plain + traced_reps
    else:
        plain = repeat(lambda i: one(False, i + 1), seconds, MIN_PASSES if is_cli else MIN_REPS)
        reps = plain

    attempted, failed, notes = check_reps([r["ops"] for r in reps], golden)
    facts_ok = all(all(r.get("facts", {}).values()) for r in reps)
    record.update(attempted=attempted, failed=failed, failures=notes,
                  correct=failed == 0 and facts_ok, reps=len(plain))

    lat = [x for r in plain for x in r["latencies_ms"]]
    for r in plain:
        r["ref_s"] = statistics.median(r.pop("ref_samples"))
    work_refs = statistics.mean(r["work_refs"] for r in plain)
    wall = statistics.mean(r["wall_s"] for r in plain)
    # Set-up samples are spread over the run, after every repetition.
    setups = [x for r in plain for x in r["setups_s"]]
    setup = statistics.median(setups)
    if is_cli:
        record["edge_probes"] = edge_probes(run_dir)
    record["samples"] = {"reps": len(plain), "latencies": len(lat), "setups": len(setups),
                         "tail_percentile": tail_percentile(len(lat))}
    record["e2e"] = {
        "work_refs": work_refs,
        "wall_s": wall,
        "ref_ms": statistics.median(r["ref_s"] for r in plain) * 1e3,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "request_p50_ms": percentile(lat, 50),
        "request_p90_ms": percentile(lat, 90),
    }
    tail = record["samples"]["tail_percentile"]
    if tail not in (None, 50, 90):
        record["e2e_tail"] = {f"request_p{tail:g}_ms": percentile(lat, tail)}
    if traced:
        layers = {}
        for key in traced_reps[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced_reps)
        layers["cli.python_startup_ms"] = record["env"]["python_startup_ms"]
        record["traced_wall_s"] = statistics.mean(r["wall_s"] for r in traced_reps)
        layers["trace_overhead_s"] = record["traced_wall_s"] - wall
        record["layers"] = layers
    record["rep_walls_s"] = [r["wall_s"] for r in plain]
    record["rep_ref_ms"] = [r["ref_s"] * 1e3 for r in plain]
    record["rep_work_refs"] = [r["work_refs"] for r in plain]
    return record


# -- output ----------------------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metrics_of(record: dict, spec: dict) -> dict:
    if record["trace"]:
        return {m["name"]: {"value": record["layers"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": record["e2e"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def report(record: dict, spec: dict) -> list:
    env = record["env"]
    s = record["samples"]
    mode = "traced" if record["trace"] else "timed"
    lines = [
        f"== {record['workload']}  seed={record['seed']}  mode={mode}  "
        f"reps={s['reps']} (PYTHONHASHSEED 1..{s['reps']})",
        f"   env: python {env['python']}  nproc {env['nproc']}  git {env['git_sha']}  "
        f"src {env['src_sha256'][:12]}  python_startup_ms {env['python_startup_ms']:.1f}",
    ]
    gated = {m["name"] for m in spec["end_to_end"]}
    counts = {"work_refs": f"wall_s in reference units, mean of {s['reps']} reps",
              "wall_s": f"mean of {s['reps']} reps",
              "ref_ms": ("one bare interpreter start" if record["workload"] == "cli-cold"
                         else "one reference call") + f", median of {s['reps']} rep medians",
              "setup_s": f"median of {s['setups']} set-ups",
              "peak_rss_mb": f"median of {s['reps']} reps"}
    for name, value in record["e2e"].items():
        note = counts.get(name, f"n={s['latencies']} op latencies")
        if name not in gated:
            note += " (reported, no bound)"
        lines.append(f"   {name:<16} {value:>12.4f} {E2E_UNITS[name]:<4} {note}")
    for name, value in record.get("e2e_tail", {}).items():
        lines.append(f"   {name:<16} {value:>12.4f} ms   highest percentile with >= 10 samples beyond")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"   {'fail_ratio':<16} {ratio:>12.4f}      {record['failed']}/{record['attempted']} ops")
    for probe in record.get("edge_probes", []):
        lines.append(f"   edge probe: {probe['request']} exit {probe['exit']} "
                     f"(documented {probe['documented_exit']})")
    for note in record["failures"]:
        lines.append(f"   FAILED {note}")
    if record["trace"]:
        lines.append(f"   traced wall_s {record['traced_wall_s']:.4f}  "
                     f"overhead {record['layers']['trace_overhead_s']:.4f} s")
        for m in spec["per_layer"]:
            lines.append(f"   {m['name']:<44} {record['layers'][m['name']]:>14.6g} {m['unit']}")
    lines.append(f"   correct={record['correct']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "treehopf" / "__init__.py").is_file():
        print(f"bench: no treehopf sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), run_dir)
            records.append(record)
            for line in report(record, spec):
                print(line, flush=True)
            with open(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
                json.dump(record, fh, indent=1, default=str)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if len(records) == 1:
        metrics = metrics_of(records[0], spec)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in metrics_of(r, spec).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
