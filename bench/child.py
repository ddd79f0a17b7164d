"""One fresh interpreter of the benchmark, started by run.py.

    python bench/child.py batch WORKLOAD SEED OUT TRACE
        Build the workload's inputs from SEED, run its operations once (each
        timed, with the reference clock of refclock.py sampling alongside),
        then render and check every result outside the timed region and
        write everything to OUT.json.  With TRACE=1 the treehopf
        functions are wrapped first and the spans are written to OUT.spans.*.

    python bench/child.py setup WORKLOAD SEED OUT
        The set-up of `batch` alone (import, seeded input generation), then
        the time of what would be the first op in OUT.json.

    python bench/child.py cli OUT -- ARGV...
        Traced stand-in for `python -m treehopf ARGV...`: same exit code and
        output, plus the import time and the spans of the request in OUT.*.

`BENCH_SRC` names the source tree the program must be imported from; the
child exits with code 3 if `treehopf` comes from anywhere else.
"""

import os
import sys
import time

monotonic = time.monotonic


def import_treehopf(*names):
    """Import the named treehopf modules; return the import time in ms."""
    import importlib

    t = time.perf_counter()
    for name in names:
        importlib.import_module(name)
    ms = (time.perf_counter() - t) * 1e3
    where = os.path.realpath(sys.modules["treehopf"].__file__)
    if not where.startswith(os.path.realpath(os.environ["BENCH_SRC"]) + os.sep):
        sys.stderr.write(f"treehopf imported from {where}, not from BENCH_SRC\n")
        sys.exit(3)
    return ms


def run_batch(workload: str, seed: int, out: str, traced: bool) -> None:
    import json
    import traceback

    import_ms = import_treehopf("treehopf")
    import refclock
    import tracing
    import workloads

    trace = tracing.Trace()
    if traced:
        tracing.install(trace)
        trace.enabled = True
    facts, ops = workloads.batch_ops(workload, seed)

    # The reference clock samples in untraced repetitions only; the time its
    # handler takes is subtracted from every latency and from the total.
    clock = refclock.Sampler()
    latencies, results = [], []
    perf = time.perf_counter
    t_first = monotonic()
    if not traced:
        clock.start()
    for i, (_op_id, fn) in enumerate(ops):
        trace.op = i
        spent = clock.spent
        t = perf()
        try:
            res = fn()
        except Exception:
            res = traceback.format_exc()
        latencies.append(perf() - t - (clock.spent - spent))
        results.append(res)
    clock.stop()
    t_end = monotonic()
    trace.enabled = False

    rows = []
    for (op_id, _fn), res in zip(ops, results):
        if isinstance(res, str):        # the traceback of a failed op
            rows.append([op_id, None, False, res])
        else:
            text = workloads.render(workload, res)
            rows.append([op_id, workloads.digest(text), workloads.check(workload, op_id, res), None])
    if traced:
        trace.write(out + ".spans", {"import_ms": import_ms})
    with open(out + ".json", "w") as fh:
        json.dump({"t_first": t_first, "t_end": t_end, "latencies": latencies,
                   "refs": clock.refs, "ref_spent": clock.spent, "ref_samples": clock.samples,
                   "ops": rows, "facts": facts, "import_ms": import_ms}, fh)


def run_setup(workload: str, seed: int, out: str) -> None:
    import json

    import_treehopf("treehopf")
    import refclock
    import tracing
    import workloads

    # The same steps as run_batch up to its first op.
    tracing.Trace()
    workloads.batch_ops(workload, seed)
    refclock.Sampler()
    t_first = monotonic()
    with open(out + ".json", "w") as fh:
        json.dump({"t_first": t_first}, fh)


def run_cli(out: str, argv: list) -> int:
    import_ms = import_treehopf("treehopf", "treehopf.cli")
    import tracing

    trace = tracing.Trace()
    tracing.install(trace)
    trace.enabled = True
    cli = sys.modules["treehopf.cli"]
    try:
        code = cli.run(argv)
    finally:
        trace.enabled = False
        sys.stdout.flush()
        trace.write(out, {"import_ms": import_ms})
    return code


def main() -> None:
    mode = sys.argv[1]
    if mode == "batch":
        workload, seed, out, traced = sys.argv[2:6]
        run_batch(workload, int(seed), out, traced == "1")
    elif mode == "setup":
        workload, seed, out = sys.argv[2:5]
        run_setup(workload, int(seed), out)
    elif mode == "cli":
        out, sep, *argv = sys.argv[2:]
        if sep != "--":
            sys.exit("usage: child.py cli OUT -- ARGV...")
        sys.exit(run_cli(out, argv))
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
