"""Record golden.json: the digest of every op's rendered output for the shipped seeds.

    python3 bench/record.py

Runs every workload once per shipped seed through the same children that
run.py uses and stores, for each op, digest(op_id) -> digest(rendered
output).  An op that raises or fails its exact check stops the recording:
golden.json holds only results that pass.  Re-record only when an output
is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil

import run
import workloads

SHIPPED_SEEDS = range(16)


def main() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    run_dir = run.OUT_DIR / f"record-{os.getpid()}"
    run_dir.mkdir()
    (run_dir / workloads.FIELD_FILE).write_text(workloads.FIELD_TEXT)
    ops = {}
    try:
        for seed in SHIPPED_SEEDS:
            reps = [run.batch_rep(w, seed, run_dir, False, 1) for w in workloads.BATCH_WORKLOADS]
            reps.append(run.cli_pass(workloads.cli_requests(seed), run_dir, False, 1))
            for rep in reps:
                for op_id, dig, ok, err in rep["ops"]:
                    if err is not None or not ok:
                        raise SystemExit(f"seed {seed}: {op_id}: {err or 'exact check failed'}")
                    ops[workloads.digest(op_id)] = dig
            print(f"seed {seed}: {len(ops)} ops recorded", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump({"seeds": list(SHIPPED_SEEDS), "ops": dict(sorted(ops.items()))}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
