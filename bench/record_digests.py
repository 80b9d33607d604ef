"""Record the sha256 digest of every file each run workload writes at
``--seed 0`` into ``digests.json``, which the benchmark's output check
compares against.

    python3 bench/record_digests.py

The digests pin the program's output bytes.  Record them again only for a
change that is meant to alter those bytes, and say so with the change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    bench = run.Bench()
    recorded = {}
    try:
        for workload in wl.WORKLOADS.values():
            if not workload.is_run:
                continue
            argv, outdir, cfg = run.WorkloadRun(bench, workload, 0, False, None).prepare()
            inv = bench.invoke(run.cli_argv(argv), 1)
            problem = wl.check_run(inv.returncode, inv.stdout, outdir, cfg, None)
            if problem is not None:
                print(f"{workload.name}: {problem}\n{inv.stderr}", file=sys.stderr)
                return 1
            recorded[workload.name] = wl.digests(outdir)
    finally:
        bench.close()
    wl.DIGESTS_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {wl.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
