"""Record the outcome of every pool entry into perfbench/reference.json.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run it from the repository root at the commit whose outcomes the benchmark
checks against (the commit that introduced the benchmark).  An entry's
outcome is stored only after its observed statistics agree with the oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import HERE, machine_record, prepare_program


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    root = Path.cwd()
    src = prepare_program(root)
    import oracle
    import workloads
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    for name in args.workload or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        outcomes = []
        for entry in range(workloads.POOL_SIZE):
            inp = workloads.entry_input(wl, entry)
            result = workloads.run_op(wl, inp, wl.workers)
            got = workloads.outcome(wl, result)
            problems = oracle.check(wl, inp, result, got)
            if problems:
                print(f"{name} entry {entry}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            outcomes.append(got)
        data["workloads"][name] = {"digest": workloads.pool_digest(wl), "outcomes": outcomes}
        print(f"{name}: {len(outcomes)} entries recorded", file=sys.stderr)
    data["recorded_with"] = machine_record(root, src)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
