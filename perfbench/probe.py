"""Fresh-interpreter probe for the end-to-end run.

    python3 perfbench/probe.py --src src [--workload NAME --seed N]

Prints one JSON line with ``import_s``, the time ``import vardiag`` takes in
this fresh interpreter, and ``import_ref_s``, that time at the reference host
speed.  With a workload it leaves out the scaling, runs that workload's first
operation for the seed once and adds ``peak_rss_mb``: the larger of this
process's maximum RSS and that of its largest reaped child (pool worker).

The import is scaled like the benchmark's operations (see ``hostspeed.py``),
but by a kernel of its own, timed in this process right before and right
after the import: compiling and running module source, and touching fresh
memory, which is the work an import does.  The numpy kernel of
``hostspeed.py`` would load numpy before the import, and on the 2-vCPU host
it followed import times worse than no scaling at all.
"""

import argparse
import json
import marshal
import resource
import sys
import time

# Seconds the import kernel takes at the reference speed: about its median on
# the host the benchmark was tuned on.
IMPORT_REFERENCE_S = 0.04
_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    x = [a, b, {i}]\n    return {{'k': x, 'n': len(x), 's': str(a)}}\n"
    for i in range(300))


def import_kernel() -> float:
    """Wall seconds of compiling and running a module's worth of source and touching 16 MiB."""
    start = time.perf_counter()
    exec(marshal.loads(marshal.dumps(compile(_SOURCE, "<kernel>", "exec"))), {})
    fresh = bytearray(16 << 20)
    for i in range(0, len(fresh), 4096):
        fresh[i] = 1
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    # The kernel's 16 MiB would raise the peak RSS, so an RSS probe skips it.
    scaled = not args.workload
    before = import_kernel() if scaled else None
    start = time.perf_counter()
    import vardiag  # noqa: F401  (timed: the program's set-up cost)
    record = {"import_s": time.perf_counter() - start}
    if scaled:
        after = import_kernel()
        record["kernel_s"] = [before, after]
        record["import_ref_s"] = record["import_s"] * IMPORT_REFERENCE_S / (0.5 * (before + after))

    if args.workload:
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        entry = workloads.entry_order(args.seed)[0]
        workloads.run_op(wl, workloads.entry_input(wl, entry), wl.workers)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        record["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps(record))


if __name__ == "__main__":
    main()
