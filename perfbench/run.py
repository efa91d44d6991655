"""Run one workload of the vardiag benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_long_lags --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy.  BLAS threads are pinned to one
through the environment before numpy loads, so a two-worker run uses at most
two threads.

``--trace 0`` measures the end-to-end metrics with no instrumentation: peak
RSS in a fresh interpreter, then one untimed warm-up operation, then
operations back to back for ``--seconds``, with ``import vardiag`` timed in
fresh interpreters between them.
``--trace 1`` measures the per-layer metrics: the same inputs run once
untraced at the workload's worker count and once traced at one worker; the
spans are written to ``perfbench/out/trace-<workload>.json``.

Every timed operation sits between two runs of the host-speed kernel
(``hostspeed.py``), and its time is reported in reference seconds: its wall
time scaled by the kernel's reference time over the kernel's time around it.
Import probes scale their time the same way with a kernel of their own
(``probe.py``).  The run record keeps the unscaled wall times and the kernel
times.

Every operation is checked against the oracle and the seed-commit reference.
The last line of stdout is the result object; the line before it is the run
record (machine, build, seed, sample counts and warm-up times).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter import probes per end-to-end run, spread evenly over the
# measuring time so that one busy spell of the host does not skew them all.
SETUP_PROBES = 11
# Share of --seconds the per-layer run spends untraced; the traced pass over
# the same inputs takes up to twice as long, since it runs on one worker.
UNTRACED_SHARE = 0.4


class ProgramMissing(Exception):
    """The checkout has no importable program under src/."""


def prepare_program(root: Path) -> Path:
    """Pin BLAS threads and make ``src/`` the only place vardiag imports from."""
    src = root / "src"
    if not (src / "vardiag" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {src / 'vardiag'}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))
    import vardiag
    if Path(vardiag.__file__).resolve().parent != (src / "vardiag").resolve():
        raise ProgramMissing(f"vardiag imported from {vardiag.__file__}, not {src}")
    return src


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe(src: Path, workload: str = None, seed: int = None) -> dict:
    """Fresh-interpreter probe: import time, and peak RSS of one operation."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--src", str(src)]
    if workload is not None:
        cmd += ["--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Ledger:
    """Runs operations, checks each one, and counts attempts and failures.

    ``run_problems`` holds faults of the run as a whole (inputs that differ
    from the reference, inconsistent trace); any of them makes it incorrect.
    """

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.run_problems = []

    def fail(self, entry, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"entry {entry}: {message}")

    def run(self, entry, workers, around=contextlib.nullcontext):
        """Run and check one operation; returns (result, wall_s, cpu_s) or None if it raised."""
        import oracle
        import workloads
        inp = workloads.entry_input(self.wl, entry)
        self.attempted += 1
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with around():
                result = workloads.run_op(self.wl, inp, workers)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(entry, f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        problems = oracle.check(self.wl, inp, result, self.reference[entry])
        if problems:
            self.fail(entry, "; ".join(problems))
        return result, wall, cpu


def percentile(samples, q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class HostClock:
    """Times the host-speed kernel around each piece of timed work.

    ``rescale()`` is called right after the work; it runs the kernel again, on
    as many lanes as the workload has workers, and returns the factor that
    turns the work's wall time into reference seconds (see ``hostspeed``).
    Every kernel time is kept for the run record.
    """

    def __init__(self, lanes):
        import hostspeed   # loads numpy, so only after prepare_program
        self.hostspeed = hostspeed
        self.lanes = lanes
        self.kernel_s = [lanes.measure()]

    def rescale(self) -> float:
        self.kernel_s.append(self.lanes.measure())
        return self.hostspeed.scale(*self.kernel_s[-2:])

    def record(self) -> dict:
        q1, median, q3 = statistics.quantiles(self.kernel_s, n=4) \
            if len(self.kernel_s) > 1 else self.kernel_s * 3
        return {"kernel_s_median": median, "kernel_s_q1": q1, "kernel_s_q3": q3,
                "kernel_runs": len(self.kernel_s), "kernel_lanes": 1 + len(self.lanes.helpers),
                "kernel_reference_s": self.hostspeed.REFERENCE_S}


def end_to_end(wl, order, seconds, ledger, src, seed, lanes):
    from workloads import REPLICATES
    rss = probe(src, wl.name, seed)
    warm = ledger.run(order[0], wl.workers)
    clock = HostClock(lanes)
    setup, setup_wall = [], []

    def probe_setup_when_due(elapsed):
        # Probes are taken between operations, never while one is timed.  A
        # probe scales its import time itself; the kernel run after it starts
        # the next operation's interval.
        while (len(setup) < SETUP_PROBES
               and elapsed >= len(setup) * seconds / SETUP_PROBES):
            done = probe(src)
            setup_wall.append(done["import_s"])
            setup.append(done["import_ref_s"])
            clock.rescale()

    walls, scaled, cpu = [], [], []
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        probe_setup_when_due(time.perf_counter() - start)
        out = ledger.run(order[i % len(order)], wl.workers)
        factor = clock.rescale()
        i += 1
        if out is not None:
            walls.append(out[1])
            scaled.append(out[1] * factor)
            cpu.append(out[2] * factor)
    probe_setup_when_due(seconds)
    if not walls:
        raise RuntimeError("no operation completed")
    busy = sum(scaled)
    tests = len(scaled) * wl.trials
    per_op = wl.trials * REPLICATES      # replicates in one operation
    per_test = [w / wl.trials for w in scaled]
    # Medians over operations: a short slow spell that falls inside one
    # operation but not in the kernel runs around it moves that one sample,
    # not the run's figure.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "test_s_p50": (statistics.median(per_test), "s"),
        "replicates_per_s": (statistics.median(per_op / w for w in scaled), "1/s"),
        "cpu_s_per_replicate": (statistics.median(c / per_op for c in cpu), "s"),
        "peak_rss_mb": (rss["peak_rss_mb"], "MB"),
    }
    # A run holds tens of test samples, too few for a steady p90 (fewer than
    # ten samples lie beyond it), so p90 and the trial rate, which is
    # replicates_per_s / REPLICATES, are recorded rather than bounded.
    record = {
        "samples": {"setup_s": len(setup), "test_s": len(per_test),
                    "tests": tests, "replicates": tests * REPLICATES},
        "test_s_p90": percentile(per_test, 90),
        "trials_per_s": tests / busy,
        "wall": {"setup_s": statistics.median(setup_wall),
                 "test_s_p50": statistics.median(walls) / wl.trials,
                 "replicates_per_s": tests * REPLICATES / sum(walls)},
        "host": clock.record(),
        "warmup_s": None if warm is None else warm[1],
        "busy_s": busy,
    }
    return metrics, record


def per_layer(wl, order, seconds, ledger, lanes):
    from tracer import OP_SPAN, SPANS, Tracer
    from workloads import REPLICATES
    warm = ledger.run(order[0], wl.workers)
    clock = HostClock(lanes)

    untraced = []          # (entry, result, reference seconds)
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds * UNTRACED_SHARE:
        entry = order[i % len(order)]
        i += 1
        out = ledger.run(entry, wl.workers)
        factor = clock.rescale()
        if out is not None:
            untraced.append((entry, out[0], out[1] * factor))
    if not untraced:
        raise RuntimeError("no operation completed")

    tracer = Tracer()
    self_s = defaultdict(float)    # reference seconds per layer
    start = time.perf_counter()
    with tracer.patched():
        for op, (entry, expected, _) in enumerate(untraced):
            tracer.op = op
            before = dict(tracer.self_s)
            out = ledger.run(entry, 1, around=lambda: tracer.span(OP_SPAN))
            factor = clock.rescale()
            for name, total in tracer.self_s.items():
                self_s[name] += (total - before.get(name, 0.0)) * factor
            if out is not None and out[0].to_json() != expected.to_json():
                ledger.fail(entry, f"report at 1 worker differs from {wl.workers} workers")
    traced_wall = time.perf_counter() - start

    tests = len(untraced) * wl.trials
    replicates = tests * REPLICATES
    untraced_busy = sum(busy for *_, busy in untraced)
    # Self times add up to the operation spans by construction, so their sum
    # is the traced busy time and is not checked.  A hook the program no
    # longer defines would read 0 and move its time into its caller, so it
    # makes the run fail.
    traced_busy = sum(self_s.values())
    if tracer.missing:
        ledger.run_problems.append(
            f"traced names not found in the program: {', '.join(tracer.missing)}")
    counts = tracer.counts
    # Wall time the pool adds over a perfect two-way split of the serial work.
    pool_overhead = (untraced_busy - traced_busy / wl.workers) / tests \
        if wl.workers > 1 else 0.0
    metrics = {f"{name}.self_s": (self_s[name] / tests, "s/test")
               for name in (*SPANS, OP_SPAN)}
    metrics.update({
        "diagnostics.gv_stat.calls": (tracer.calls["diagnostics.gv_stat"] / tests, "calls/test"),
        "linalg.cholesky_flops": (counts["cholesky_n3"] / 3 / tests, "flop/test"),
        "montecarlo.attempts": (counts["attempts"] / tests, "count/test"),
        "montecarlo.retries": (counts["retries"] / tests, "count/test"),
        "montecarlo.useful_ratio": (replicates / counts["attempts"] if counts["attempts"]
                                    else 0.0, "ratio"),
        "montecarlo.nonpd_replicates": (counts["nonpd"] / tests, "count/test"),
        "montecarlo.pool_overhead_s": (pool_overhead if wl.kind == "mc" else 0.0, "s/test"),
        "studies.pool_overhead_s": (pool_overhead if wl.kind == "power" else 0.0, "s/test"),
        "trace.busy_s": (traced_busy / tests, "s/test"),
    })
    shares = {name: round(value / traced_busy, 4) for name, value in
              sorted(self_s.items(), key=lambda kv: -kv[1])}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{wl.name}.json"
    tracer.dump(trace_path, workload=wl.name, tests=tests)
    if wl.workers == 1:
        # Both passes ran the same inputs at one worker: measure it.
        overhead = {"tracing_overhead_s": traced_busy - untraced_busy,
                    "tracing_overhead_from": "traced minus untraced busy time"}
    else:
        overhead = {"tracing_overhead_s": len(tracer.spans) * Tracer.span_cost(),
                    "tracing_overhead_from": "spans times the cost of one wrapped call"}
    record = {
        "samples": {"ops": len(untraced), "tests": tests, "replicates": replicates,
                    "spans": len(tracer.spans)},
        "warmup_s": None if warm is None else warm[1],
        "untraced_busy_s": untraced_busy,
        "untraced_workers": wl.workers,
        "traced_busy_s": traced_busy,
        "traced_wall_s": traced_wall,
        **overhead,
        "host": clock.record(),
        "self_shares": shares,
        "missing_hooks": tracer.missing,
        "trace_file": str(trace_path.relative_to(HERE.parent)),
    }
    return metrics, record


def machine_record(root: Path, src: Path) -> dict:
    import numpy
    import vardiag
    rev = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            rev = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vardiag": vardiag.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        src = prepare_program(root)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)["workloads"][wl.name]
    ledger = Ledger(wl, reference["outcomes"])
    if workloads.pool_digest(wl) != reference["digest"]:
        ledger.run_problems.append("generated inputs differ from those of the reference")

    import hostspeed
    order = workloads.entry_order(args.seed)
    with hostspeed.Lanes(wl.workers) as lanes:
        if args.trace:
            metrics, record = per_layer(wl, order, args.seconds, ledger, lanes)
        else:
            metrics, record = end_to_end(wl, order, args.seconds, ledger, src, args.seed,
                                         lanes)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_record(root, src), **record,
              "failed_ratio": ledger.failed / ledger.attempted,
              "problems": ledger.run_problems + ledger.problems}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ledger.failed == 0 and not ledger.run_problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
