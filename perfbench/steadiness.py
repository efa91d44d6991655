"""Steadiness check: run workloads repeatedly and compare each metric's spread to its bound.

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                    [--trace 0] [--seconds S] [--save FILE] [--baseline FILE]

Run from the repository root.  Each run uses the next seed and, unless
``--seconds`` says otherwise, the ``run_seconds`` of BENCHMARK.json.  For
every end-to-end metric the table shows the median over the runs, the spread
(distance between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound.  A
spread under a third of the bound is called steady; a spread over the bound,
``setup_s`` included, fails the check.  With ``--baseline``, the table also
shows how far each median moved, in the worse direction, against an earlier
``--save`` file, and a move beyond the bound fails the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    collected = {}
    steady = True
    for name in names:
        results = [run_once(name, args.first_seed + i, seconds, args.trace)
                   for i in range(args.runs)]
        values = {m: [r["metrics"][m]["value"] for r in results] for m in results[0]["metrics"]}
        collected[name] = values
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{name}: {args.runs} runs, correct={correct}, failed={failed}")
        steady &= correct
        if args.trace:
            for metric, vals in values.items():
                print(f"  {metric:40s} median {statistics.median(vals):.6g}")
            continue
        print(f"  {'metric':22s}{'median':>12s}{'spread':>9s}{'bound':>8s}{'bound/3':>9s}"
              f"{'vs base':>9s}  verdict")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            med = statistics.median(vals)
            sp = spread(vals)
            base = baseline.get(name, {}).get(metric["name"])
            moved = worsening(metric, statistics.median(base), med) if base else None
            verdict = "steady" if sp < metric["bound"] / 3 else (
                "within bound" if sp <= metric["bound"] else "OVER BOUND")
            steady &= sp <= metric["bound"]
            if moved is not None and moved > metric["bound"]:
                verdict += "; median worse than baseline by more than the bound"
                steady = False
            moved_text = "" if moved is None else f"{moved:+.3f}"
            print(f"  {metric['name']:22s}{med:12.6g}{sp:9.4f}{metric['bound']:8.3f}"
                  f"{metric['bound'] / 3:9.4f}{moved_text:>9s}  {verdict}")
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(collected, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
