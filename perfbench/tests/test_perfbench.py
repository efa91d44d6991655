"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import steadiness  # noqa: E402
from run import prepare_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def program():
    prepare_program(ROOT)
    import oracle
    import workloads
    return workloads, oracle


@pytest.fixture(scope="module")
def first_results(program):
    """Result of pool entry 0 of every workload, computed once."""
    workloads, _ = program
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = workloads.entry_input(wl, 0)
        out[name] = (inp, workloads.run_op(wl, inp, wl.workers))
    return out


def test_benchmark_file_follows_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # A run takes its measuring time, about a quarter more for the traced
    # pass, and a few seconds of set-up; all runs must fit in 3420 s.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (1.25 * SPEC["run_seconds"] + 8) < 3420


def test_inputs_repeat_for_a_seed(program):
    workloads, _ = program
    assert workloads.entry_order(7) == workloads.entry_order(7)
    assert workloads.entry_order(7) != workloads.entry_order(8)
    for name, wl in workloads.WORKLOADS.items():
        a_series, a_master = workloads.entry_input(wl, 3)
        b_series, b_master = workloads.entry_input(wl, 3)
        assert a_master == b_master
        if wl.kind == "mc":
            np.testing.assert_array_equal(a_series, b_series)
        assert workloads.pool_digest(wl) == REFERENCE[name]["digest"]


def test_oracle_statistics_match_program(program):
    workloads, oracle = program
    import vardiag as vd
    for wl in workloads.WORKLOADS.values():
        if wl.kind != "mc":
            continue
        for entry in range(3):
            series, _ = workloads.entry_input(wl, entry)
            resid = vd.fit_var(series, wl.order).residuals
            got = vd.evaluate_statistics(resid, (wl.statistic,), wl.lags, wl.transform)[0]
            work = oracle.transformed(oracle.var_residuals(series, wl.order), wl.transform)
            for value, lag in zip(got, wl.lags):
                assert oracle.close(value, oracle.STATISTICS[wl.statistic](work, lag))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_program_passes_check_at_seed_commit(program, first_results, name):
    workloads, oracle = program
    inp, result = first_results[name]
    wl = workloads.WORKLOADS[name]
    assert oracle.check(wl, inp, result, REFERENCE[name]["outcomes"][0]) == []
    assert workloads.outcome(wl, result) == REFERENCE[name]["outcomes"][0]


def test_check_flags_wrong_outputs(program, first_results):
    workloads, oracle = program
    wl = workloads.WORKLOADS["hetero_bootstrap"]
    inp, report = first_results[wl.name]
    ref = REFERENCE[wl.name]["outcomes"][0]
    row = report.lags[0]

    def with_row(**changes):
        return dataclasses.replace(
            report, lags=(dataclasses.replace(row, **changes),) + report.lags[1:])

    assert oracle.check(wl, inp, with_row(observed=row.observed * (1 + 1e-8)), ref)
    assert oracle.check(wl, inp, with_row(p_value=row.p_value + 1e-12), ref)
    shifted = row.exceedances + 2 if row.exceedances + 2 <= 199 else row.exceedances - 2
    assert oracle.check(wl, inp, with_row(exceedances=shifted,
                                          p_value=(shifted + 1) / 200), ref)
    one_off = row.exceedances + 1 if row.exceedances < 199 else row.exceedances - 1
    assert not oracle.check(wl, inp, with_row(exceedances=one_off,
                                              p_value=(one_off + 1) / 200), ref)

    wl = workloads.WORKLOADS["power_short_pool"]
    inp, study = first_results[wl.name]
    ref = REFERENCE[wl.name]["outcomes"][0]
    cell = study.cells[0]
    moved = cell.rejections - 2 if cell.rejections >= 2 else cell.rejections + 2
    broken = dataclasses.replace(
        study, cells=(dataclasses.replace(cell, rejections=moved),) + study.cells[1:])
    assert oracle.check(wl, inp, broken, ref)


def test_spread_and_worsening():
    assert steadiness.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert steadiness.spread([2.0] * 5) == 0.0
    lower = {"better": "lower"}
    higher = {"better": "higher"}
    assert steadiness.worsening(lower, 1.0, 1.1) == pytest.approx(0.1)
    assert steadiness.worsening(higher, 1.0, 1.1) == pytest.approx(-0.1)


def test_host_speed_lanes_scale_and_stop():
    import hostspeed
    with hostspeed.Lanes(2) as lanes:
        procs = [proc for proc, _ in lanes.helpers]
        assert len(procs) == 1
        first, second = lanes.measure(), lanes.measure()
        assert first > 0 and second > 0
    assert not any(proc.is_alive() for proc in procs)
    assert hostspeed.scale(0.03, 0.03) == pytest.approx(hostspeed.REFERENCE_S / 0.03)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_one_result_line(trace, section):
    done = _run(ROOT, "--workload", "hetero_bootstrap", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    record = json.loads(record_line)["record"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["problems"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert record["seed"] == 3 and record["nproc"] >= 1
    if trace == "1":
        assert record["missing_hooks"] == []
        assert (BENCH / record["trace_file"].split("/", 1)[1]).is_file()


def test_traced_run_fails_on_a_missing_hook(program, monkeypatch):
    import hostspeed
    import run
    import tracer
    workloads, _ = program
    wl = workloads.WORKLOADS["hetero_bootstrap"]
    spans = dict(tracer.SPANS, **{"diagnostics.renamed": [("vardiag.montecarlo", "no_such")]})
    monkeypatch.setattr(tracer, "SPANS", spans)
    ledger = run.Ledger(wl, REFERENCE[wl.name]["outcomes"])
    with hostspeed.Lanes(1) as lanes:
        metrics, record = run.per_layer(wl, workloads.entry_order(1)[:2], 0.01, ledger, lanes)
    assert record["missing_hooks"] == ["vardiag.montecarlo.no_such"]
    assert any("no_such" in problem for problem in ledger.run_problems)
    assert ledger.failed == 0


def test_steadiness_prints_spread_next_to_bound():
    done = subprocess.run(
        [sys.executable, "perfbench/steadiness.py", "--workload", "hetero_bootstrap",
         "--runs", "3", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert "correct=True" in done.stdout, done.stdout + done.stderr
    for metric in SPEC["end_to_end"]:
        line = next(l for l in done.stdout.splitlines() if l.split()[:1] == [metric["name"]])
        assert f"{metric['bound']:.3f}" in line


def test_run_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "mc_long_lags", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
