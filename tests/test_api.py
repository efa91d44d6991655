"""Fixed points of the public surface: the README's API and the bench's hooks.

A deletion that breaks one of them fails here rather than in a user's code
or in a benchmark run that silently reads 0 for a missing layer.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import vardiag as vd

ROOT = Path(__file__).resolve().parents[1]


def _readme_section(heading: str) -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def _documented_names() -> set:
    section = _readme_section("## Library quick start")
    quick_start = set(re.findall(r"\bvd\.(\w+)", section))
    lower_level = section[section.index("Lower-level pieces"):]
    return quick_start | set(re.findall(r"`(\w+)`", lower_level))


def test_readme_names_are_exported():
    names = _documented_names()
    assert {"mc_test", "McConfig", "portmanteau_q", "racf", "gv_decompose"} <= names
    for name in sorted(names):
        assert hasattr(vd, name), name
        assert name in vd.__all__, name


def test_all_names_resolve():
    for name in vd.__all__:
        assert hasattr(vd, name), name


def test_quick_start_signatures():
    inspect.signature(vd.mc_test).bind(None, order=1, config=None)
    fields = {f.name for f in dataclasses.fields(vd.McConfig)}
    assert {"replicates", "master_seed", "lags", "statistic", "workers"} <= fields
    fields = {f.name for f in dataclasses.fields(vd.LagResult)}
    assert {"lag", "observed", "p_value", "margin_of_error"} <= fields
    assert vd.diagnostics.RACF_MODES == ("hosking", "li_mcleod", "chitturi")


def test_bench_trace_hooks_resolve():
    spec = importlib.util.spec_from_file_location("_bench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [pair for targets in tracer.SPANS.values() for pair in targets]
    assert ("vardiag.diagnostics", "_assemble_block_toeplitz") in pairs
    for module, attr in pairs:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
