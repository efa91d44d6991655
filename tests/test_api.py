"""Fixed points of the public surface: the README's API and the bench's hooks.

A deletion that breaks one of them fails here rather than in a user's code
or in a benchmark run that silently reads 0 for a missing layer.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

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


def test_exported_dataclasses_are_frozen():
    classes = [getattr(vd, name) for name in vd.__all__]
    frozen = {cls.__name__: cls.__dataclass_params__.frozen
              for cls in classes if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert {"VarmaModel", "McConfig", "TestReport"} <= set(frozen)
    assert [name for name, is_frozen in frozen.items() if not is_frozen] == []


def test_array_holding_dataclasses_compare_by_identity():
    series = vd.simulate(vd.catalog("phi1"), 40, vd.derive_seed(1, 0))
    makers = {
        "VarmaModel": lambda: vd.catalog("phi1"),
        "FittedVar": lambda: vd.fit_var(series, 1),
        "Autocovariances": lambda: vd.sample_acov(series, 2),
        "Autocorrelations": lambda: vd.racf(vd.sample_acov(series, 2), "hosking"),
        "DesignSet": lambda: vd.build_design(vd.catalog("phi1"), 3),
        "CsvTable": lambda: vd.CsvTable(("a", "b"), np.ones((2, 2))),
        "GvDecomposition": lambda: vd.gv_decompose(
            vd.racf(vd.sample_acov(np.stack([series, series[::-1]]), 2), "hosking"), 2),
    }
    _assert_compared_by_identity(makers)


def test_internal_array_holders_compare_by_identity():
    from vardiag.montecarlo import _build_plan, _seeded

    fitted = vd.fit_var(vd.simulate(vd.catalog("phi1"), 40, vd.derive_seed(1, 0)), 1)
    _assert_compared_by_identity({
        "_ReplicatePlan": lambda: _build_plan(fitted, vd.McConfig(), ("gv",)),
        "_Words": lambda: _seeded(2, 0, 1)[0].bit_generator.seed_seq,
    })


def _assert_compared_by_identity(makers: dict) -> None:
    for name, make in makers.items():
        first, second = make(), make()
        assert type(first).__name__ == name
        # compared by identity: a bool, where comparing the arrays would raise
        assert (first == second) is False and (first == first) is True, name
        assert hash(first) != hash(second), name


def _hooked_pairs() -> list:
    """The ``(module, attribute)`` pairs that ``perfbench/tracer.py`` wraps."""
    spec = importlib.util.spec_from_file_location("_bench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [pair for targets in tracer.SPANS.values() for pair in targets]


def test_bench_trace_hooks_resolve():
    pairs = _hooked_pairs()
    assert ("vardiag.diagnostics", "_assemble_block_toeplitz") in pairs
    for module, attr in pairs:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_no_unused_private_names_or_imports():
    """Every module-level private name is used somewhere in ``src/``, every import in its module.

    A name the bench hooks counts as used: the tracer reaches it from outside.
    """
    hooked = set(_hooked_pairs())
    trees = {f"vardiag.{path.stem}": ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "vardiag").glob("*.py"))}
    used_in = {}
    for module, tree in trees.items():
        used = used_in[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
    used_anywhere = set().union(*used_in.values())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [(module, name, "import") for name in names
                           if name not in used_in[module] and (module, name) not in hooked]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [(module, name, "private") for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used_anywhere and (module, name) not in hooked]
    assert unused == []
