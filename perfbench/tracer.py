"""Per-layer tracing from outside the program.

``Tracer.patched()`` replaces, for the duration of a ``with`` block, the names
that vardiag's modules look up at call time (``vardiag.montecarlo.fit_var``
and so on) with wrappers that record a span per call.  Spans are kept in
memory; ``dump`` writes them as JSON.  A layer's self time is its spans'
duration minus the time covered by their direct child spans.

Tracing is single-process, so traced runs use one worker.  A name the program
no longer defines is skipped and listed in ``missing``; its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute) pairs to wrap
SPANS = {
    "varma.innovation_recursion": [("vardiag.montecarlo", "innovation_recursion"),
                                   ("vardiag.varma", "innovation_recursion")],
    "estimate.fit_var": [("vardiag.montecarlo", "fit_var")],
    "diagnostics.sample_acov": [("vardiag.montecarlo", "sample_acov")],
    "diagnostics.racf": [("vardiag.montecarlo", "racf")],
    "diagnostics.q_terms": [("vardiag.montecarlo", "_q_lag_terms")],
    "diagnostics.residual_transform": [("vardiag.montecarlo", "residual_transform")],
    "diagnostics.gv_stat": [("vardiag.montecarlo", "gv_stat")],
    "diagnostics.block_toeplitz": [("vardiag.diagnostics", "_assemble_block_toeplitz")],
    "linalg.log_det_spd": [("vardiag.diagnostics", "log_det_spd")],
    "montecarlo.evaluate_statistics": [("vardiag.montecarlo", "evaluate_statistics")],
    "montecarlo.derive_seed": [("vardiag.montecarlo", "derive_seed")],
    "montecarlo.mc_pvalues": [("vardiag.montecarlo", "mc_pvalues"),
                              ("vardiag.studies", "mc_pvalues")],
}
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder with per-layer self times and counters."""

    def __init__(self):
        self.spans = []              # (id, parent id, op, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []
        self.op = 0
        self._stack = []             # [span id, time covered by children]
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            parent_id = None
            if self._stack:
                self._stack[-1][1] += duration
                parent_id = self._stack[-1][0]
            self.spans.append((frame[0], parent_id, self.op, name, start, end))

    def wrap(self, name, fn):
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one wrapped call adds, timed on a function that does nothing."""
        def noop():
            return None
        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        return ((end - middle) - (middle - start)) / calls

    def _after_derive_seed(self, args, kwargs, result):
        self.counts["attempts"] += 1
        attempt = args[2] if len(args) > 2 else kwargs.get("attempt", 0)
        self.counts["retries"] += attempt > 0

    def _after_mc_pvalues(self, args, kwargs, result):
        self.counts["nonpd"] += int(np.sum(result[4]))

    def _counting_cholesky(self, fn):
        # Sums n^3 over the factored n x n matrices (batches included) as an
        # integer; a Cholesky factorization costs n^3 / 3 flops.
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            self.counts["cholesky_n3"] += int(np.prod(shape[:-2], dtype=np.int64)) \
                * shape[-1] ** 3
            return fn(a, *args, **kwargs)
        return counted

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced name, and count Cholesky work, inside the block."""
        saved = []
        targets = [(name, module, attr) for name, pairs in SPANS.items()
                   for module, attr in pairs]
        try:
            for name, module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            saved.append((np.linalg, "cholesky", np.linalg.cholesky))
            np.linalg.cholesky = self._counting_cholesky(np.linalg.cholesky)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path, **header):
        fields = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({**header, "fields": fields, "spans": self.spans}, fh)
