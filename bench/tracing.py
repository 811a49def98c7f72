"""Outside-in layer tracing of holonomy_lab's public functions.

While installed, the tracer replaces each listed function in every
holonomy_lab module namespace that holds it, so calls through a by-name
import (``invariants`` imports ``fisher_rao``; ``cli`` resolves ``cmd_*``
when it builds its parser) are seen too. Spans and counters are recorded
only inside an op, kept in memory, and reduced to per-op figures at the end.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _count_matrices(counts, args, kwargs, result):
    counts["linalg.hermitian_eig_stack.matrices"] += len(args[0] if args else kwargs["ms"])


def _bytes_read(counts, args, kwargs, result):
    counts["serialize.read_json.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _bytes_written(counts, args, kwargs, result):
    counts["serialize.write_json.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# module -> {public function: counter hook run after each traced call}
LAYERS = {
    "linalg": {"hermitian_eig_stack": _count_matrices, "propagator_step_stack": None, "polar_unitary": None},
    "spectra": {"spectral_decompose": None},
    "curves": {"grid_derivative": None, "fisher_rao": None},
    "bundle": {"decompose_path": None, "path_speeds_sq": None},
    "invariants": {"check_isoholonomic": None, "eigenphases": None},
    "dynamics": {"evolve": None, "speed_limit": None, "incoherent_part_path": None},
    "synthesis": {"synthesize": None, "verify_saturation": None},
    "serialize": {"read_json": _bytes_read, "write_json": _bytes_written,
                  "curve_from_json": None, "curve_to_json": None},
    "cli": {"cmd_check": None, "cmd_synthesize": None},
}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.in_op = False
        self.ops = 0
        self.op_time = 0.0
        self._op_curves = {}
        self._patched = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "holonomy_lab" or name.startswith("holonomy_lab."))]
        for mod_name, funcs in LAYERS.items():
            owner = sys.modules[f"holonomy_lab.{mod_name}"]
            for fn_name, hook in funcs.items():
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.in_op:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer.counts[name + ".calls"] += 1
            if name == "bundle.decompose_path":
                tracer._count_curve(args[0] if args else kwargs["curve"])
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _count_curve(self, curve):
        samples = curve.samples
        self.counts["bundle.decompose_path.samples"] += samples.shape[0]
        # holding the array keeps its id unique for the rest of the op
        if id(samples) not in self._op_curves:
            self._op_curves[id(samples)] = samples
            self.counts["bundle.decompose_path.curve_samples"] += samples.shape[0]

    def run_op(self, op, *args):
        """Run one op with recording on; returns (result, seconds)."""
        self._op_curves.clear()
        self.in_op = True
        start = time.perf_counter()
        try:
            return op(*args), time.perf_counter() - start
        finally:
            self.op_time += time.perf_counter() - start
            self.ops += 1
            self.in_op = False
            self._op_curves.clear()

    def per_op(self) -> dict:
        """Per-op self milliseconds and counts, keyed by layer metric name."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        self_ms = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_ms[name + ".self_ms"] += end - start - child[i]
        ops = max(self.ops, 1)
        out = {key: 1000.0 * value / ops for key, value in self_ms.items()}
        out.update({key: value / ops for key, value in self.counts.items()})
        out["trace.op_ms"] = 1000.0 * self.op_time / ops
        out["trace.unattributed_ms"] = 1000.0 * (self.op_time - covered) / ops
        curve_samples = self.counts.get("bundle.decompose_path.curve_samples", 0.0)
        out["bundle.decompose_path.samples_per_curve_sample"] = (
            self.counts["bundle.decompose_path.samples"] / curve_samples if curve_samples else 0.0)
        return out
