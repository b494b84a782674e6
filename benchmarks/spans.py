"""Spans around the library's public functions, for the traced run.

:meth:`Tracer.install` replaces each target function at every name a
caller looks it up by: every ``predsets`` module global bound to the
function object (so ``predsets.cli.calibrate`` and
``predsets.evaluation.calibrate`` are both wrapped), and the method itself
for classes.  Spans are kept in memory and written out at the end; a target
the library no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext

#: (span name, module, attribute) for wrapped functions.
FUNCTIONS = (
    ("io.read_scores", "predsets.io", "read_scores"),
    ("io.write_scores", "predsets.io", "write_scores"),
    ("io.write_predictions", "predsets.io", "write_predictions"),
    ("cli.synth", "predsets.cli", "cmd_synth"),
    ("cli.calibrate", "predsets.cli", "cmd_calibrate"),
    ("cli.predict", "predsets.cli", "cmd_predict"),
    ("cli.evaluate", "predsets.cli", "cmd_evaluate"),
    ("cli.sweep", "predsets.cli", "cmd_sweep"),
    ("core.softmax", "predsets.core", "softmax"),
    ("core.topk_mask", "predsets.core", "topk_mask"),
    ("formulations.pointwise_error_mask", "predsets.formulations",
     "pointwise_error_mask"),
    ("formulations.rule_mask", "predsets.formulations", "rule_mask"),
    ("calibration.calibrate", "predsets.calibration", "calibrate"),
    ("calibration.fit_temperature", "predsets.calibration", "fit_temperature"),
    ("calibration.fit_fscore", "predsets.calibration", "fit_fscore"),
    ("evaluation.evaluate", "predsets.evaluation", "evaluate"),
    ("evaluation.sweep", "predsets.evaluation", "sweep"),
    ("oracle.synth_generate", "predsets.oracle", "synth_generate"),
    ("oracle.make_distribution", "predsets.oracle", "make_distribution"),
    ("oracle.sample_scores", "predsets.oracle", "sample_scores"),
)

#: (span name, module, class, method) for classes whose construction is
#: the layer's work.
METHODS = (
    ("core.ScoreSet", "predsets.core", "ScoreSet", "__post_init__"),
    ("calibration.EmpiricalStepFunction", "predsets.calibration",
     "EmpiricalStepFunction", "__init__"),
)

#: Functions whose calls are counted without a span of their own, so that
#: their time stays in the caller's self time.
COUNTED = (
    ("calibration.fscore_objective_derivative", "predsets.calibration",
     "fscore_objective_derivative"),
)


def _calibrate_name(args, kwargs) -> str:
    spec = args[0] if args else kwargs.get("spec")
    kind = getattr(getattr(spec, "kind", None), "value", "unknown")
    return f"calibration.calibrate.{kind}"


def _path_size(value) -> int:
    try:
        return os.path.getsize(value)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span recorder.  With ``recording=False`` every context is
    a no-op, so workloads run the same code traced and untraced."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        # each span: [id, parent id, op id, root, name, start, end]
        self.spans: list[list] = []
        # counters per root: {"setup": {...}, "pass": {...}}
        self.counters: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self.ops: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = 0
        self._root = ""
        self._patches: list[tuple] = []

    # --- spans and counts ---------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        if self.recording and self._patches:
            counts = self.counters.setdefault(self._root, {})
            counts[key] = counts.get(key, 0) + value

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, self._op, self._root, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[6] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def _op_context(self, name: str, count: int):
        self._op += 1
        self.ops[self._root] = self.ops.get(self._root, 0) + count
        with self._span(f"op.{name}"):
            yield

    def op(self, name: str, count: int = 1):
        """One operation (or ``count`` of them, such as a sweep's grid)."""
        return self._op_context(name, count) if self.recording else nullcontext()

    @contextmanager
    def root(self, name: str):
        """Spans opened inside belong to ``name`` ("setup" or "pass")."""
        previous, self._root = self._root, name
        try:
            yield
        finally:
            self._root = previous

    # --- wrapping -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for name, module, attr in FUNCTIONS:
            fn = self._lookup(name, module, attr)
            if fn is not None:
                self._rebind(fn, self._wrap_function(name, fn))
        for name, module, cls_name, method in METHODS:
            cls = self._lookup(name, module, cls_name)
            original = cls.__dict__.get(method) if cls is not None else None
            if original is None:
                self._mark_absent(name)
                continue
            setattr(cls, method, self._wrap_method(name, original))
            self._patches.append((cls, method, original))
        for name, module, attr in COUNTED:
            fn = self._lookup(name, module, attr)
            if fn is not None:
                self._rebind(fn, self._wrap_counted(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _lookup(self, name: str, module: str, attr: str):
        try:
            found = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            found = None
        if found is None:
            self._mark_absent(name)
        return found

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "predsets" and not mod_name.startswith("predsets."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def _wrap_function(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = _calibrate_name(args, kwargs) if name == "calibration.calibrate" else name
            before = _path_size(args[0]) if name == "io.read_scores" and args else 0
            with tracer._span(span):
                result = fn(*args, **kwargs)
            tracer.count(f"{span}.calls")
            if name == "io.read_scores":
                tracer.count("io.read_scores.bytes", before)
            elif name == "io.write_scores" and args:
                tracer.count("io.write_scores.bytes", _path_size(args[0]))
            elif name == "evaluation.sweep":
                statuses = [p.status for p in getattr(result, "points", [])]
                tracer.count("evaluation.sweep.points", len(statuses))
                tracer.count("evaluation.sweep.ok", statuses.count("ok"))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, name: str, method):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            with tracer._span(name):
                result = method(obj, *args, **kwargs)
            tracer.count(f"{name}.calls")
            if name == "calibration.EmpiricalStepFunction" and args:
                tracer.count("knots.in", int(getattr(args[0], "size", 0)))
                tracer.count("knots.kept", int(getattr(getattr(obj, "scores", None), "size", 0)))
            return result

        wrapper.__wrapped__ = method
        return wrapper

    def _wrap_counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(f"{name}.calls")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ------------------------------------------------------------

    def self_times(self, root: str) -> dict[str, float]:
        """Total self time per span name among spans under ``root``."""
        own = {}
        for sid, parent, _op, span_root, name, t0, t1 in self.spans:
            if span_root != root:
                continue
            own[sid] = [name, t1 - t0]
            if parent in own:
                own[parent][1] -= t1 - t0
        out: dict[str, float] = {}
        for name, value in own.values():
            out[name] = out.get(name, 0.0) + value
        return out

    def total_time(self, name: str, root: str) -> float:
        return sum(
            t1 - t0 for _s, _p, _o, r, n, t0, t1 in self.spans
            if n == name and r == root
        )

    def dump(self, path) -> None:
        fields = ("id", "parent", "op", "root", "name", "start", "end")
        doc = {
            "absent": self.absent,
            "counters": self.counters,
            "spans": [dict(zip(fields, s)) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
