"""In-memory spans recorded by wrapping the package's functions from outside.

`from .core import viscosity` binds a second name for the same function in
the importing module, so patching `core.viscosity` alone misses every call
made from `solver` or `diagnostics`.  `install` therefore replaces every
binding of a traced function in every package module and `restore` puts the
originals back.
"""
from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

import nsvisc1d
from nsvisc1d import cli, core, diagnostics, harness, initdata, solver

#: Every module whose namespace may hold a binding of a traced function.
MODULES = (nsvisc1d, core, solver, diagnostics, initdata, harness, cli)

#: (defining module, function name, keep the return value, time thread CPU)
TRACED = (
    (core, "viscosity", False, False),
    (core, "sound_speed", False, False),
    (core, "pressure", False, False),
    (core, "pad_field", False, False),
    (core, "phi", False, False),
    (core, "phi1", False, False),
    (core, "to_effective", False, False),
    (core, "from_effective", False, False),
    (solver, "cfl_dt", True, False),
    (solver, "step_primitive", False, False),
    (solver, "step_effective", False, False),
    (solver, "relax_effective_momentum", False, False),
    (solver, "run", False, False),
    (diagnostics, "gronwall_sup_bound", False, False),
    (diagnostics, "bd_dissipation_rate", False, False),
    (diagnostics, "compute_record", False, False),
    (diagnostics, "gronwall_envelope", False, False),
    (initdata, "build_scenario", False, False),
    (harness, "preset_config", False, False),
    (harness, "config_from_mapping", False, False),
    (harness, "parse_config", False, False),
    (harness, "simulate", False, True),
    (harness, "verdicts_for", False, False),
    (harness, "write_artifacts", False, False),
    (harness, "run_scenario", False, False),
    (harness, "n_sequence_study", False, False),
    (cli, "main", False, False),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    cpu: float | None = None  # thread CPU seconds, when requested
    result: object = None     # return value, when requested

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the thread that created it and from worker
    threads; a worker's outermost span takes as parent the span open on
    the creating thread (the call that started the pool)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        span = Span(name, time.perf_counter(), None, parent)
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        return sid

    def close(self, sid: int, result=None) -> None:
        self.spans[sid].end = time.perf_counter()
        self.spans[sid].result = result
        self._stack().pop()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _traced(tracer: Tracer, fn, name: str, keep: bool, cpu: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        cpu0 = time.thread_time() if cpu else 0.0
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if cpu:
                tracer.spans[sid].cpu = time.thread_time() - cpu0
            tracer.close(sid, result if keep else None)
    wrapper.__perfbench_original__ = fn
    return wrapper


def install(wrappers: dict) -> list:
    """Rebind each original function to its wrapper in every module of
    MODULES that binds it.  `wrappers` maps original -> wrapper; returns the
    undo list for `restore`."""
    undo = []
    try:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def tracing_wrappers(tracer: Tracer) -> dict:
    """original -> wrapper recording spans named `module.function`."""
    wrappers = {}
    for mod, name, keep, cpu in TRACED:
        fn = getattr(mod, name)
        span_name = f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
        wrappers[fn] = _traced(tracer, fn, span_name, keep, cpu)
    return wrappers


def leftover_wrappers() -> list:
    """Names in MODULES still bound to a wrapper (empty after restore)."""
    return [f"{mod.__name__}.{attr}" for mod in MODULES
            for attr, value in vars(mod).items()
            if hasattr(value, "__perfbench_original__")]


# ---------------------------------------------------------------------------
# span arithmetic


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    children; children running in parallel threads are counted once."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = _union_length(
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids if k.end > span.start and k.start < span.end)
        out.append(span.duration - covered)
    return out


def ancestors(spans: list[Span], sid: int):
    parent = spans[sid].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent
