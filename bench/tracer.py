"""Spans recorded around calls into the library, and the patching that
installs them.

A span is one call of a wrapped function: its name, start and end on the
monotonic clock in nanoseconds, the index of the span that was open when
it started (its parent, -1 for none) and the request id current at the
time. Spans live in memory until the run ends. A layer's number is built
from self times: a span's duration minus the part of its interval that its
child spans cover.

Wrappers are installed at every import site: a function imported by name
into several modules (`from .model import build_plan`) is replaced in each
of them, and a method is replaced on its class. Only the traced run
installs them; the untraced run checks that every site still holds the
original object.
"""
from __future__ import annotations

import functools
import sys
import time

TRACED_MARK = "__bench_traced__"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.notes: list[tuple[int, object]] = []  # (span index, payload)
        self.request = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """A function that records a span around every call of fn.

        note(args, kwargs, result), when given, runs after the span has
        closed and stores a payload against the span for later counting.
        """
        spans, notes, opened = self.spans, self.notes, self._open
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, opened[-1] if opened else -1, tracer.request]
            spans.append(span)
            opened.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                opened.pop()
            if note is not None:
                notes.append((index, note(args, kwargs, result)))
            return result

        setattr(traced, TRACED_MARK, True)
        return traced


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        span[2] - span[1] - covered_ns(span[1], span[2], children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def resolve(module_name: str, attr_path: str):
    """(owner, attribute name, object) for "module" + "attr" or "Class.attr"."""
    owner = sys.modules[module_name]
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def import_sites(original, package: str):
    """Every (module, attribute) in the package's loaded modules that holds
    the original object."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def snapshot(targets, package: str = "gmrec") -> list[tuple]:
    """Every import site of every target, with the object it holds now.

    A target has `module`, `attr` ("func" or "Class.method"), `span`, `note`
    and `adapt` fields. Taken once before anything is patched, so that it
    names the originals.
    """
    taken = []
    for target in targets:
        owner, attr, original = resolve(target.module, target.attr)
        places = [(owner, attr)] if isinstance(owner, type) else import_sites(original, package)
        taken.append((target, original, places))
    return taken


def install(tracer: Tracer, sites, patches: Patches) -> None:
    """Replace the original at each of its import sites by one traced wrapper.

    A target's `adapt(tracer, original)`, when set, gives the function to
    wrap in place of the original, so that it can trace callbacks it passes.
    """
    for target, original, places in sites:
        fn = target.adapt(tracer, original) if target.adapt else original
        wrapper = tracer.wrap(target.span, fn, target.note)
        for owner, attr in places:
            patches.replace(owner, attr, wrapper)


def untraced_violations(sites) -> list[str]:
    """Import sites that do not hold their original object; empty when clean.

    A request clock (marked `__bench_clock__`) whose `__wrapped__` is the
    original is allowed: both runs install it, so it is not tracing.
    """
    problems = []
    for _, original, places in sites:
        for owner, attr in places:
            value = getattr(owner, attr)
            if value is original:
                continue
            if getattr(value, "__bench_clock__", False) and value.__wrapped__ is original:
                continue
            problems.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return problems
