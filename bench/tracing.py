"""Span tracing of jsqldp's layers, installed from outside the package.

``Tracer.install`` replaces every public function defined in the layer
modules (``sim``, ``ldp``, ``rate``, ``fluid``) with a wrapper that records
a span, and does so in every ``jsqldp`` module namespace that holds the
same function object, so bindings imported elsewhere (``jsqldp.ldp``'s
``local_rate``, the package's re-exports) are traced too.  ``uninstall``
puts the originals back, so untraced rounds run the unmodified code.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``info`` is whatever the annotator
registered for that name extracts from the call's result.  Self time is a
span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

PACKAGE = "jsqldp"
LAYERS = ("sim", "ldp", "rate", "fluid")


class Tracer:
    def __init__(self, annotate=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._annotate = annotate or {}
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        annotate = self._annotate.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self.spans[idx][4] = annotate(result, args, kwargs)
            return result

        return traced

    def drain(self) -> list[list]:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("drain called with open spans")
        spans, self.spans = self.spans, []
        return spans

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions in every namespace binding them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def check_spans(spans: list[list], wall: float | None = None) -> list[str]:
    """Accounting problems in a span list; empty when it is consistent.

    Children must open after and close before their parent, parents must be
    recorded before their children, and self times must sum to the summed
    duration of the root spans (the traced wall time).  When ``wall`` is
    given, the roots must fit inside it.
    """
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= i:
                problems.append(f"span {i} ({name}) recorded before its parent")
            elif start < p[1] or end > p[2]:
                problems.append(f"span {i} ({name}) escapes parent {parent} ({p[0]})")
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    total_self = sum(self_times(spans))
    if abs(total_self - roots) > 1e-9 * max(1, len(spans)):
        problems.append(f"self times sum to {total_self!r}, roots to {roots!r}")
    if wall is not None and roots > wall + 1e-9:
        problems.append(f"root spans cover {roots!r} s of a {wall!r} s wall")
    return problems


def self_test() -> list[str]:
    """Trace a known call tree and check its accounting."""
    tracer = Tracer()

    def leaf(k):
        return sum(i * i for i in range(200 * k))

    leaf_t = tracer.wrap("leaf", leaf)

    def middle(k):
        return leaf_t(k) + leaf_t(k + 1)

    middle_t = tracer.wrap("middle", middle)
    t0 = time.perf_counter()
    for k in range(3):
        with tracer.span("root"):
            middle_t(k)
            leaf_t(k)
    wall = time.perf_counter() - t0
    spans = tracer.drain()
    problems = check_spans(spans, wall)
    names = [s[0] for s in spans]
    if names.count("root") != 3 or names.count("middle") != 3 or names.count("leaf") != 9:
        problems.append(f"unexpected span counts {names}")
    parents = {(spans[s[3]][0] if s[3] >= 0 else None) for s in spans if s[0] == "leaf"}
    if parents != {"middle", "root"}:
        problems.append(f"leaf spans have parents {parents}")
    return problems
