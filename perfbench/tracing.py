"""Spans around the calls into each argstable layer, recorded from outside.

`Tracer.install` replaces public functions at the names their callers look up
(for example `argstable.engines.minimal_models`, which the engines call, and
`argstable.logic.minimal_models`, which `stable_models` calls) with wrappers
that record a span per call.  No source file of the package changes, and
`uninstall` puts every original back.  Spans stay in memory as
(name, start, end, parent, operation) and are written out at the end.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, object, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread (the CLI's cross-check pool) starts under the
            # operation's root span.
            stack = self._local.stack = [] if self._root is None else [self._root]
        return stack

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root = None
        self._local = threading.local()

    def record(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0,
                                   stack[-1] if stack else None, self.op))
        if self._root is None and not stack:
            self._root = index
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            result = self.record(name, fn, *args, **kwargs)
            if on_result is not None:
                with self._lock:
                    on_result(self.counts, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------
    def _patch(self, holder, key, make):
        """Wrap holder[key] or holder.key; an entry point a later version of
        the package no longer has is listed in `missing`, not an error."""
        try:
            if isinstance(holder, dict):
                original = holder[key]
                holder[key] = make(original)
            else:
                original = getattr(holder, key)
                setattr(holder, key, make(original))
        except (AttributeError, KeyError, TypeError):
            self.missing.append(key)
            return
        self._patched.append((holder, key, original))

    def install(self, pkg) -> None:
        """Wrap every traced entry point of the imported package `pkg`."""
        cli, engines, framework, logic = pkg.cli, pkg.engines, pkg.framework, pkg.logic

        def clauses(counts, program):
            counts["translate.clauses"] += len(program.clauses)

        def extensions(counts, report):
            counts["engines.extensions"] += len(report.extensions)

        def stable(counts, found):
            counts["logic.stable_models"] += len(found)

        def minimal(counts, found):
            counts["logic.minimal_models_calls"] += 1

        span = lambda name, hook=None: (lambda fn: self.wrap(name, fn, hook))
        for holder in (framework, cli):
            for fn in ("parse_apx", "parse_tgf"):
                self._patch(holder, fn, span("framework.parse"))
        for fn in ("alpha", "gamma", "lambda_"):
            self._patch(engines, fn, span("translate.build", clauses))
        targets = getattr(cli, "_TARGETS", {})
        for target in list(targets):
            self._patch(targets, target, span("translate.build", clauses))
        self._patch(engines, "decode", span("translate.decode"))
        for holder in (engines, logic):
            self._patch(holder, "minimal_models", span("logic.minimal_models", minimal))
        self._patch(engines, "stable_models", span("logic.stable_models", stable))
        self._patch(engines, "entails", span("logic.entails"))
        self._patch(logic, "gl_reduct", lambda fn: self.counter("logic.reduct_candidates", fn))
        self._patch(logic, "is_unsatisfiable", lambda fn: self.counter("logic.unsat_calls", fn))
        self._patch(cli, "export_dimacs", span("logic.export_dimacs"))
        for name in ("alpha", "gamma", "lambda"):
            solve = span("engines.solve", extensions)
            self._patch(engines, f"preferred_via_{name}", solve)
            self._patch(getattr(cli, "_ENGINES", None), name, solve)
        for holder in (engines, cli):
            self._patch(holder, "check_preferred_unsat", span("engines.check"))
        self._patch(engines, "check_preferred_consequence", span("engines.check"))
        for holder in (engines, cli):
            self._patch(holder, "query", span("engines.query"))
        self._patch(getattr(cli, "_COMMANDS", None), "solve", self._cross_check_span)

    def _cross_check_span(self, fn):
        def solve(ns, af, config):
            if getattr(ns, "cross_check", False):
                return self.record("cli.cross_check", fn, ns, af, config)
            return fn(ns, af, config)
        solve.__wrapped__ = fn
        return solve

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # -- analysis --------------------------------------------------------
    def self_times(self, weights=None) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the union of
        its children's intervals (children may overlap when threads run);
        `weights[op]` scales the spans of operation `op`."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        totals: Counter = Counter()
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for start, end in sorted(children.get(i, ())):
                start, end = max(start, reach), min(end, s.end)
                if end > start:
                    covered += end - start
                    reach = end
            totals[s.name] += ((s.end - s.start) - covered) * _weight(weights, s)
        return dict(totals)

    def inclusive_times(self, weights=None) -> dict[str, float]:
        totals: Counter = Counter()
        for s in self.spans:
            totals[s.name] += (s.end - s.start) * _weight(weights, s)
        return dict(totals)


def _weight(weights, span: Span) -> float:
    return 1.0 if weights is None else weights[span.op]
