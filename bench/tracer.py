"""Spans and counts recorded from outside the package.

`Tracer.wrap` replaces a function or method attribute on a module or class
with a wrapper that records one span per call: (name, start, end, parent,
root), where `root` is the outermost open span, i.e. the benchmark
operation the call belongs to. `Tracer.count` wraps an attribute so each
call bumps a counter keyed by (root, name). Spans stay in memory and are
written out once, by `write`, when the run ends. `restore` puts every
original attribute back.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, root


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()      # (root, name) -> n
        self.enabled = True
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        self.spans[index] = (name, start, end, stack[-1] if stack else -1,
                             stack[0] if stack else index)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def add(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[(self._stack[0] if self._stack else -1, name)] += n

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None) -> None:
        """Record a span named `name` around every call of `owner.attr`.
        `before(*args)` runs ahead of the span, outside its time."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(*args)
            index = tracer._open()
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index, name, start)

        self._install(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` under `name`, per root span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.add(name)
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def _install(self, owner, attr: str, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading

    def breakdown(self, names) -> List[Dict[str, float]]:
        """One row per closed span named in `names`: summed inclusive ms of
        every span name in its subtree (its own duration under its own
        name), `<name>#calls` for the number of such spans, and, for a
        root span, the counts recorded under it."""
        spans, rows = self.spans, []
        for i, s in enumerate(spans):
            if s is None or s[0] not in names:
                continue
            row: Dict[str, float] = defaultdict(float)
            j = i
            # spans open in call order on one thread, so the subtree of span
            # i is the run of spans that start before it ends
            while j < len(spans) and spans[j] is not None and (j == i or spans[j][1] < s[2]):
                name, start, end = spans[j][:3]
                row[name] += (end - start) * 1e3
                row[name + "#calls"] += 1
                j += 1
            if s[3] == -1:
                for (root, name), n in self.counts.items():
                    if root == i:
                        row[name] += n
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Calls, inclusive ms and self ms (span minus its children) per name."""
        spans = self.spans
        child_ms = defaultdict(float)
        for s in spans:
            if s is not None and s[3] >= 0:
                child_ms[s[3]] += (s[2] - s[1]) * 1e3
        out: Dict[str, Dict[str, float]] = {}
        for i, s in enumerate(spans):
            if s is None:
                continue
            row = out.setdefault(s[0], {"calls": 0, "inclusive_ms": 0.0, "self_ms": 0.0})
            dur = (s[2] - s[1]) * 1e3
            row["calls"] += 1
            row["inclusive_ms"] += dur
            row["self_ms"] += dur - child_ms[i]
        return out

    def write(self, path: Path, meta: Dict) -> None:
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][1] if spans else 0.0
        names = sorted({s[0] for s in spans})
        code = {n: i for i, n in enumerate(names)}
        payload = dict(meta)
        payload.update({
            "span_fields": ["name", "start_s", "end_s", "parent", "root"],
            "names": names,
            "spans": [[code[n], round(a - t0, 7), round(b - t0, 7), p, r]
                      for n, a, b, p, r in spans],
            "counts": [[root, name, n] for (root, name), n in sorted(self.counts.items())],
            "summary": self.summary(),
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
