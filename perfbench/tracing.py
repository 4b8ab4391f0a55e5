"""Spans around sonocad's public functions, recorded from outside the package.

Each wrapped call records one span ``[name, start, end, parent]``, where
``parent`` is the index of the span that was open when the call began (-1 at
the top). Wrapping replaces the attribute where the caller looks the name up,
so ``pipeline.process_case`` sees the traced ``slic.slic`` and ``SmoSVC.fit``
sees the traced ``svm.smo_solve``. Return values pass through unchanged.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder.

    The arguments and results of calls to the span names in ``keep`` are held
    until :meth:`drain`, so that checks on them can run outside every span.
    """

    def __init__(self, keep: tuple[str, ...] = ()):
        self.spans: list[list] = []
        self.original: dict[str, object] = {}
        self._keep = set(keep)
        self._kept: list[tuple[str, int, tuple, dict, object]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        self.original[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if name in self._keep:
                self._kept.append((name, idx, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Swap each ``(owner, attribute, span name)`` for its traced wrapper
        for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def drain(self) -> list[tuple[str, int, tuple, dict, object]]:
        """Kept calls since the last drain, in call order."""
        kept, self._kept = self._kept, []
        return kept

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def indices(self, name: str, parent: str | None = None) -> list[int]:
        """Spans called ``name``, optionally only those directly under a span
        called ``parent``."""
        return [
            i for i, (n, _, _, p) in enumerate(self.spans)
            if n == name and (parent is None or (p >= 0 and self.spans[p][0] == parent))
        ]

    def inside(self, idx: int, ancestor: str) -> bool:
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == ancestor:
                return True
            p = self.spans[p][3]
        return False

    def self_times(self, name: str) -> list[float]:
        """Span time minus the time of direct child spans, per span of ``name``.

        Calls are single-threaded, so children never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for i, (_, start, end, p) in enumerate(self.spans):
            if p >= 0:
                child[p] += end - start
        return [self.duration(i) - child[i] for i in self.indices(name)]

    def write(self, path: str):
        """One JSON object per span: name, start and end in seconds, parent,
        and root, the index of the top-level span that the span belongs to."""
        roots: list[int] = []
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                roots.append(roots[parent] if parent >= 0 else len(roots))
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "root": roots[-1]}) + "\n")
