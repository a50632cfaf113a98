"""Span recording for the benchmark's traced runs.

The program under test is not instrumented.  Instead, :class:`Tracer`
replaces public functions of ``repro`` modules *where they are looked
up by their callers* -- a class attribute for methods, the importing
module's global for functions pulled in with ``from x import f`` -- with
a wrapper that records one span per call, and puts every original back
in :meth:`Tracer.restore`.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for none) and ``op`` the operation id the
benchmark loop set when the span opened (``-1`` during set-up).  Spans
are kept in memory and written as JSONL when the run ends
(:meth:`Tracer.write_jsonl`).

Only synchronous functions are wrapped.  The program is single-threaded
and a synchronous call cannot be suspended, so spans nest strictly and a
parent's children never overlap each other.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, float, float, int, int]
#: (owner, attribute, original object, whether the owner held it itself)
_Patch = Tuple[Any, str, Any, bool]
#: after(args, kwargs, result, before_token) -> None
After = Callable[[tuple, dict, Any, Any], None]
#: before(args, kwargs) -> token handed to ``after``
Before = Callable[[tuple, dict], Any]

_MISSING = object()


class Tracer:
    """Records spans around wrapped callables; counts at the same place."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Operation id stamped on spans as they open (-1: set-up).
        self.op = -1
        #: When False, wrappers call straight through (output checks
        #: run between operations and are not part of any layer).
        self.enabled = True
        self._stack: List[int] = []
        self._patches: List[_Patch] = []

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span (the benchmark's own spans)."""
        return self._wrapper(self.name_id(name), fn, None, None)(*args)

    def _wrapper(
        self,
        nid: int,
        fn: Callable[..., Any],
        before: Optional[Before],
        after: Optional[After],
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        own = owner.__dict__ if isinstance(owner, type) else vars(owner)
        held = attr in own
        original = own[attr] if held else getattr(owner, attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no attribute {attr!r}")
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{name}: only plain functions can be wrapped")
        self._patches.append((owner, attr, original, held))
        setattr(owner, attr, self._wrapper(self.name_id(name), original, before, after))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, held = self._patches.pop()
            if held:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def finished(self) -> List[Span]:
        """All closed spans (a span still open has no end yet)."""
        return [s for s in self.spans if s is not None]

    def write_jsonl(self, path: str) -> None:
        """One header line naming the fields and the span names, then
        one JSON array per span: ``[id, name index, start_us, end_us,
        parent, op]`` with times in microseconds since the first span
        opened (the compact form keeps a million spans near 40 MB)."""
        spans = self.finished()
        origin = min((s[1] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write(
                json.dumps(
                    {
                        "fields": ["id", "name", "start_us", "end_us", "parent", "op"],
                        "names": self.names,
                    }
                )
                + "\n"
            )
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                nid, start, end, parent, op = span
                out.write(
                    f"[{idx},{nid},{round((start - origin) * 1e6)},"
                    f"{round((end - origin) * 1e6)},{parent},{op}]\n"
                )


def self_times(spans: Sequence[Optional[Span]]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative even
    for a hand-built tree that breaks strict nesting."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out: List[float] = []
    for idx, span in enumerate(spans):
        if span is None:
            out.append(0.0)
            continue
        _, start, end, _, _ = span
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
