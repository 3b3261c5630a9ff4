"""Span tracing for the traced benchmark run, recorded from outside ``src/``.

The program carries no instrumentation of its own, so the traced run
rebinds the attributes that callers look up at call time (module
functions such as ``repro.core.extract_isis.replay_lsp_records``, and
methods on classes such as ``LinkStatePacket.unpack``) to wrappers that
record a span: its name, start, end and the span that was open when it
began.  Counts are taken at the same boundaries by optional hooks that
see the call's arguments and result.  Spans stay in memory until the
run ends; :func:`summary` then reduces them to per-layer self time.

Untraced runs never install anything, so end-to-end numbers carry no
tracing cost; the difference between the two runs is reported as the
tracing overhead.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: A count hook: ``hook(counts, args, kwargs, result)``.
Hook = Callable[[Counter, tuple, dict, Any], None]
#: One patch: owner (module or class), attribute, span name or ``None``
#: for a count-only wrapper, and an optional count hook.
Patch = Tuple[Any, str, Optional[str], Optional[Hook]]

#: Name of the span that encloses one measured repetition.
ROOT = "bench.rep"


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index)``; parent -1 is top level.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: Optional[str], fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """``fn`` recording a span named ``name`` (if any), then running ``hook``."""
        counts = self.counts
        span = self.span if name is not None else lambda _: nullcontext()

        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self._stack[-1])

    def reset(self) -> None:
        """Forget spans and counts (between repetitions)."""
        self.spans.clear()
        self.counts.clear()


@contextmanager
def installed(tracer: Tracer, patches: List[Patch]) -> Iterator[None]:
    """Rebind every patched attribute for the duration of the block.

    ``staticmethod`` and ``classmethod`` descriptors found in a class
    ``__dict__`` are unwrapped, traced and re-wrapped, so both call forms
    (``Class.method(...)`` and ``instance.method(...)``) keep working.
    """
    saved = []
    try:
        for owner, attr, name, hook in patches:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            if isinstance(original, (staticmethod, classmethod)):
                replacement: Any = type(original)(tracer.wrap(name, original.__func__, hook))
            else:
                replacement = tracer.wrap(name, original, hook)
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summary(spans: List[Optional[Tuple[str, float, float, int]]]) -> Dict[str, Dict[str, float]]:
    """Per span name: how many spans, their total and their self seconds."""
    child = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    table: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _ = span
        row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[index]
        row["max_s"] = max(row["max_s"], end - start)
    return table


def self_times(spans: List[Optional[Tuple[str, float, float, int]]]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus its children's."""
    return {name: row["self_s"] for name, row in summary(spans).items()}
