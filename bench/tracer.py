"""Traced mode of the benchmark: wrap package functions from outside.

Coarse calls (a CLI invocation, a Monte Carlo batch, an episode, an
export, one corpus instance) become spans: name, start, end and parent
span. Per-round calls are folded into per-name aggregates of call
count, total time and self time, so memory stays bounded however long
the run is. Self time is a call's duration minus the time its children
cover; every wrapper pushes a frame on one shared stack, and a call
that ends adds its duration to its parent's frame.

Nothing here touches the package until install() runs, and uninstall()
puts every original object back, so untraced code in the same process
measures unwrapped functions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class TraceTargetMissing(RuntimeError):
    """A name the traced mode wraps no longer exists in the package."""


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    owner is a module or a class; name is the aggregate or span name
    the calls are recorded under. key, if given, maps the call's
    arguments to a suffix of that name (for example the market size).
    hook(tracer, args, result) runs after each successful call and may
    add to tracer.counters.
    """

    owner: object
    attr: str
    name: str
    span: bool = False
    key: Callable | None = None
    hook: Callable | None = None


def _label(owner: object) -> str:
    return getattr(owner, "__name__", repr(owner))


class Tracer:
    def __init__(self) -> None:
        self.aggregates: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        # frame = [folded children s, span children s, span id or None]
        self._stack: list[list] = []
        self._next_span = 0
        self._saved: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # --- installing -------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        missing = [f"{_label(t.owner)}.{t.attr}" for t in targets if t.attr not in vars(t.owner)]
        if missing:
            raise TraceTargetMissing(f"traced names no longer exist: {', '.join(missing)}")
        for t in targets:
            original = vars(t.owner)[t.attr]
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # --- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
        span_id = self._next_span
        self._next_span += 1
        frame = [0.0, 0.0, span_id]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append({
                "id": span_id,
                "name": name,
                "parent": parent,
                "start": start - self._origin,
                "end": end - self._origin,
                "folded_s": frame[0],
            })

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, key, hook = target.name, target.key, target.hook
        if target.span:
            def traced_span(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result

            return traced_span

        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                label = name if key is None else name + key(args)
                agg = aggregates.get(label)
                if agg is None:
                    agg = aggregates[label] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0] - frame[1]
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # --- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        """Calls recorded under a name, as an aggregate or as spans."""
        if name in self.aggregates:
            return int(self.aggregates[name][0])
        return sum(1 for s in self.spans if s["name"] == name)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the time covered by
    its child spans and by the folded calls made directly inside it."""
    covered = {s["id"]: s["folded_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}
