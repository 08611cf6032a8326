"""In-memory span tracer for the traced benchmark run.

The tracer wraps entry points of the program from the outside: it replaces a
name on the module (or class) that *calls* it, so the program's sources stay
untouched.  Each call records a span ``(name, start, end, parent, op)``;
spans stay in memory and are written out once the run ends.  A wrapped name
that does not exist (removed or renamed by a refactor) is recorded as absent
and skipped, never raised.

Self time of a span is its duration minus the durations of its direct
children; children never outlive their parent because every call traced
here is synchronous.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

# before(args, kwargs) -> token, taken just before the call.
Before = Callable[[tuple, dict], Any]
# hook(tracer, span_index, args, result, token), run after the span closed so
# that its own cost is not charged to the span.
Hook = Callable[["Tracer", int, tuple, Any, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.tags: dict[int, str] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._times: Optional[tuple[list[float], list[float]]] = None
        # per-op factor applied to span durations (machine-speed scaling)
        self.op_scale: list[float] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def _wrapper(self, fn: Callable, name: str, hook: Optional[Hook],
                 before: Optional[Before]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            token = None
            if before is not None:
                try:
                    token = before(args, kwargs)
                except Exception as e:
                    tracer.hook_errors.append(f"{name}: {e!r}")
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op_id)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    hook(tracer, idx, args, result, token)
                except Exception as e:  # a changed result type must not stop the run
                    tracer.hook_errors.append(f"{name}: {e!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, label: str,
             hook: Optional[Hook] = None, before: Optional[Before] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper while installed.

        ``label`` names the wrapped entry point (``module.attr``) in the list
        of absent names when ``owner`` or the attribute does not exist.
        """
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            if label not in self.absent:
                self.absent.append(label)
            return
        self._patches.append((owner, attr, fn, self._wrapper(fn, name, hook, before)))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # -- summaries ---------------------------------------------------------

    def totals(self, name: str, where: Optional[Callable[[int], bool]] = None
               ) -> tuple[int, float, float]:
        """(calls, total seconds, total self seconds) of spans named ``name``,
        durations scaled by the factor of the op they belong to."""
        if self._times is None or len(self._times[0]) != len(self.names):
            scale = self.op_scale
            dur = [(e - s) * (scale[op] if 0 <= op < len(scale) else 1.0)
                   for s, e, op in zip(self.starts, self.ends, self.ops)]
            own = list(dur)
            for i, p in enumerate(self.parents):
                if p >= 0:
                    own[p] -= dur[i]
            self._times = (dur, own)
        dur, own = self._times
        calls, total, total_self = 0, 0.0, 0.0
        for i, n in enumerate(self.names):
            if n == name and (where is None or where(i)):
                calls += 1
                total += dur[i]
                total_self += own[i]
        return calls, total, total_self

    def write(self, path) -> None:
        """Spans as JSON lines: index, name, start, end, parent, op, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, n in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": n, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "op": self.ops[i], "tag": self.tags.get(i)})
                         + "\n")
