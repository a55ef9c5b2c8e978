"""In-memory span recorder for the benchmark's traced run.

A span is one timed call into a layer of the program: its name, start
and end (``perf_counter_ns``), the span that caused it and the id of the
benchmark operation it belongs to.  Spans are appended to a list and
written out once, when the run ends, so recording costs one clock read
and one list append per boundary.

The serve workload is a closed loop with one request in flight, so a
span opened on a daemon thread takes its parent from the client's
innermost open span (:attr:`Tracer.client_span`) instead of from its own
thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end")

    def __init__(self, sid: int, name: str, parent: Optional[int],
                 op: Optional[str], start: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "start_ns": self.start, "end_ns": self.end}


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        #: the client-side span of the request in flight (closed loop)
        self.client_span: Optional[int] = None
        self._client_tid: Optional[int] = None
        self._tls = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, *, client: bool = False):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else self.client_span
        with self._lock:
            sp = Span(len(self.spans), name, parent, self.op,
                      time.perf_counter_ns())
            self.spans.append(sp)
        stack.append(sp.sid)
        # daemon-thread spans attach to the innermost open client span
        on_client = client or self._client_tid == threading.get_ident()
        if client:
            self._client_tid = threading.get_ident()
        if on_client:
            outer, self.client_span = self.client_span, sp.sid
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            if on_client:
                self.client_span = outer
            if client:
                self._client_tid = None

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` (an instance attribute override)."""
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, timed)

    def durations_ms(self, name: str) -> List[float]:
        return [s.ns / 1e6 for s in self.spans if s.name == name]

    def self_ns(self) -> Dict[str, int]:
        """Per span name: total duration minus the time its children cover."""
        child_ns: Dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.ns
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + s.ns - child_ns.get(s.sid, 0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_dict() for s in self.spans],
                       "self_ns": self.self_ns()}, fh)
