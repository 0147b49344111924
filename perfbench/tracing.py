"""In-memory spans around the calls the benchmark makes into each layer.

A span records its name, start, end, the span that was open when it began
(its parent), the operation it belongs to, and a few counts. The benchmark
opens spans around its own calls (build, sense, decode, recover) and, while
a traced run is active, replaces module attributes of the program with
wrappers so that calls one layer makes into the next (``sparse`` into the
kernel backend, ``decoder`` into ``sketch`` and ``signs``, ``det_recover``
into ``prony_solve``) are timed too. The originals are put back on exit.
An attribute the program no longer has is skipped: its layer then reads 0.

Every time the benchmark reports is CPU time of its process (``clock``).
The process runs one thread (BLAS is pinned to one), so on an idle
machine this equals wall time, and on a shared one it leaves out the time
spent waiting for a core that other tenants hold.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

clock = time.process_time


@dataclass
class Span:
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None      # operation the next spans belong to
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._open[-1] if self._open else None, self.op, clock())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = clock()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call to ``owner.attr`` as a span called ``name``.

        ``count(args, result)`` returns counts to store on the span; counts
        it cannot read from a changed signature are left out rather than
        failing the program's call. A classmethod is unwrapped, traced and
        rewrapped.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    try:
                        s.counts.update(count(args, result))
                    except (AttributeError, IndexError, TypeError):
                        pass
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "op": s.op,
                 "start": s.start, "end": s.end, "counts": s.counts}
                for s in self.spans]
