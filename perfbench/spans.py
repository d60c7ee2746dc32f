"""In-memory spans around calls into ctxnmt.

The benchmark opens spans around the calls it makes itself and, while
tracing, patches a few public functions and methods that the program calls
internally (the training loop's steps, the encoder and decoder under
`translate`) so that their calls become child spans too. Nothing in ctxnmt
is edited; `detach` undoes the patches whenever tracing stops.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


class Tracer:
    """Records spans (name, start, end, parent span) while enabled.

    Disabled, `span` only yields, so the same benchmark code runs traced and
    untraced.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._specs: list[tuple[object, str, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        s = Span(len(self.spans), name, self._stack[-1].span_id if self._stack else None,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Have `attach` replace owner.attr by a wrapper that runs the
        original in a span; `attrs_of(args)` may return attributes to store
        on the span."""
        self._specs.append((owner, attr, name, attrs_of))

    def attach(self) -> None:
        """Install every wrapper; `detach` puts the originals back, so that
        an untraced stretch of a traced run calls exactly what an untraced
        run calls."""
        if self._patches:
            return
        tracer = self
        for owner, attr, name, attrs_of in self._specs:
            original = getattr(owner, attr)

            def traced(*args, _original=original, _name=name, _attrs_of=attrs_of, **kwargs):
                with tracer.span(_name, **(_attrs_of(args) if _attrs_of else {})):
                    return _original(*args, **kwargs)

            setattr(owner, attr, traced)
            self._patches.append((owner, attr, original))

    def detach(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def trace(self, on: bool) -> None:
        """Trace from now on (wrappers installed, spans recorded) or not."""
        if on:
            self.attach()
        else:
            self.detach()
        self.enabled = on

    # -- reading the spans ---------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        covered by its direct children (spans nest, so children never overlap)."""
        kids = self.children()
        out: dict[str, float] = {}
        for s in self.spans:
            own = s.ms - sum(c.ms for c in kids.get(s.span_id, ()))
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def within(self, root: Span, name: str, kids: dict[int, list[Span]]) -> list[Span]:
        """Spans called `name` anywhere below `root`; `kids` is `children()`."""
        found, todo = [], list(kids.get(root.span_id, ()))
        while todo:
            s = todo.pop()
            if s.name == name:
                found.append(s)
            todo.extend(kids.get(s.span_id, ()))
        found.sort(key=lambda s: s.start)
        return found

    def named(self, name: str, **attrs) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")
