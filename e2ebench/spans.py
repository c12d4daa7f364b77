"""In-memory spans around the calls the benchmark makes into each layer.

The benchmark adds no hook to the program. It times layers only at
boundaries it controls: the set-up steps and link call it issues, and the
objects it injects through public parameters (``oracle_factory``,
``heuristic``, ``strategy``, the anonymizer, the ``SMCBridge``). Those
objects are wrapped in :class:`Timed`, a proxy that records each call of
the named methods as a span of one layer and forwards everything else.

A span has a name (the layer), a start, a busy time, a parent and the
root it belongs to. Repeated calls of one layer under one parent (the
oracle is called once per class pair, or once per record pair on the
protocol path) are merged into one span that keeps their summed busy
time and call count, so memory stays bounded by the tree's shape, not
by the number of calls. A span's self time is its busy time minus its
children's busy time; a root's self time is what no layer claims.
"""

from __future__ import annotations

import threading
import time


class Span:
    """One layer's busy time under one parent, within one root."""

    __slots__ = ("name", "parent", "start", "seconds", "calls", "children")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.seconds = 0.0
        self.calls = 0
        self.children: dict[str, Span] = {}

    def child(self, name: str) -> "Span":
        span = self.children.get(name)
        if span is None:
            span = self.children[name] = Span(name, self)
        return span

    def add_child(self, name: str, seconds: float, calls: int = 1) -> "Span":
        """Attach a child timed elsewhere (e.g. by the program itself)."""
        span = self.child(name)
        span.seconds += seconds
        span.calls += calls
        return span

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


class _Open:
    """Context manager that times one call into a span."""

    __slots__ = ("_tracer", "_span", "_started")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        self._started = time.perf_counter()
        return self._span

    def __exit__(self, *exc) -> bool:
        self._span.seconds += time.perf_counter() - self._started
        self._span.calls += 1
        self._tracer._stack().pop()
        return False


class Tracer:
    """Keeps the span trees of one benchmark run in memory.

    Each thread nests spans on its own stack. A span opened on a thread
    with no open span (the net workload's event-loop thread, where the
    holders run their oracle) hangs under :attr:`foreign`, which the
    workload attaches to the right parent once the call returns.
    """

    def __init__(self):
        self.roots: list[Span] = []
        self.foreign: Span | None = None
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def root(self, name: str) -> _Open:
        """Open a new tree, e.g. one link call or one set-up."""
        span = Span(name, None)
        self.roots.append(span)
        self.foreign = Span("foreign", None)
        return _Open(self, span)

    def span(self, name: str) -> _Open:
        """Time one call of layer *name* under the innermost open span."""
        return _Open(self, self.leaf(name))

    def leaf(self, name: str) -> Span:
        """The span of layer *name* under the innermost open span."""
        stack = self._stack()
        return (stack[-1] if stack else self.foreign).child(name)

    def current(self) -> Span:
        """The innermost span open on the calling thread."""
        return self._stack()[-1]

    def adopt_foreign(self, parent: Span) -> None:
        """Move the spans recorded on other threads under *parent*."""
        for name, span in self.foreign.children.items():
            merged = parent.child(name)
            merged.seconds += span.seconds
            merged.calls += span.calls
            for child in span.children.values():
                child.parent = merged
                merged.children[child.name] = child
        self.foreign.children.clear()


def graft(parent: Span, nodes: list[dict]) -> None:
    """Attach a ``repro.obs`` span tree (``Telemetry.trace()``) under *parent*."""
    for node in nodes:
        span = parent.add_child(node["name"], node["duration_seconds"])
        graft(span, node["children"])


def find(root: Span, name: str) -> Span | None:
    """The first span called *name* in *root*'s tree."""
    return next((span for span in root.walk() if span.name == name), None)


class Timed:
    """A proxy that times the *methods* of *target* as spans of *layer*.

    A *leaf* layer calls no other injected object, so its calls need not
    be pushed as parents: the proxy finds its span on the first call and
    afterwards only adds to it. That keeps the cost of a per-record-pair
    oracle call to two clock reads.

    With ``tracer=None`` it times nothing and only applies *delay*, the
    negative control: *delay* seconds of sleep on the first call made
    through this proxy, so the delay is charged to this layer.
    """

    def __init__(self, target, layer, methods, tracer, delay=0.0, leaf=False):
        self._target = target
        self._delay = delay
        self._span: Span | None = None
        for method in methods:
            function = getattr(target, method)
            if tracer is None:
                wrapper = self._delayed(function)
            elif leaf:
                wrapper = self._timed_leaf(function, layer, tracer)
            else:
                wrapper = self._timed(function, layer, tracer)
            setattr(self, method, wrapper)

    def _pay_delay(self) -> None:
        if self._delay:
            time.sleep(self._delay)
            self._delay = 0.0

    def _delayed(self, function):
        def call(*args, **kwargs):
            self._pay_delay()
            return function(*args, **kwargs)

        return call

    def _timed(self, function, layer, tracer):
        def call(*args, **kwargs):
            with tracer.span(layer):
                self._pay_delay()
                return function(*args, **kwargs)

        return call

    def _timed_leaf(self, function, layer, tracer):
        clock = time.perf_counter

        def call(*args, **kwargs):
            span = self._span
            if span is None:
                span = self._span = tracer.leaf(layer)
            started = clock()
            try:
                if self._delay:
                    self._pay_delay()
                return function(*args, **kwargs)
            finally:
                span.seconds += clock() - started
                span.calls += 1

        return call

    def __getattr__(self, name):
        return getattr(self._target, name)
