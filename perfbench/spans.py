"""Span tracer that wraps the package's public functions from outside.

The tracer replaces every public function of the traced modules with a
wrapper, in every ``fordcircles`` module namespace that holds it, so a call
is caught where the caller looks the name up (``verify.compare_linear_forms``
as well as ``real.compare_linear_forms``).  Each call is a span with a name,
a duration and the span that was open when it started.  Self time is the
span's duration minus the time covered by its child spans.  Spans are folded
into per-name totals and per-edge (parent, child) totals as they close, so
memory stays flat on sweeps that make millions of kernel calls.

Generator functions are timed per resumption: each ``next()`` is a span
under whoever asked for the item, and only the creation counts as a call.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

#: Traced module -> layer name used as the metric prefix.
LAYERS = {
    "fordcircles.cli": "cli",
    "fordcircles.verify": "verify",
    "fordcircles.real": "real",
    "fordcircles.cf": "cf",
    "fordcircles.geometry": "geometry",
    "fordcircles.rational": "rational",
    "fordcircles._kernel": "kernel",
    "fordcircles._kernel._pure": "kernel",
    "fordcircles.render": "render",
}

ROOT = "<root>"


class CountingPartials:
    """Restartable coefficient iterable that counts restarts and pulls."""

    __slots__ = ("inner", "counters")

    def __init__(self, inner, counters):
        self.inner = inner
        self.counters = counters

    def __iter__(self):
        counters = self.counters
        counters["real.stream_queries"] += 1
        for coeff in self.inner:
            counters["real.coeff_pulls"] += 1
            yield coeff


class Tracer:
    """Installs wrappers, folds spans into totals, and removes the wrappers."""

    def __init__(self, stream_type: type):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [spans, total_s]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.spans = 0
        self.wrapped: set[str] = set()
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._restore: list[tuple[object, str, object]] = []
        self._streams: list[tuple[object, object]] = []
        self._stream_type = stream_type
        self._after = {
            "kernel.pair_flags": self._after_pair_flags,
            "kernel.best_flag": self._after_scan,
            "kernel.near_flag": self._after_scan,
            "render.render_ford_field": self._after_svg,
            "render.render_chain": self._after_svg,
            "render.render_statement_v": self._after_svg,
        }

    # -- counters fed from return values ---------------------------------

    def _after_pair_flags(self, args, result) -> None:
        if result:
            self.counters["kernel.flagged_pairs"] += 1

    def _after_scan(self, args, result) -> None:
        # Sigma b: the loop bound of the per-denominator scan, an upper bound
        # on the work (the scan may stop early), hence "computed".
        self.counters["kernel.scan_len"] += args[1]

    def _after_svg(self, args, result) -> None:
        self.counters["render.svg_bytes"] += len(result.encode("utf-8"))

    def count_pulls(self, stream) -> None:
        """Route a stream's coefficient pulls through a counter."""
        if not isinstance(stream.partials, CountingPartials):
            self._streams.append((stream, stream.partials))
            stream.partials = CountingPartials(stream.partials, self.counters)

    # -- span bookkeeping -------------------------------------------------

    def _close(self, frame: list, elapsed: float, is_call: bool) -> None:
        name = frame[0]
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        if is_call:
            st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - frame[1]
        key = (parent[0] if parent is not None else ROOT, name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0]
        edge[0] += 1
        edge[1] += elapsed
        self.spans += 1

    def _wrap_function(self, name: str, fn):
        stack, close, after = self._stack, self._close, self._after.get(name)
        stream_type, count_pulls = self._stream_type, self.count_pulls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                close(frame, elapsed, True)
            if type(result) is stream_type:
                count_pulls(result)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        stack, close, counters = self._stack, self._close, self.counters
        stats = self.stats

        def resumed(inner):
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    close(frame, elapsed, False)
                counters[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats.get(name)
            if st is None:
                st = stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            return resumed(fn(*args, **kwargs))

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules where it is bound."""
        wrappers: dict[int, object] = {}
        for modname, layer in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                name = f"{layer}.{attr}"
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(obj)
                        else self._wrap_function)
                wrappers[id(obj)] = (obj, wrap(name, obj))
                self.wrapped.add(name)
        for modname, module in list(sys.modules.items()):
            if modname != "fordcircles" and not modname.startswith("fordcircles."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        """Put back every original function and coefficient iterable."""
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()
        for stream, partials in self._streams:
            stream.partials = partials
        self._streams.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> dict:
        """Per-name totals, parent edges and counters, for the trace file."""
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "spans": n, "total_s": t}
                      for (p, c), (n, t) in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
        }
