"""Span tracing of borcherds_kit, installed from outside the library.

`install()` replaces every public function of every borcherds_kit module, in
every borcherds_kit namespace that holds it (a name imported with `from .x
import f` is a second reference to the same function), with a wrapper that
records a span: name, start, end and parent.  Three methods on the hot data
types are wrapped too: `LatticeQSeries.__mul__` and `FracQSeries.inverse`
record spans, and `CycScalar.__mul__` only counts calls and the largest
conductor, because it runs tens of thousands of times per Weil matrix product.

Spans stay in memory; `Tracer.summary()` reduces them to additive
per-name statistics and `Tracer.write()` dumps them when the run ends.  Only
functions are wrapped: GramLattice and DiscriminantForm methods run millions
of times inside enumeration loops, so their time is part of the self time of
the enclosing public function.
"""

import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("cli", "codes", "cyclotomic", "divisors", "forms", "io", "lattice",
           "linalg", "product", "qseries", "weil")


class Tracer:
    """In-memory span recorder.  Single-threaded, like the library."""

    def __init__(self):
        self.names = []          # span-name table; spans store an index
        self._name_ids = {}
        self.spans = []          # [name_id, start_ns, end_ns, parent, outermost]
        self.counters = Counter()
        self.maxima = {}
        self._stack = []
        self._active = Counter()  # open spans per name, to detect recursion
        self.enabled = True

    @contextmanager
    def paused(self):
        """Run oracle and check code without recording it."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def open_span_name(self):
        """Name of the innermost open span, or None outside every span."""
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else None

    def note_max(self, name, value):
        if value > self.maxima.get(name, value - 1):
            self.maxima[name] = value

    def wrap(self, name, fn, before=None, after=None):
        """A function that calls `fn` inside a span called `name`.

        `before(args, kwargs)` runs first and its value is handed to
        `after(state, args, result)`, which updates counters; neither is timed
        apart from the span they sit in.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            index = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1, active[name_id] == 0]
            spans.append(span)
            stack.append(index)
            active[name_id] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name_id] -= 1
                stack.pop()
            if after:
                after(state, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, window=None):
        """Additive statistics of the recorded spans.

        Returns {"stats": {name: {calls, busy_ns, self_ns}}, "counters",
        "maxima", "top_ns", "problems"}.  busy_ns counts only spans with no
        open span of the same name around them, so recursion is not counted
        twice; self_ns is a span's duration minus its direct children's.
        `top_ns` is the time covered by top-level spans that start inside
        `window` = (start_ns, end_ns).  `problems` lists every child span that
        leaves its parent's interval and every negative self time.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        problems = []
        for index, (name_id, start, end, parent, _) in enumerate(spans):
            if parent < 0:
                continue
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {self.names[name_id]} [{start}, {end}] "
                                f"lies outside its parent "
                                f"{self.names[spans[parent][0]]} [{p_start}, {p_end}]")
            child_ns[parent] += end - start
        stats = {}
        top_ns = 0
        for index, (name_id, start, end, parent, outermost) in enumerate(spans):
            name = self.names[name_id]
            entry = stats.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            duration = end - start
            self_ns = duration - child_ns[index]
            if self_ns < 0:
                problems.append(f"span {name} has negative self time {self_ns} ns")
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            if outermost:
                entry["busy_ns"] += duration
            if parent < 0 and window and window[0] <= start < window[1]:
                top_ns += duration
        return {"stats": stats, "counters": dict(self.counters),
                "maxima": dict(self.maxima), "top_ns": top_ns,
                "problems": problems, "spans": len(spans)}

    def write(self, path):
        """Dump every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, _ in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent]) + "\n")


def _counter_hooks(tracer, mods):
    """(before, after) pairs that turn results into the layer counters."""
    io, lattice = mods["io"], mods["lattice"]
    counters = tracer.counters

    def lattice_cache_size(args, kwargs):
        return len(io._LATTICE_CACHE)

    def count_glue_words(size_before, args, result):
        # the cache grows only when this call (or a nested block load) parsed
        # a file; a glued lattice parsed here enumerated its whole code
        if len(io._LATTICE_CACHE) > size_before and result.glue is not None:
            counters["io.glue_words"] += len(result.glue.words)

    def theta_cached(args, kwargs):
        lat, bound = args[0], args[1]
        cached = lattice._THETA_CACHE.get(lat.gram)
        return cached is not None and cached.prec >= bound + 1

    def count_theta(hit, args, result):
        counters["lattice.theta_hits"] += hit
        counters["lattice.theta_terms"] += len(result.coeffs)

    def count_walls(_, args, result):
        counters["product.walls"] += len(result)

    def count_expansion(_, args, result):
        counters["product.skipped"] += result.skipped
        counters["product.terms"] += len(result.body.coeffs)

    def count_factor(_, args, result):
        # product_expand builds one binomial per factor of the product
        if tracer.open_span_name() == "product.product_expand":
            counters["product.factors"] += 1

    return {
        "io.load_lattice": (lattice_cache_size, count_glue_words),
        "lattice.theta_series": (theta_cached, count_theta),
        "product.enumerate_walls": (None, count_walls),
        "product.product_expand": (None, count_expansion),
        "qseries.lattice_binomial": (None, count_factor),
    }


def install(tracer):
    """Wrap the library's public functions and the three hot methods."""
    package = importlib.import_module("borcherds_kit")
    mods = {name: importlib.import_module(f"borcherds_kit.{name}") for name in MODULES}
    hooks = _counter_hooks(tracer, mods)
    replacement = {}
    for short, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            before, after = hooks.get(name, (None, None))
            replacement[id(value)] = tracer.wrap(name, value, before, after)
    for mod in [package, *mods.values()]:
        for attr, value in list(vars(mod).items()):
            if id(value) in replacement and inspect.isfunction(value):
                setattr(mod, attr, replacement[id(value)])

    qseries = mods["qseries"]
    qseries.LatticeQSeries.__mul__ = tracer.wrap(
        "qseries.LatticeQSeries.mul", qseries.LatticeQSeries.__mul__)
    qseries.FracQSeries.inverse = tracer.wrap(
        "qseries.FracQSeries.inverse", qseries.FracQSeries.inverse)

    cyc = mods["cyclotomic"].CycScalar
    cyc_mul = cyc.__mul__

    def counted_mul(self, other):
        result = cyc_mul(self, other)
        if tracer.enabled:
            tracer.counters["cyclotomic.CycScalar.mul.calls"] += 1
            tracer.note_max("cyclotomic.max_conductor", result.conductor)
        return result

    cyc.__mul__ = counted_mul
    return tracer
