"""Span tracer that wraps the package's public functions from outside.

`Tracer.install()` replaces each public function of the layer modules by a
wrapper that records one span per call: name, start, end, parent span and a
work count taken from the return value.  The package source is not touched:
the wrapper is rebound in every `ellimage.*` module dict that holds the same
function object (so `from .gl2 import mulclose` bindings are caught too), and
`MatrixGroup` methods are patched on the class.  Spans stay in memory and are
written once, by `dump`, when the invocation exits.

The per-element helpers (`SKIP`) are not wrapped: they run tens of millions
of times and a wrapper would cost as much as the call.  The work counts of
their callers (`elements`, `points`, `morder` calls) carry their load.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "labelio", "isolated", "orbits", "modcurves", "gl2", "lattice",
          "modarith")

SKIP = frozenset({"mmul", "mdet", "mvec", "mreduce", "mpow"})


def _size(result):
    return len(result)


def _orbit_points(result):
    return sum(rec.size for rec in result)


# span name -> work count of one call, read from its return value
WORK = {
    "gl2.mulclose": _size,
    "modcurves.sl2_elements": _size,
    "modcurves.genus_XG": lambda profile: profile.mu,
    "orbits.gamma0_orbits": _orbit_points,
    "orbits.gamma1_orbits": _orbit_points,
    "lattice.all_subgroups": _size,
    "lattice.preimage_rigidity": lambda res: res.checked_subspaces,
}


class Tracer:
    """Collects the spans of one CLI invocation.

    A span is [name, start, end, parent, work, error]: parent is the index of
    the enclosing span (-1 at top level) and error the serial number of a
    typed package error that escaped the call (0 if none).
    """

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self._stack = []
        self._errors = []

    def _error_serial(self, exc):
        for i, seen in enumerate(self._errors):
            if seen is exc:
                return i + 1
        self._errors.append(exc)
        return len(self._errors)

    def wrap(self, name, fn, typed_error):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except typed_error as exc:
                span[5] = self._error_serial(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(result)
            return result

        return traced

    def install(self):
        "Wrap every public function of the layer modules and MatrixGroup."
        typed_error = importlib.import_module("ellimage.errors").EllimageError
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module("ellimage." + layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                replaced[id(obj)] = (obj, self.wrap(name, obj, typed_error))
        # Rebind in every module of the package, including re-exports.
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ellimage" or modname.startswith("ellimage.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        cls = importlib.import_module("ellimage.gl2").MatrixGroup
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            setattr(cls, attr, self.wrap("gl2.MatrixGroup." + attr, obj, typed_error))

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"request": self.request_id, "spans": self.spans}, fh,
                      separators=(",", ":"))


def load(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def summarize(spans):
    """Totals over one invocation's spans.

    Returns {"self": {layer: s}, "calls": {name: n}, "time": {name: s},
    "work": {name: n}, "errors": {layer: n}, "under": {(outer, name): n}},
    where "time" is inclusive time with recursive calls counted once and
    "under" counts calls of `name` made inside a call of `outer`.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s, calls, incl, work, under = {}, {}, {}, {}, {}
    errors = {}
    for i, (name, start, end, parent, count, err) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + count
        if err:
            errors.setdefault(layer, set()).add(err)
        outers, p = set(), parent
        while p >= 0:
            outers.add(spans[p][0])
            p = spans[p][3]
        for outer in outers:
            under[(outer, name)] = under.get((outer, name), 0) + 1
        if name not in outers:
            incl[name] = incl.get(name, 0.0) + dur
    return {"self": self_s, "calls": calls, "time": incl, "work": work,
            "errors": {k: len(v) for k, v in errors.items()}, "under": under}
