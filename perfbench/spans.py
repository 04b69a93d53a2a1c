"""Tracing from outside the program: spans around every public ultrasph function.

:class:`Tracer` runs inside a worker process.  It wraps each public
function of every ``ultrasph`` module and rebinds the wrapper in every
module namespace that holds the function, because modules import each
other's functions by name (``solver`` calls its own ``eval_harmonic``
binding, ``verify`` calls ``gb.poly``).  A span is (name, parent span,
start, end); all spans of one worker belong to its single CLI call.  Spans
stay in compact arrays and are written out once, after the call.

Besides spans, the wrappers keep exact work counts for a few functions
(:data:`METERS`); they read arguments and results and never alter them.

:func:`summarize` runs in the benchmark process and turns a span file into
per-function call counts, inclusive time and self time (duration minus
the time covered by child spans).
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _repeat(name):
    """Counts calls whose arguments were already seen in this process."""
    def meter(tracer, args, kwargs, result):
        key = (tuple(args), tuple(sorted(kwargs.items())))
        seen = tracer.seen.setdefault(name, set())
        tracer.counts[name + ".repeats"] += key in seen
        seen.add(key)
    return meter


def _grid_nodes(tracer, args, kwargs, result):
    tracer.counts["quadrature.grid_nodes"] += result.size


def _values(tracer, args, kwargs, result):
    tracer.counts["harmonics.eval_harmonic.values"] += np.size(result)


def _index_nodes(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    tracer.counts["solver.project_boundary.index_nodes"] += len(result) * grid.size


def _index_points(tracer, args, kwargs, result):
    expansion = _arg(args, kwargs, 0, "expansion")
    tracer.counts["solver.eval_expansion.index_points"] += len(expansion.coeffs) * np.size(result)


COUNTS = (
    "quadrature.theta_rule.repeats",
    "quadrature.grid_nodes",
    "gegenbauer.norm_factor.repeats",
    "harmonics.eval_harmonic.values",
    "solver.project_boundary.index_nodes",
    "solver.eval_expansion.index_points",
)

METERS = {
    "quadrature.theta_rule": _repeat("quadrature.theta_rule"),
    "quadrature.sphere_grid": _grid_nodes,
    "gegenbauer.norm_factor": _repeat("gegenbauer.norm_factor"),
    "harmonics.eval_harmonic": _values,
    "solver.project_boundary": _index_nodes,
    "solver.eval_expansion": _index_points,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.seen = {}
        self.meter_errors = 0

    def install(self, package):
        """Wrap every public function of ``package``'s modules; returns the count."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        return len(wrappers)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        meter = METERS.get(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if meter is not None:
                try:
                    meter(self, args, kwargs, result)
                except Exception:  # a meter must never change what the program sees
                    self.meter_errors += 1
            return result

        return traced

    def save(self, path, call_id):
        header = {"call_id": call_id, "names": self.names, "counts": self.counts,
                  "meter_errors": self.meter_errors}
        np.savez(path, header=np.array(json.dumps(header)),
                 name_of=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def summarize(path):
    """Per-function {calls, s, self_s}, the work counts and the span count of one file."""
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
        name_of, parent = data["name_of"], data["parent"]
        dur = data["end"] - data["start"]
    if header["meter_errors"]:
        raise RuntimeError(f"{header['meter_errors']} work-count meters failed; "
                           "a traced function's signature changed")
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    n = len(header["names"])
    calls = np.bincount(name_of, minlength=n)
    total = np.bincount(name_of, weights=dur, minlength=n)
    self_t = np.bincount(name_of, weights=dur - child, minlength=n)
    funcs = {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_t[i])}
             for i, name in enumerate(header["names"])}
    return funcs, header["counts"], len(dur)
