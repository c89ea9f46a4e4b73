"""In-memory spans around the program's public calls, and the per-layer
metrics computed from them.

A span records layer, name, start, end, parent span and level.  Spans stay
in a list until the run ends; ``Recorder.dump`` writes them out.  The
wrappers are installed from this file by rebinding the names the program's
modules look up (``nematicfem.bench.newton_solve`` and the like), so the
program itself is unchanged, and ``installed`` restores every name on exit.
"""

import contextlib
import functools
import json
import time


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "start", "end", "level",
                 "attrs")

    def __init__(self, sid, parent, layer, name, start, level):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.level = level
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans of one study.  ``level`` is the index of the last level
    whose Newton solve had started when a span began (0 before the first)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._newton_starts = 0

    @contextlib.contextmanager
    def span(self, layer, name):
        if layer == "solver" and name == "newton":
            self._newton_starts += 1
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), parent, layer, name, time.perf_counter(),
                 max(self._newton_starts - 1, 0))
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "layer": s.layer,
                    "name": s.name, "start": s.start, "end": s.end,
                    "level": s.level, **s.attrs}) + "\n")


# -- wrappers ------------------------------------------------------------------


def _wrap(rec, layer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(layer, name) as s:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, result)
        return result
    return wrapper


def _newton_steps(span, result):
    span.attrs["steps"] = result[1].iterations


def _triangles(span, mesh):
    span.attrs["triangles"] = mesh.n_triangles


class _LU:
    """SuperLU factor whose triangular solves are spans."""

    def __init__(self, lu, rec):
        self._lu = lu
        self._rec = rec

    def solve(self, *args, **kwargs):
        with self._rec.span("solver", "trisolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SparseLinalg:
    """Stand-in for ``scipy.sparse.linalg`` inside ``nematicfem.solver``:
    ``splu`` is a span and reports the factor's stored L+U entries."""

    def __init__(self, real, rec):
        self._real = real
        self._rec = rec

    def splu(self, *args, **kwargs):
        with self._rec.span("solver", "factor") as s:
            lu = self._real.splu(*args, **kwargs)
            s.attrs["nnz"] = int(lu.nnz)
        return _LU(lu, self._rec)

    def __getattr__(self, name):
        return getattr(self._real, name)


# (module, attribute, layer, name, on_result); a class method is written
# "Class.method".  A metric whose every wrapped name is gone is reported
# as missing.
FUNCTION_SPANS = [
    ("bench", "newton_solve", "solver", "newton", _newton_steps),
    ("adapt", "newton_solve", "solver", "newton", _newton_steps),
    ("bench", "director_guess", "solver", "guess", None),
    ("bench", "laplace_guess", "solver", "guess", None),
    ("adapt", "director_guess", "solver", "guess", None),
    ("adapt", "laplace_guess", "solver", "guess", None),
    ("forms", "NonlinearSystem.__init__", "forms", "setup", None),
    ("forms", "NonlinearSystem.jacobian", "forms", "jacobian", None),
    ("forms", "NonlinearSystem.residual", "forms", "residual", None),
    ("bench", "estimate", "estimator", "estimate", None),
    ("adapt", "estimate", "estimator", "estimate", None),
    ("bench", "red_refine", "mesh", "refine", _triangles),
    ("adapt", "nvb_refine", "mesh", "refine", _triangles),
    ("fespace", "MeshGeometry.__init__", "fespace", "geometry", None),
    ("bench", "prolong", "fespace", "prolong", None),
    ("adapt", "prolong", "fespace", "prolong", None),
    ("bench", "free_energy", "fespace", "norms", None),
    ("bench", "energy_error_norm", "fespace", "norms", None),
    ("bench", "l2_error_norm", "fespace", "norms", None),
    ("bench", "discrete_norm", "fespace", "norms", None),
    ("bench", "l2_norm", "fespace", "norms", None),
    ("adapt", "free_energy", "fespace", "norms", None),
    ("adapt", "energy_error_norm", "fespace", "norms", None),
    ("adapt", "l2_error_norm", "fespace", "norms", None),
    ("adapt", "element_indicators", "adapt", "mark", None),
    ("adapt", "dorfler_mark", "adapt", "mark", None),
    ("cli", "emit_outputs", "bench", "emit", None),
    ("bench", "emit_outputs", "bench", "emit", None),
]


def _resolve(module, attr):
    """(owner object, attribute name) for "func" or "Class.method"."""
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def installed(rec, package):
    """Wrap every name of FUNCTION_SPANS plus the solver's sparse LU for the
    duration of the block.  Yields the set of (layer, name) spans whose
    every wrapped name was missing."""
    saved = []
    found, wanted = set(), set()
    try:
        for modname, attr, layer, name, on_result in FUNCTION_SPANS:
            wanted.add((layer, name))
            module = getattr(package, modname)
            try:
                owner, leaf = _resolve(module, attr)
                original = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
            except (AttributeError, KeyError):
                continue
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(rec, layer, name, original, on_result))
            found.add((layer, name))
        solver = package.solver
        wanted.update({("solver", "factor"), ("solver", "trisolve")})
        if hasattr(solver, "spla") and hasattr(solver.spla, "splu"):
            saved.append((solver, "spla", solver.spla))
            solver.spla = _SparseLinalg(solver.spla, rec)
            found.update({("solver", "factor"), ("solver", "trisolve")})
        yield wanted - found
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# -- metrics ---------------------------------------------------------------------

# per-layer metric -> (layer, name, statistic, unit); statistics:
#   total  summed span duration (a nested span also counts in its parent)
#   self   summed duration minus the time direct child spans cover
#   count  number of spans
#   sum:A / max:A / last:A  of the span attribute A
LAYER_METRICS = {
    "solver.factor_s": ("solver", "factor", "total", "s"),
    "solver.factorizations": ("solver", "factor", "count", "count"),
    "solver.trisolve_s": ("solver", "trisolve", "total", "s"),
    "solver.lu_nnz_max": ("solver", "factor", "max:nnz", "count"),
    "solver.newton_s": ("solver", "newton", "total", "s"),
    "solver.newton_self_s": ("solver", "newton", "self", "s"),
    "solver.newton_steps": ("solver", "newton", "sum:steps", "count"),
    "solver.guess_s": ("solver", "guess", "total", "s"),
    "forms.setup_s": ("forms", "setup", "total", "s"),
    "forms.setups": ("forms", "setup", "count", "count"),
    "forms.jacobian_s": ("forms", "jacobian", "total", "s"),
    "forms.jacobians": ("forms", "jacobian", "count", "count"),
    "forms.residual_s": ("forms", "residual", "total", "s"),
    "forms.residuals": ("forms", "residual", "count", "count"),
    "estimator.estimate_s": ("estimator", "estimate", "total", "s"),
    "mesh.refine_s": ("mesh", "refine", "total", "s"),
    "mesh.triangles_final": ("mesh", "refine", "last:triangles", "count"),
    "fespace.geometry_s": ("fespace", "geometry", "total", "s"),
    "fespace.prolong_s": ("fespace", "prolong", "total", "s"),
    "fespace.prolongs": ("fespace", "prolong", "count", "count"),
    "fespace.norms_s": ("fespace", "norms", "total", "s"),
    "adapt.mark_s": ("adapt", "mark", "total", "s"),
    "bench.emit_s": ("bench", "emit", "total", "s"),
    "bench.self_s": ("bench", "study", "self", "s"),
}


def layer_metrics(rec, missing):
    """Per-layer metrics of one traced study, as {name: (value, unit)};
    value is None for a metric whose wrapped names are all missing."""
    child_time = {}
    for s in rec.spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for metric, (layer, name, stat, unit) in LAYER_METRICS.items():
        if (layer, name) in missing:
            out[metric] = (None, unit)
            continue
        spans = [s for s in rec.spans if s.layer == layer and s.name == name]
        if stat == "total":
            value = sum(s.duration for s in spans)
        elif stat == "self":
            value = sum(s.duration - child_time.get(s.sid, 0.0) for s in spans)
        elif stat == "count":
            value = len(spans)
        else:
            how, attr = stat.split(":")
            vals = [s.attrs[attr] for s in spans if attr in s.attrs]
            value = {"sum": sum(vals), "max": max(vals, default=0),
                     "last": vals[-1] if vals else 0}[how]
        out[metric] = (value, unit)
    return out
