"""Outside-in tracing for the sixff benchmark.

The benchmark installs wrappers around the public callables of each sixff
layer; nothing inside sixff is changed.  Two kinds of pass exist, each run
in its own process:

- ``SpanTracer`` records one span per wrapped call (name, start, end,
  parent span, instance id) plus work counters (multiply-adds, cells, and
  repeated-input ratios).  Spans stay in memory until the round ends.
- ``CountTracer`` counts scalar-level events (field constants, inverses,
  F_p allocations) and matrix allocations.  These wrappers sit on the
  hottest paths, so they are kept out of the span pass, where their cost
  would inflate ``linalg`` self times.

A wrapped callable is patched on its class, or, for a module function, in
every loaded sixff module that binds it by name (``kernels`` and ``hecke``
import sheaf functions with ``from .sheaves import ...``).  ``remove()``
restores every original, and ``assert_clean()`` proves it.
"""

from __future__ import annotations

import functools
import sys
import time
from importlib import import_module

# (layer metric, module, attribute path).  Several targets may share a
# metric; a metric's calls and self time add up over its targets.
SPAN_TARGETS = (
    ("linalg.mul", "sixff.linalg", "Matrix.__mul__"),
    ("linalg.kron", "sixff.linalg", "Matrix.kron"),
    ("linalg.rref", "sixff.linalg", "Matrix.rref"),
    ("linalg.nullspace", "sixff.linalg", "Matrix.nullspace"),
    ("linalg.solve", "sixff.linalg", "Matrix.solve"),
    ("linalg.inverse", "sixff.linalg", "Matrix.inverse"),
    ("linalg.stack", "sixff.linalg", "Matrix.hstack"),
    ("linalg.stack", "sixff.linalg", "Matrix.vstack"),
    ("groups.build", "sixff.groups", "FiniteGroup.__init__"),
    ("groups.subgroup", "sixff.groups", "FiniteGroup.subgroup"),
    ("groupoid.pullback", "sixff.groupoid", "iso_comma_pullback"),
    ("groupoid.build", "sixff.groupoid", "FiniteGroupoid.__init__"),
    ("groupoid.reps", "sixff.groupoid", "transport_to_reps"),
    ("groupoid.reps", "sixff.groupoid", "pi0_and_aut"),
    ("sheaves.lan", "sixff.sheaves", "LanFunctor.obj"),
    ("sheaves.lan", "sixff.sheaves", "LanFunctor.mor"),
    ("sheaves.ran", "sixff.sheaves", "RanFunctor.obj"),
    ("sheaves.ran", "sixff.sheaves", "RanFunctor.mor"),
    ("sheaves.pullback", "sixff.sheaves", "PullbackFunctor.obj"),
    ("sheaves.pullback", "sixff.sheaves", "PullbackFunctor.mor"),
    ("sheaves.tensor", "sixff.sheaves", "TensorLeftFunctor.obj"),
    ("sheaves.tensor", "sixff.sheaves", "tensor_morphisms"),
    ("sheaves.hom_space", "sixff.sheaves", "hom_space"),
    ("sheaves.base_change", "sixff.sheaves", "base_change_cell"),
    ("sheaves.projection", "sixff.sheaves", "projection_formula_cell_left"),
    ("sheaves.projection", "sixff.sheaves", "projection_formula_cell_right"),
    ("sheaves.find_iso", "sixff.sheaves", "find_isomorphism"),
    ("kernels.compose", "sixff.kernels", "kernel_compose"),
    ("kernels.associator", "sixff.kernels", "associator"),
    ("kernels.unitor", "sixff.kernels", "left_unitor"),
    ("kernels.unitor", "sixff.kernels", "right_unitor"),
    ("kernels.prim_test", "sixff.kernels", "prim_test"),
    ("kernels.calculus", "sixff.kernels", "MapCalculus.__init__"),
    ("kernels.calculus", "sixff.kernels", "MapCalculus.bc_p2p1"),
    ("kernels.calculus", "sixff.kernels", "MapCalculus.comp_XX"),
    ("kernels.calculus", "sixff.kernels", "MapCalculus.comp_SS"),
    ("kernels.calculus", "sixff.kernels", "MapCalculus.right_unitor_reduced"),
    ("hecke.double_cosets", "sixff.hecke", "double_cosets"),
    ("hecke.induction", "sixff.hecke", "compact_induction"),
    ("hecke.algebra", "sixff.hecke", "HeckeAlgebra.__init__"),
    ("hecke.algebra", "sixff.hecke", "HeckeAlgebra.structure_constants"),
    ("hecke.algebra", "sixff.hecke", "anti_involution"),
    ("hecke.prim_duality", "sixff.hecke", "prim_duality_on_hecke"),
)

# Wrapped callables that must fire on each workload (by attribute path).
# A rename or a bypass in sixff then fails the traced run instead of
# silently reporting zero for a layer.
EXPECTED = {
    "kernel-coherence": (
        "Matrix.__mul__", "Matrix.kron", "Matrix.rref", "Matrix.nullspace",
        "Matrix.solve", "Matrix.inverse", "Matrix.hstack", "Matrix.vstack",
        "FiniteGroupoid.__init__",
        "LanFunctor.obj", "LanFunctor.mor", "PullbackFunctor.obj",
        "PullbackFunctor.mor", "TensorLeftFunctor.obj", "tensor_morphisms",
        "base_change_cell", "projection_formula_cell_left",
        "projection_formula_cell_right", "kernel_compose", "associator",
        "left_unitor", "right_unitor",
    ),
    "six-ops-fresh": (
        "Matrix.__mul__", "Matrix.kron", "Matrix.rref", "Matrix.nullspace",
        "Matrix.solve", "Matrix.inverse", "Matrix.hstack", "Matrix.vstack",
        "FiniteGroup.__init__", "iso_comma_pullback",
        "FiniteGroupoid.__init__",
        "LanFunctor.obj", "LanFunctor.mor", "RanFunctor.obj", "RanFunctor.mor",
        "PullbackFunctor.obj", "PullbackFunctor.mor", "TensorLeftFunctor.obj",
        "base_change_cell", "projection_formula_cell_left",
    ),
    "hecke-duality": (
        "Matrix.__mul__", "Matrix.kron", "Matrix.rref", "Matrix.nullspace",
        "Matrix.solve", "Matrix.inverse", "Matrix.hstack", "Matrix.vstack",
        "FiniteGroup.__init__", "FiniteGroup.subgroup", "iso_comma_pullback",
        "FiniteGroupoid.__init__", "transport_to_reps", "pi0_and_aut",
        "LanFunctor.obj", "LanFunctor.mor", "PullbackFunctor.obj",
        "TensorLeftFunctor.obj", "tensor_morphisms", "hom_space",
        "base_change_cell", "projection_formula_cell_right",
        "find_isomorphism", "prim_test", "MapCalculus.__init__",
        "MapCalculus.bc_p2p1", "MapCalculus.right_unitor_reduced",
        "double_cosets", "compact_induction", "HeckeAlgebra.__init__",
        "HeckeAlgebra.structure_constants", "anti_involution",
        "prim_duality_on_hecke",
    ),
}


def _resolve(module, path):
    """(owner, attribute name, original) for a dotted attribute path."""
    owner = import_module(module)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    name = parts[-1]
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError("%s.%s is not defined on the class"
                                 % (module, path))
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def _bindings(original):
    """Every (sixff module, name) that binds `original`."""
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "sixff" or
                               modname.startswith("sixff.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, name))
    return out


class _Patches:
    """Installed replacements and how to undo them."""

    def __init__(self):
        self.undo = []

    def replace(self, owner, name, new):
        self.undo.append((owner, name, owner.__dict__[name]
                          if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def install(self, module, path, make):
        """Replace the callable at module.path by make(original), on its
        class or in every sixff module that binds it."""
        owner, name, original = _resolve(module, path)
        new = make(original)
        if not isinstance(new, property):
            new.__bench_wrapper__ = True
        if isinstance(owner, type):
            self.replace(owner, name, new)
        else:
            for mod, alias in _bindings(original):
                self.replace(mod, alias, new)

    def remove(self):
        while self.undo:
            owner, name, old = self.undo.pop()
            setattr(owner, name, old)


def assert_clean():
    """Raise if any benchmark wrapper is still installed in sixff."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sixff" or
                               modname.startswith("sixff.")):
            continue
        for name, value in vars(mod).items():
            objs = [value]
            if isinstance(value, type):
                objs = [getattr(v, "fget", v) for v in vars(value).values()]
            for obj in objs:
                if getattr(obj, "__bench_wrapper__", False):
                    raise RuntimeError("wrapper left installed at %s.%s"
                                       % (modname, name))


# ---------------------------------------------------------------------------
# span pass
# ---------------------------------------------------------------------------

def _content_key(x):
    """An exact, hashable key for the content of a sixff value (sheaf,
    sheaf morphism, functor or matrix)."""
    if hasattr(x, "rows"):
        return (x.field, x.nrows, x.ncols, x.rows)
    if hasattr(x, "comp"):
        return (_content_key(x.src), _content_key(x.dst),
                frozenset((k, _content_key(v)) for k, v in x.comp.items()))
    if hasattr(x, "mat"):
        return (x.field, frozenset(x.dim.items()),
                frozenset((k, _content_key(v)) for k, v in x.mat.items()))
    return (frozenset(x.ob.items()), frozenset(x.mor.items()),
            x.cod.morphisms)


def _hook_mul(tr, args):
    a, b = args[0], args[1]
    tr.work["linalg.mul.mac"] += a.nrows * a.ncols * b.ncols


def _hook_kron(tr, args):
    a, b = args[0], args[1]
    tr.work["linalg.kron.cells"] += a.nrows * a.ncols * b.nrows * b.ncols


def _hook_rref(tr, args):
    m = args[0]
    tr.work["linalg.rref.cells"] += m.nrows * m.ncols
    tr.note_input("linalg.rref", _content_key(m))


def _hook_kan(tr, args):
    functor, x = args[0], args[1]
    tr.note_input("sheaves.lan", (_content_key(functor.f), _content_key(x)))


HOOKS = {
    "Matrix.__mul__": _hook_mul,
    "Matrix.kron": _hook_kron,
    "Matrix.rref": _hook_rref,
    "LanFunctor.obj": _hook_kan,
    "LanFunctor.mor": _hook_kan,
}


class SpanTracer:
    """Records spans around every SPAN_TARGETS callable."""

    def __init__(self):
        self.spans = []        # (target index, instance, parent, t0, t1, w0, w1)
        self.stack = []
        self.instance = "setup"
        self.work = {"linalg.mul.mac": 0, "linalg.kron.cells": 0,
                     "linalg.rref.cells": 0}
        self.inputs = {"linalg.rref": [0, set()], "sheaves.lan": [0, set()]}
        self._patches = None

    def note_input(self, name, key):
        entry = self.inputs[name]
        entry[0] += 1
        entry[1].add(key)

    def _wrap(self, index, hook):
        tracer = self
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                w0 = clock()
                if hook is not None:
                    hook(tracer, args)
                spans, stack = tracer.spans, tracer.stack
                me = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(me)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[me] = (index, tracer.instance, parent, t0, t1, w0,
                                 clock())
            return wrapper
        return make

    def install(self):
        self._patches = _Patches()
        try:
            for i, (_metric, module, path) in enumerate(SPAN_TARGETS):
                self._patches.install(module, path,
                                      self._wrap(i, HOOKS.get(path)))
        except BaseException:
            self._patches.remove()
            raise

    def remove(self):
        self._patches.remove()

    def fired(self):
        """Attribute paths of targets that recorded at least one span."""
        return {SPAN_TARGETS[s[0]][2] for s in self.spans if s is not None}

    def layer_metrics(self, parts):
        """Per-layer metrics.  `parts` maps an instance id to its part, so
        that spans can be attributed to a sub-workload.  A span's self time
        is its duration minus the wrapper intervals of its direct children;
        a child's wrapper interval includes its hook, so the tracer's own
        bookkeeping lands in no layer's self time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[6] - s[5]
        calls, self_s = {}, {}
        sweep_linalg = 0
        for k, s in enumerate(self.spans):
            metric = SPAN_TARGETS[s[0]][0]
            calls[metric] = calls.get(metric, 0) + 1
            self_s[metric] = self_s.get(metric, 0.0) + (s[4] - s[3]) - child[k]
            if metric.startswith("linalg.") and parts.get(s[1]) == "sweep":
                sweep_linalg += 1
        out = {}
        for metric in sorted({t[0] for t in SPAN_TARGETS}):
            out[metric + ".calls"] = calls.get(metric, 0)
            out[metric + ".self_s"] = self_s.get(metric, 0.0)
        out.update(self.work)
        for name, (n, seen) in self.inputs.items():
            out[name + ".repeat_ratio"] = (n - len(seen)) / n if n else 0.0
        out["hecke.sweep.linalg_calls"] = sweep_linalg
        return out

    def dump(self, path, t_origin):
        """Write the spans as gzipped JSON lines: a header naming the
        targets, then [span, target, instance, parent, start, end] with
        times in seconds from t_origin."""
        import gzip
        import json
        names = [t[0] + ":" + t[2] for t in SPAN_TARGETS]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"targets": names}) + "\n")
            for k, s in enumerate(self.spans):
                fh.write(json.dumps([k, names[s[0]], s[1], s[2],
                                     round(s[3] - t_origin, 7),
                                     round(s[4] - t_origin, 7)]) + "\n")


# ---------------------------------------------------------------------------
# count-only pass
# ---------------------------------------------------------------------------

class CountTracer:
    """Counts scalar-level events and matrix allocations."""

    def __init__(self):
        self.counts = {"fields.const_calls": 0, "fields.inv_calls": 0,
                       "fields.fp_allocs": 0, "linalg.alloc": 0,
                       "linalg.max_dim": 0}
        self._patches = None

    def install(self):
        c = self.counts

        def counting(key):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    c[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def counting_property(prop):
            getter = counting("fields.const_calls")(prop.fget)
            getter.__bench_wrapper__ = True
            return property(getter)

        def matrix_init(fn):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                fn(self, *args, **kwargs)
                c["linalg.alloc"] += 1
                d = max(self.nrows, self.ncols)
                if d > c["linalg.max_dim"]:
                    c["linalg.max_dim"] = d
            return wrapper

        self._patches = p = _Patches()
        try:
            for cls in ("RationalField", "PrimeField"):
                for const in ("zero", "one"):
                    p.install("sixff.fields", cls + "." + const,
                              counting_property)
                p.install("sixff.fields", cls + ".inv",
                          counting("fields.inv_calls"))
            p.install("sixff.fields", "FpElement.__init__",
                      counting("fields.fp_allocs"))
            p.install("sixff.linalg", "Matrix.__init__", matrix_init)
        except BaseException:
            p.remove()
            raise

    def remove(self):
        self._patches.remove()
