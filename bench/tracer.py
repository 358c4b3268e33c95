"""Outside-in tracing of the skewpuiseux layers.

``Tracer.install`` wraps the public functions of the traced modules and a
few methods of their central classes, and rebinds every place where one of
them is bound: the defining module, every module that imported the name
directly (the package's own modules, its re-exports in ``__init__`` and the
benchmark's modules alike) and the class itself for methods.
``Tracer.remove`` puts every original back.  The package source is not
touched.

Each call made while an operation is open (``Tracer.op``) becomes a span
with its name, start, end, parent span and operation id.  Spans are kept in
flat arrays until ``Tracer.totals`` folds them into per-name counts,
inclusive and self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "skewpuiseux"
MODULES = ("factorizer", "hensel", "structure", "residue", "skewpoly", "puiseux", "scalar")

# (module, class, method, span name); the span name drops the dunder
METHODS = (
    ("puiseux", "PuiseuxSeries", "__init__", "puiseux.init"),
    ("puiseux", "PuiseuxSeries", "__add__", "puiseux.add"),
    ("puiseux", "PuiseuxSeries", "__mul__", "puiseux.mul"),
    ("puiseux", "PuiseuxSeries", "sigma_pow", "puiseux.sigma_pow"),
    ("puiseux", "PuiseuxSeries", "inverse", "puiseux.inverse"),
    ("skewpoly", "SkewPoly", "__add__", "skewpoly.add"),
    ("skewpoly", "SkewPoly", "__mul__", "skewpoly.mul"),
    ("skewpoly", "SkewPoly", "left_divmod", "skewpoly.left_divmod"),
    ("skewpoly", "SkewPoly", "evaluate", "skewpoly.evaluate"),
)


def public_functions(module):
    """Public functions defined (not just imported) in ``module``."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1          # id of the open operation; -1: record nothing
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_error = array("b")
        self.span_nested = array("b")   # a same-name span is already open

    # -- patching --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.op < 0:
                return fn(*args, **kwargs)
            sid = len(tr.span_start)
            stack = tr._stack
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1] if stack else -1)
            tr.span_op.append(tr.op)
            tr.span_nested.append(tr._depth[nid] > 0)
            tr.span_error.append(0)
            tr.span_end.append(0.0)
            tr._depth[nid] += 1
            stack.append(sid)
            tr.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.span_error[sid] = 1
                raise
            finally:
                tr.span_end[sid] = clock()
                stack.pop()
                tr._depth[nid] -= 1

        return traced

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced callable wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for home in list(sys.modules.values()):
            namespace = getattr(home, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(home, attr, hit[1])
        for short, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            self._set(cls, meth, self._wrap(span, vars(cls)[meth]))
        return self

    def remove(self):
        """Restore every original binding, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextmanager
    def operation(self, op_id: int):
        """Record spans for the calls made inside this block."""
        self.op = op_id
        self._stack.clear()
        try:
            yield
        finally:
            self.op = -1

    # -- folding ---------------------------------------------------------------

    def __len__(self):
        return len(self.span_start)

    def totals(self) -> dict:
        """Per span name: calls, errors, incl_s (outermost spans only, so a
        recursive call is not counted twice) and self_s (each span's
        duration minus its traced children's)."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "errors": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        names = self.names
        for i in range(n):
            rec = out[names[self.span_name[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["errors"] += self.span_error[i]
            rec["self_s"] += dur - child[i]
            if not self.span_nested[i]:
                rec["incl_s"] += dur
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose parent span is a ``parent_name`` span."""
        nid, pid = self._ids.get(name), self._ids.get(parent_name)
        if nid is None or pid is None:
            return 0
        sn, sp = self.span_name, self.span_parent
        return sum(1 for i in range(len(sn)) if sn[i] == nid and sp[i] >= 0
                   and sn[sp[i]] == pid)
