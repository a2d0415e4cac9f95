"""Span tracing of hesslab, installed from outside the package.

`Tracer.install` replaces every public function of each hesslab module,
and every public method of the classes the modules define, by a wrapper
that records one span (name, start, end, parent).  A function is wrapped
in every module namespace that holds it, so a call from another module
that imported the name (``hesslab.monotone.levelset_curvature``) is
recorded too.  The functions that ``hesslab.solver`` imports from
``scipy.sparse.linalg`` (``spsolve`` today, ``splu`` after a change to
the Newton core) are wrapped there as the ``sparse`` layer.

A span is named ``<layer>.<qualified name>``; the layer is the module
that defines the function.  Spans live in flat arrays in memory and are
written out once, at the end of the run.  `Tracer.enable(False)` puts the
original functions back, so that untraced ops can run in the same process
and the cost of tracing is measured rather than estimated.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = (
    "symfunc", "fields", "surfaces", "radial", "solver", "monotone",
    "identities", "cli",
)
SPARSE = "scipy.sparse.linalg"
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._wrapped = {}
        self._patches = []  # (owner, attribute, original, traced)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open_op(self):
        """Open the span of one benchmark op; returns its index."""
        i = len(self.name_id)
        self.name_id.append(self._intern(OP_SPAN))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close_op(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        """The traced version of fn; one wrapper per function object."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        nid = self._intern(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        self._wrapped[id(fn)] = traced
        self._wrapped[id(traced)] = traced
        return traced

    def install(self):
        """Wrap the public functions and methods of every hesslab module."""
        # import everything first, so that no module binds a name that is
        # already wrapped and gets it wrapped twice
        mods = {short: importlib.import_module(f"hesslab.{short}")
                for short in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if inspect.isfunction(obj) and origin.startswith("hesslab."):
                    layer = origin.split(".")[1]
                    self._patch(mod, attr, obj,
                                self.wrap(obj, f"{layer}.{obj.__qualname__}"))
                elif (short == "solver" and callable(obj)
                      and origin.startswith(SPARSE)):
                    self._patch(mod, attr, obj, self.wrap(obj, f"sparse.{attr}"))
                elif inspect.isclass(obj) and origin == mod.__name__:
                    self._install_methods(obj, short)

    def _install_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, raw, type(raw)(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, self.wrap(raw, name))

    def _patch(self, owner, attr, original, traced):
        self._patches.append((owner, attr, original, traced))
        setattr(owner, attr, traced)

    def enable(self, on):
        """Switch the wrappers in (on) or put the original functions back."""
        for owner, attr, original, traced in self._patches:
            setattr(owner, attr, traced if on else original)

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# (metric, kind, span name or layer); kinds:
#   calls  number of spans of that name
#   incl   summed duration of spans of that name
#   self   summed self time of spans of that name
#   nlayer number of spans in the layer; ilayer their summed duration
SPAN_METRICS = (
    ("solver.solve_s", "incl", "solver.solve_exterior"),
    ("solver.solve_self_s", "self", "solver.solve_exterior"),
    ("solver.sparse_calls", "nlayer", "sparse"),
    ("solver.sparse_s", "ilayer", "sparse"),
    ("solver.margin_s", "incl", "solver.admissibility_margin"),
    ("solver.checkpoint_write_s", "incl", "solver.ExteriorField.save_checkpoint"),
    ("solver.jet_at_calls", "calls", "solver.ExteriorField.jet_at"),
    ("solver.jet_at_s", "incl", "solver.ExteriorField.jet_at"),
    ("solver.boundary_gradient_s", "incl", "solver.ExteriorField.boundary_gradient"),
    ("monotone.F_eval_calls", "calls", "monotone.F_eval"),
    ("monotone.F_eval_self_s", "self", "monotone.F_eval"),
    ("monotone.extract_levelset_self_s", "self", "monotone.extract_levelset"),
    ("monotone.audit_self_s", "self", "monotone.monotonicity_audit"),
    ("fields.levelset_curvature_calls", "calls", "fields.levelset_curvature"),
    ("fields.levelset_curvature_self_s", "self", "fields.levelset_curvature"),
    ("symfunc.sigma_grad_calls", "calls", "symfunc.sigma_grad"),
    ("symfunc.sigma_grad_s", "incl", "symfunc.sigma_grad"),
    ("symfunc.sigma_matrix_calls", "calls", "symfunc.sigma_matrix"),
    ("symfunc.sigma_matrix_s", "incl", "symfunc.sigma_matrix"),
    ("symfunc.verify_matrix_identities_calls", "calls",
     "symfunc.verify_matrix_identities"),
    ("symfunc.verify_matrix_identities_self_s", "self",
     "symfunc.verify_matrix_identities"),
)

#: Span layers.  Their self times add up to the op's duration; each gets a
#: `<layer>.self_s` metric except `sparse` (already `solver.sparse_s`, as
#: sparse spans have no children) and `radial`, which no workload reaches.
LAYERS = MODULES + ("sparse", "bench")
UNREPORTED_SELF = ("sparse", "radial")


def op_metrics(tracer):
    """Per-op layer metrics for every op span, as a list of dicts.

    Self time is a span's duration minus the time its child spans cover.
    Spans outside an op (set-up, checks) are left out.
    """
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = (np.frombuffer(tracer.end, dtype=np.float64)
           - np.frombuffer(tracer.start, dtype=np.float64))
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=ids.size)
    self_t = dur - child
    names = tracer.names
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names])
    name_idx = {n: i for i, n in enumerate(names)}
    root_id = name_idx.get(OP_SPAN, -1)
    roots = np.flatnonzero(ids == root_id)
    top = np.flatnonzero(parent == -1)

    out = []
    for r in roots:
        stop = top[top > r]
        stop = int(stop[0]) if stop.size else ids.size
        sl = slice(r, stop)
        nid, d, s = ids[sl], dur[sl], self_t[sl]
        lay = layer_of[nid]
        m = {}
        for metric, kind, key in SPAN_METRICS:
            if kind in ("nlayer", "ilayer"):
                mask = lay == LAYERS.index(key)
            else:
                mask = nid == name_idx.get(key, -1)
            if kind in ("calls", "nlayer"):
                m[metric] = int(mask.sum())
            elif kind == "self":
                m[metric] = float(s[mask].sum())
            else:
                m[metric] = float(d[mask].sum())
        for li, layer in enumerate(LAYERS):
            if layer not in UNREPORTED_SELF:
                m[f"{layer}.self_s"] = float(s[lay == li].sum())
        # level-set segments = jets taken directly by extract_levelset
        jet = name_idx.get("solver.ExteriorField.jet_at", -1)
        ext = name_idx.get("monotone.extract_levelset", -1)
        m["monotone.segments"] = int(np.sum((nid == jet) & (ids[parent[sl]] == ext)))
        m["trace.spans"] = int(stop - r)
        out.append(m)
    return out


def setup_seconds(tracer, name, before):
    """Summed duration of spans of one name among the first `before` spans."""
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)[:before]
    dur = (np.frombuffer(tracer.end, dtype=np.float64)[:before]
           - np.frombuffer(tracer.start, dtype=np.float64)[:before])
    if name not in tracer.names:
        return 0.0
    return float(dur[ids == tracer.names.index(name)].sum())
