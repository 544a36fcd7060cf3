"""Spans and counters around the package's public functions.

The package source stays untouched: `Tracer.installed()` swaps each
listed function for a timing wrapper at every `gree.*` module binding
that holds it, and puts the originals back on exit.  Spans (name, start,
end, parent, op id) are kept in flat arrays and written out once, at the
end of the run.  A span's self time is its duration minus the time its
child spans cover.
"""

import contextlib
import math
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function): wrapped with a span named "<module>.<function>"
WRAPPED = (
    ("gree", "gree"),
    ("gree", "border_em"),
    ("gree", "border_x_prime"),
    ("gree", "inner_minimize"),
    ("gree", "xy_strip"),
    ("gree", "gree_symmetric"),
    ("gree", "gree_tmst"),
    ("symplectic", "elementary_transform"),
    ("symplectic", "is_symplectic"),
    ("symplectic", "williamson"),
    ("symplectic", "symplectic_eigenvalues"),
    ("gaussian", "cm_to_em"),
    ("gaussian", "em_to_cm"),
    ("gaussian", "check_physical"),
    ("gaussian", "is_separable"),
    ("gaussian", "standard_form"),
    ("relent", "relative_entropy"),
    ("descent", "descend"),
    ("descent", "descent_step"),
    ("descent", "transform_matrix"),
    ("descent", "descent_objective"),
    ("fockoracle", "fock_apply_squeeze"),
    ("fockoracle", "fock_relative_entropy"),
    ("fockoracle", "fock_thermal"),
    ("fockoracle", "fock_product"),
)
# fock_apply_squeeze gets one span name per squeeze kind
SQUEEZE_KINDS = ("two_mode", "local")
# spans whose raised exceptions are reported
RAISED = ("gree.border_x_prime", "gree.inner_minimize")
COUNTERS = (
    "gree.simplex.runs",
    "gree.simplex.nit",
    "gree.objective.evals",
    "gree.objective.inf",
    "descent.steps",
    "descent.crossings",
    "fockoracle.rho_bytes",
)
ROOT = "op"


def span_names():
    names = []
    for module, func in WRAPPED:
        if (module, func) == ("fockoracle", "fock_apply_squeeze"):
            names += ["fockoracle.fock_apply_squeeze.%s" % kind for kind in SQUEEZE_KINDS]
        else:
            names.append("%s.%s" % (module, func))
    return names


class Tracer:
    def __init__(self):
        self.names = [ROOT] + span_names()
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.last_op_s = 0.0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.raised = dict.fromkeys(RAISED, 0)

    def _open(self, name_id):
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; its duration lands in last_op_s."""
        self.op_id = op_id
        sid = self._open(self.ids[ROOT])
        try:
            yield
        finally:
            self._close(sid)
            self.last_op_s = self.end[sid] - self.start[sid]

    def _wrap(self, fn, span, post=None):
        name_id = self.ids.get(span)
        raised = span if span in self.raised else None

        def wrapper(*args, **kwargs):
            nid = name_id
            if nid is None:  # fock_apply_squeeze: the name carries the kind
                kind = kwargs["kind"] if "kind" in kwargs else args[1]
                nid = self.ids["%s.%s" % (span, kind)]
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if raised:
                    self.raised[raised] += 1
                raise
            finally:
                self._close(sid)
            if post is not None:
                post(out)
            return out

        return wrapper

    def _count_descent(self, out):
        for kind, _, _ in out[0].step_log:
            if kind == "crossing":
                self.counts["descent.crossings"] += 1
            elif kind != "align":
                self.counts["descent.steps"] += 1

    def _count_rho_bytes(self, out):
        self.counts["fockoracle.rho_bytes"] += out.rho.nbytes

    def _wrap_minimize(self, minimize):
        counts = self.counts

        def wrapper(fun, x0, *args, **kwargs):
            def counted(v, *fargs):
                value = fun(v, *fargs)
                counts["gree.objective.evals"] += 1
                if not math.isfinite(value):
                    counts["gree.objective.inf"] += 1
                return value

            res = minimize(counted, x0, *args, **kwargs)
            counts["gree.simplex.runs"] += 1
            counts["gree.simplex.nit"] += int(res.nit)
            return res

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers at every gree.* binding; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gree" or name.startswith("gree."))]
        posts = {
            "descent.descend": self._count_descent,
            "fockoracle.fock_thermal": self._count_rho_bytes,
            "fockoracle.fock_product": self._count_rho_bytes,
            "fockoracle.fock_apply_squeeze": self._count_rho_bytes,
        }
        swaps = {}
        for module, func in WRAPPED:
            original = getattr(sys.modules["gree." + module], func)
            span = "%s.%s" % (module, func)
            swaps[id(original)] = (original, self._wrap(original, span, posts.get(span)))
        gree_module = sys.modules["gree.gree"]
        minimize = gree_module.minimize
        saved = [(gree_module, "minimize", minimize)]
        gree_module.minimize = self._wrap_minimize(minimize)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, ops):
        """Per-op calls and self seconds of every span, plus the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_time, minlength=k)
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[name + ".calls"] = (calls[i] / ops, "count/op")
            out[name + ".self_s"] = (self_s[i] / ops, "s/op")
        for name, value in self.raised.items():
            out[name + ".raised"] = (value / ops, "count/op")
        c = self.counts
        for name in ("gree.simplex.runs", "gree.simplex.nit", "gree.objective.evals",
                     "descent.steps", "descent.crossings"):
            out[name] = (c[name] / ops, "count/op")
        evals = c["gree.objective.evals"]
        out["gree.objective.inf_frac"] = (c["gree.objective.inf"] / evals if evals else 0.0, "ratio")
        out["fockoracle.rho_bytes"] = (c["fockoracle.rho_bytes"] / ops, "B/op")
        root = a["name"] == self.ids[ROOT]
        out["trace.op_s"] = (float(dur[root].sum()) / ops, "s/op")
        out["trace.unwrapped_s"] = (float(self_time[root].sum()) / ops, "s/op")
        return out
