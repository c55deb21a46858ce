"""Outside-in tracing of gcquant: spans around calls into each layer.

The layers are the modules cli, lab, flow, toric, polytope and flag.
`Tracer.installed()` replaces each function in TARGETS by a timing wrapper at
every name a caller resolves: module-level functions in the defining module
and in every gcquant module that imported them by name (`lab` and `cli` do),
methods on their class so that internal `self.` calls are caught too.  The
library itself is not edited, and the originals are restored on exit.

Spans are folded into totals as they close rather than kept in a list; with
about 10^5 spans per `lab combined` pass the totals are all the metrics need.
The tracer's own bookkeeping (counters, array digests for the useful-work
ratios) is timed and left out of every span, so it shows only as overhead of
the traced pass against an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "lab", "flow", "toric", "polytope", "flag")
QUADRATURE = ("lab.outside_mass", "lab.concentration_sup", "lab.delta_pairing")
G_CAN = ("toric.g_can_grad", "toric.g_can_hess")


def _batch(x) -> int:
    """Number of points in an array whose last axis holds coordinates."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _digest(x) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16).digest()


# -- counters: (tracer, span, seconds, args, kwargs, result) ---------------------


def _count_state_points(tr, span, dt, args, kwargs, result):
    tr.counts[span + ".points"] += int(np.prod(args[1].batch_shape))


def _count_flow(tr, span, dt, args, kwargs, result):
    state = args[1]
    tau = abs(float(args[2] if len(args) > 2 else kwargs["tau"]))
    n = int(np.prod(state.batch_shape))
    tr.counts["flow.flow.steps"] += result.steps
    tr.counts["flow.flow.point_steps"] += result.steps * n
    tr.batch_s["flow.flow.batch1.s" if n == 1 else "flow.flow.batchN.s"] += dt
    # useful work: each distinct start point needs only its longest flow
    starts = np.concatenate([state.u, state.w, state.t[..., None]], axis=-1).reshape(-1, 7)
    for row in starts:
        key = row.tobytes()
        tr.flow_tau[key] = max(tr.flow_tau.get(key, 0.0), tau)
    tr.flow_tau_total += tau * n


def _count_points(tr, span, dt, args, kwargs, result):
    tr.counts[span + ".points"] += _batch(args[1])


def _count_density(tr, span, dt, args, kwargs, result):
    pot, m, x = args[:3]
    tr.counts[span + ".points"] += _batch(x)
    tr.distinct[span].add((repr(pot.polytope), float(pot.s), tuple(np.ravel(m)), _digest(x)))


def _count_grid(tr, span, dt, args, kwargs, result):
    P = args[0]
    per_axis = args[1] if len(args) > 1 else kwargs["per_axis"]
    tr.counts[span + ".points"] += len(result[0])
    tr.distinct[span].add((repr(P), int(per_axis)))


def _count_lattice(tr, span, dt, args, kwargs, result):
    tr.counts[span + ".points"] += len(result)


# (module, attribute, counter); the span is named "<module>.<function>" and
# belongs to the layer <module>.
TARGETS = (
    ("cli", "main", None),
    ("lab", "combined_experiment", None),
    ("lab", "gc_vs_torus_moment_check", None),
    ("lab", "outside_mass", None),
    ("lab", "concentration_sup", None),
    ("lab", "delta_pairing", None),
    ("lab", "decay_slope", None),
    ("lab", "GCTorusModel.slice_point", _count_points),
    ("lab", "GCTorusModel.v0_state", None),
    ("lab", "GCTorusModel.lifts", None),
    ("flow", "DegenerationFamily.flow", _count_flow),
    ("flow", "DegenerationFamily.z_field", _count_state_points),
    ("flow", "DegenerationFamily.retract", None),
    ("flow", "DegenerationFamily.embed_flag", None),
    ("flow", "DegenerationFamily.moment", None),
    ("toric", "section_log_density", _count_density),
    ("toric", "polytope_grid", _count_grid),
    ("toric", "g_can_value", None),
    ("toric", "g_can_grad", None),
    ("toric", "g_can_hess", None),
    ("polytope", "DelzantPolytope.support_values", _count_points),
    ("polytope", "DelzantPolytope.contains", None),
    ("polytope", "DelzantPolytope.bounding_box", None),
    ("polytope", "DelzantPolytope.lattice_points", _count_lattice),
    ("polytope", "gc_polytope", None),
    ("polytope", "ambient_polytope", None),
    ("polytope", "box_polytope", None),
    ("polytope", "weyl_dim", None),
    ("flag", "gc_map", None),
    ("flag", "random_flags", None),
    ("flag", "pluecker_levels", None),
)


class Tracer:
    """Span totals and work counters of the passes run while installed."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)        # outermost spans of each name
        self.layer_self_s = defaultdict(float)
        self.layer_incl_s = defaultdict(float)  # outermost spans of each layer
        self.counts = Counter()
        self.batch_s = defaultdict(float)       # flow time by batch size, 1 or more
        self.errors = Counter()                 # (span, exception class name)
        self.distinct = defaultdict(set)
        self.flow_tau = {}                      # start point -> longest |tau|
        self.flow_tau_total = 0.0               # sum over calls and points of |tau|
        self._children = []                     # child time of each open span
        self._open_names = Counter()
        self._open_layers = Counter()
        self._bookkeeping = 0.0

    # -- spans -------------------------------------------------------------

    def _close(self, span, layer, dt, child):
        own = dt - child
        self.calls[span] += 1
        self.self_s[span] += own
        self.layer_self_s[layer] += own
        self._open_names[span] -= 1
        if not self._open_names[span]:
            self.incl_s[span] += dt
        self._open_layers[layer] -= 1
        if not self._open_layers[layer]:
            self.layer_incl_s[layer] += dt
        if self._children:
            self._children[-1] += dt

    def wrap(self, fn, span, layer, counter):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            tracer._open_names[span] += 1
            tracer._open_layers[layer] += 1
            book0 = tracer._bookkeeping
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer.errors[(span, type(e).__name__)] += 1
                raise
            finally:
                dt = clock() - t0 - (tracer._bookkeeping - book0)
                tracer._close(span, layer, dt, tracer._children.pop())
            if counter is not None:
                c0 = clock()
                counter(tracer, span, dt, args, kwargs, result)
                tracer._bookkeeping += clock() - c0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gcquant" or k.startswith("gcquant."))]
        undo = []
        try:
            for module, attr, counter in TARGETS:
                mod = sys.modules[f"gcquant.{module}"]
                span = f"{module}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(orig, span, module, counter))
                    continue
                orig = getattr(mod, attr)
                traced = self.wrap(orig, span, module, counter)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            undo.append((m, name, orig))
                            setattr(m, name, traced)
            yield self
        finally:
            for owner, name, orig in reversed(undo):
                setattr(owner, name, orig)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the passes since the last reset."""
        c, calls = self.counts, self.calls
        out = {}
        for span in ("flow.z_field", "flow.retract", "flow.flow"):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out["flow.z_field.points"] = c["flow.z_field.points"]
        out["flow.flow.steps"] = c["flow.flow.steps"]
        out["flow.flow.point_steps"] = c["flow.flow.point_steps"]
        out["flow.flow.batch1.s"] = self.batch_s["flow.flow.batch1.s"]
        out["flow.flow.batchN.s"] = self.batch_s["flow.flow.batchN.s"]
        out["flow.flow.useful_ratio"] = (sum(self.flow_tau.values()) / self.flow_tau_total
                                         if self.flow_tau_total else 0.0)
        out["flow.flow.singular"] = self.errors[("flow.flow", "FlowSingularityError")]
        out["lab.slice_point.calls"] = calls["lab.slice_point"]
        out["lab.slice_point.points"] = c["lab.slice_point.points"]
        out["lab.slice_point.s"] = self.incl_s["lab.slice_point"]
        out["lab.quadrature.calls"] = sum(calls[s] for s in QUADRATURE)
        out["lab.quadrature.s"] = sum(self.incl_s[s] for s in QUADRATURE)
        for span in ("toric.section_log_density", "toric.polytope_grid"):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.points"] = c[f"{span}.points"]
            out[f"{span}.self_s"] = self.self_s[span]
            out[f"{span}.useful_ratio"] = (len(self.distinct[span]) / calls[span]
                                           if calls[span] else 0.0)
        out["toric.g_can.calls"] = sum(calls[s] for s in G_CAN)
        out["toric.g_can.self_s"] = sum(self.self_s[s] for s in G_CAN)
        out["polytope.support_values.calls"] = calls["polytope.support_values"]
        out["polytope.support_values.points"] = c["polytope.support_values.points"]
        out["polytope.support_values.self_s"] = self.self_s["polytope.support_values"]
        out["polytope.lattice_points.points"] = c["polytope.lattice_points.points"]
        out["polytope.lattice_points.s"] = self.incl_s["polytope.lattice_points"]
        out["flag.gc_map.calls"] = calls["flag.gc_map"]
        for layer in LAYERS:
            out[f"{layer}.s"] = self.layer_incl_s[layer]
            out[f"{layer}.self_s"] = self.layer_self_s[layer]
        return out
