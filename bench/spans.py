"""Outside-in span recorder for the conemodes layers.

The benchmark wraps the public names of each package module from here, so
the program itself carries no tracing code.  A wrapper records one span
(group, start, end, parent) per call in flat in-memory lists; nothing is
written until the pass has ended.

Spans nest through one stack shared by all threads.  That is exact only
while a single thread runs package code at a time, which holds for the
benchmark's ``--jobs 1`` passes (the CLI's one-worker pool runs while the
main thread waits on it).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (span group, module, attribute, class attribute or None).  Each function
# is patched in every conemodes namespace that binds it, because modules
# import these names directly (``indicial`` binds ``oneform_system``,
# ``frobenius`` binds ``indicial_report``, ``cli`` binds the oracle ops).
# ``RadialFunction.__call__`` is deliberately absent: about a million calls
# per deform pass would make the trace measure itself.
TARGETS = (
    ("geometry.series_mul", "geometry", "LaurentSeries", "__mul__"),
    ("reduction.system_build", "reduction", "oneform_system", None),
    ("reduction.system_build", "reduction", "tensor_system", None),
    ("reduction.laurent_potential", "reduction", "ModeSystem", "laurent_potential"),
    ("reduction.potential_at", "reduction", "ModeSystem", "potential_at"),
    ("reduction.rhs", "reduction", "ModeSystem", "rhs_first_order"),
    ("reduction.apply", "reduction", "ModeSystem", "apply"),
    ("reduction.from_sympy", "reduction", "RadialProfile", "from_sympy"),
    ("indicial.report", "indicial", "indicial_report", None),
    ("indicial.table", "indicial", "root_table_rows", None),
    ("frobenius.series", "frobenius", "frobenius_series", None),
    ("frobenius.series", "frobenius", "inhomogeneous_series", None),
    ("frobenius.integrate", "frobenius", "integrate_mode_ode", None),
    ("frobenius.bvp", "frobenius", "solve_mode_bvp", None),
    ("frobenius.angle_profile", "frobenius", "angle_deformation_profile", None),
    ("oracle.identity_suite", "oracle", "identity_suite", None),
    ("oracle.field_ops", "oracle", "apply_L_coords", None),
    ("oracle.field_ops", "oracle", "apply_P_coords", None),
    ("oracle.field_ops", "oracle", "tube_inner_product", None),
    ("oracle.field_ops", "oracle", "tube_norm", None),
    ("cli.write", "cli", "RunConfig", "write_text"),
)


class Tracer:
    """Flat span store plus the values observed at a few boundaries."""

    def __init__(self):
        self.group = []
        self.start = []
        self.end = []
        self.parent = []
        self.outer = []  # False when an enclosing span has the same group
        self._stack = []
        self._depth = {}
        self.observed = {"indicial.rows": 0, "cli.bytes_written": 0,
                         "bvp": []}

    def _open(self, group):
        idx = len(self.group)
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        self.group.append(group)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(depth == 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.group[idx]] -= 1

    @contextmanager
    def span(self, group):
        idx = self._open(group)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, group, fn):
        observe = _OBSERVERS.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(group)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.observed, args, out)
            return out

        return traced

    def install(self):
        """Patch every target in every loaded conemodes namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "conemodes" or name.startswith("conemodes.")]
        for group, mod_name, attr, member in TARGETS:
            owner = sys.modules[f"conemodes.{mod_name}"]
            if member is None:
                orig = getattr(owner, attr)
                wrapped = self.wrap(group, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                continue
            cls = getattr(owner, attr)
            raw = cls.__dict__[member]
            if isinstance(raw, classmethod):
                setattr(cls, member, classmethod(self.wrap(group, raw.__func__)))
                continue
            wrapped = self.wrap(group, raw)
            # aliases such as ``__rmul__ = __mul__`` share the function
            for key, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, key, wrapped)

    def dump(self, path):
        """Write the spans as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, g in enumerate(self.group):
                fh.write(json.dumps({"name": g, "start": self.start[i],
                                     "end": self.end[i],
                                     "parent": self.parent[i]}) + "\n")


def _observe_rows(obs, args, out):
    obs["indicial.rows"] += len(out[1])


def _observe_write(obs, args, out):
    obs["cli.bytes_written"] += len(args[2].encode("utf-8"))


def _observe_bvp(obs, args, out):
    obs["bvp"].append((out.status, float(out.condition_number),
                       float(out.boundary_residual)))


_OBSERVERS = {
    "indicial.table": _observe_rows,
    "cli.write": _observe_write,
    "frobenius.bvp": _observe_bvp,
}


def summarize(tracer: Tracer) -> dict:
    """Per-group calls, inclusive seconds (outermost spans) and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    children of one parent never overlap on a single stack, so the covered
    time is the sum of their durations.
    """
    n = len(tracer.group)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    out = {}
    for i in range(n):
        g = out.setdefault(tracer.group[i], {"calls": 0, "s": 0.0, "self_s": 0.0})
        g["calls"] += 1
        g["self_s"] += dur[i] - child[i]
        if tracer.outer[i]:
            g["s"] += dur[i]
    top = 0.0
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0 and tracer.parent[p] < 0 and tracer.group[p].startswith("cli.cmd"):
            top += dur[i]
    out["_layer_top_s"] = top
    return out
