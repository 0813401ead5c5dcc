"""Span tracer for the traced pass: wraps the calls into each fwlab module.

Nothing under ``src/`` knows about it.  Each probe replaces one function or
method with a wrapper that records a span: layer (the module name), op,
parent span, start and end.  A module-level function is replaced in every
fwlab module that holds it, because callers bind names at import time:
``cli`` binds ``run_strong``, ``run_fv`` and the wave functions, and
``shock.viscosity_sweep`` calls ``shock.run_fv``.  Methods are replaced on
their class, where every instance looks them up.

A call into the same (layer, op) as the innermost open span on its thread is
absorbed into that span, so one kernel solve counts once although, on the
line, ``conv_Kprime_values`` calls ``conv_K_values``.  Work submitted to the
sweep's thread pool is parented to the span that submitted it.

The self time of a span is its interval minus the union of its children's
intervals.  The self time of a layer or an op is the measure of the union of
its spans' self intervals, so two pool threads busy in the same layer at the
same moment count that moment once, and every layer stays within wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "grid", "kernels", "strong", "shock", "trajectory",
          "diagnostics", "waves")

# grid sizes whose per-solve time is reported; the presets solve at these n
SOLVE_SIZES = (2000, 4000, 8000, 20480)

# (module, attribute, op); the module is the layer
PROBES = (
    ("cli", "main", "main"),
    ("cli", "cmd_simulate", "command"),
    ("cli", "cmd_breaking", "command"),
    ("cli", "cmd_verify", "command"),
    ("cli", "cmd_wave", "command"),
    ("cli", "cmd_sweep", "command"),
    ("grid", "sample", "sample"),
    ("grid", "write_snapshot_csv", "csv"),
    ("kernels", "KernelOp.__init__", "factor"),
    ("kernels", "KernelOp.conv_K_values", "solve"),
    ("kernels", "KernelOp.conv_Kprime_values", "solve"),
    ("strong", "run_strong", "run"),
    ("shock", "run_fv", "run"),
    ("shock", "viscosity_sweep", "sweep"),
    ("trajectory", "_Recorder.record", "record"),
    ("trajectory", "_Recorder.force_snapshot", "snapshot"),
    ("trajectory", "_Recorder.build", "build"),
    ("trajectory", "write_series_csv", "csv"),
    ("diagnostics", "slope_extrema_values", "slope"),
    ("diagnostics", "slope_extrema", "slope"),
    ("diagnostics", "weak_residual", "weak"),
    ("diagnostics", "kruzhkov_residual", "kruzhkov"),
    ("diagnostics", "breaking_precheck", "checks"),
    ("diagnostics", "attach_observation", "checks"),
    ("diagnostics", "envelope_check", "checks"),
    ("diagnostics", "l1_stability_check", "checks"),
    ("diagnostics", "conservation_report", "checks"),
    ("diagnostics", "entropy_report", "checks"),
    ("diagnostics", "oleinik_check", "checks"),
    ("diagnostics", "make_test_family", "checks"),
    ("waves", "peakon", "scan"),
    ("waves", "residual_scan", "scan"),
    ("waves", "tw_first_integral", "scan"),
    ("waves", "cusp_profile", "cusp"),
    ("waves", "measured_cusp_jump", "cusp"),
    ("waves", "tw_defect", "defect"),
)


class Span(NamedTuple):
    sid: int
    parent: int | None
    layer: str
    op: str
    t0: float
    t1: float
    tag: tuple | None  # (n, periodic) of the operator, for kernel spans


def solve_bytes(n: int, periodic: bool) -> int:
    """Computed bytes one kernel solve moves, ignoring caches and copies.

    Line: the banded forward and back substitutions each stream the 2 x n
    Cholesky factor and read and write the right-hand side (4 n doubles per
    sweep).  Torus: rfft and irfft each read and write n reals, and the
    multiplier pass reads the spectrum and the multipliers and writes the
    spectrum (2 n doubles).
    """
    return 8 * (8 * n if not periodic else 6 * n)


def _steps(counts, arguments, result, layer):
    counts[f"{layer}.steps"] += result.times.size - 1


def _snapshot_bytes(counts, arguments, result, layer):
    counts["trajectory.snapshot_bytes"] += sum(s.nbytes
                                               for s in result.snapshots)


def _quadrature_pairs(counts, arguments, result, layer):
    n_lambda = np.atleast_1d(arguments["lambdas"]).size
    counts["diagnostics.quadrature_pairs"] += n_lambda * len(arguments["family"])


# counters read from a probed call's arguments and result
HOOKS = {
    ("strong", "run"): _steps,
    ("shock", "run"): _steps,
    ("trajectory", "build"): _snapshot_bytes,
    ("diagnostics", "kruzhkov"): _quadrature_pairs,
}


def _fwlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "fwlab" or name.startswith("fwlab.")]


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # installation ---------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("fwlab.cli")  # loads every fwlab module
        for module_name, attr, op in PROBES:
            module = sys.modules[f"fwlab.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, module_name, op))
            else:
                original = getattr(module, attr)
                self._replace(original, self._wrap(original, module_name, op))
        tracer = self

        class ParentingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt(fn), *args, **kwargs)

        self._replace(ThreadPoolExecutor, ParentingPool)

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def _set(self, target, name, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _replace(self, original, replacement) -> None:
        for module in _fwlab_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    # spans ------------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _adopt(self, fn):
        """fn run on a pool thread, parented to the submitting span."""
        stack = self._stack()
        parent = stack[-1:]

        def adopted(*args, **kwargs):
            own = self._stack()
            saved = own[:]
            own[:] = parent
            try:
                return fn(*args, **kwargs)
            finally:
                own[:] = saved
        return adopted

    def _wrap(self, fn, layer: str, op: str):
        hook = HOOKS.get((layer, op))
        signature = inspect.signature(fn) if hook else None
        tagged = op == "solve"
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack = self._stack()
            top = stack[-1] if stack else None
            if top is not None and top[1] == layer and top[2] == op:
                return fn(*args, **kwargs)
            sid = next(ids)
            stack.append((sid, layer, op))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tag = (args[0].n, args[0].domain.periodic) if tagged else None
                spans.append(Span(sid, top[0] if top else None, layer, op,
                                  t0, t1, tag))
            if hook is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                with self._lock:
                    hook(self.counts, arguments, result, layer)
            return result
        return probe

    # summary --------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced pass, whose wall time is wall_s."""
        children = collections.defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.t0, s.t1))
        own = {s.sid: subtract((s.t0, s.t1), children[s.sid])
               for s in self.spans}

        def busy(keep) -> float:
            return measure([iv for s in self.spans if keep(s)
                            for iv in own[s.sid]])

        def calls(layer, op) -> int:
            return sum(1 for s in self.spans if (s.layer, s.op) == (layer, op))

        def op_s(layer, op) -> float:
            return busy(lambda s: (s.layer, s.op) == (layer, op))

        m = {}
        for layer in LAYERS:
            self_s = busy(lambda s: s.layer == layer)
            m[f"{layer}.self_s"] = self_s
            m[f"{layer}.share_pct"] = 100.0 * self_s / wall_s
        solves = [s for s in self.spans if s.op == "solve"]
        m["kernels.solve_calls"] = len(solves)
        m["kernels.solve_s"] = op_s("kernels", "solve")
        for n in SOLVE_SIZES:
            at_n = [s.t1 - s.t0 for s in solves if s.tag[0] == n]
            m[f"kernels.solve_us.n{n}"] = (1e6 * sum(at_n) / len(at_n)
                                           if at_n else 0.0)
        m["kernels.solve_bytes"] = sum(solve_bytes(*s.tag) for s in solves)
        m["kernels.factor_calls"] = calls("kernels", "factor")
        m["kernels.factor_s"] = op_s("kernels", "factor")
        for layer in ("strong", "shock"):
            m[f"{layer}.runs"] = calls(layer, "run")
            m[f"{layer}.steps"] = self.counts[f"{layer}.steps"]
        m["trajectory.record_calls"] = calls("trajectory", "record")
        m["trajectory.record_s"] = op_s("trajectory", "record")
        m["trajectory.csv_s"] = op_s("trajectory", "csv")
        m["trajectory.snapshot_bytes"] = self.counts["trajectory.snapshot_bytes"]
        m["diagnostics.slope_calls"] = calls("diagnostics", "slope")
        for op in ("slope", "weak", "kruzhkov", "checks"):
            m[f"diagnostics.{op}_s"] = op_s("diagnostics", op)
        m["diagnostics.quadrature_pairs"] = \
            self.counts["diagnostics.quadrature_pairs"]
        for op in ("scan", "cusp", "defect"):
            m[f"waves.{op}_s"] = op_s("waves", op)
        m["grid.csv_s"] = op_s("grid", "csv")
        m["trace.spans"] = len(self.spans)
        return m


def subtract(interval, cuts) -> list:
    """interval minus the union of the intervals in cuts."""
    lo, hi = interval
    out = []
    for a, b in merge(cuts):
        if b <= lo or a >= hi:
            continue
        if a > lo:
            out.append((lo, a))
        lo = max(lo, b)
    if lo < hi:
        out.append((lo, hi))
    return out


def merge(intervals) -> list:
    """Union of intervals as a sorted list of disjoint intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def measure(intervals) -> float:
    return sum((b - a for a, b in merge(intervals)), 0.0)
