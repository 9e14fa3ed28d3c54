"""In-memory span tracer that wraps the public functions of `modnls`.

The tracer lives in the benchmark, not in the package: it replaces each
target function with a wrapper in *every* module of the package that binds
it (``lp_norm`` is imported by name into ``solver``, ``harness`` and
``cli``, ``planchon_norm`` into ``nonlinear``), and puts every binding back
when the ``installed()`` block exits. Each wrapper records one span
(name, start, end, parent) in a list; nothing is written until the caller
dumps the spans. The tracer assumes one thread, which is how the
benchmark drives the package (``--threads 1``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# (module, attribute, span name). Module helpers that run once per box or
# per sample (japanese_bracket, time_lp_norm, trapezoid_weights) are left
# out on purpose: wrapping them would multiply the span count by ~100 and
# the tracing overhead with it.
FUNCTION_TARGETS = [
    ("spectral", "lp_norm", "spectral.lp_norm"),
    ("spectral", "write_field", "spectral.write"),
    ("spectral", "write_trajectory", "spectral.write"),
    ("dispersion", "phase_table", "dispersion.phase_table"),
    ("dispersion", "propagate_trajectory", "dispersion.propagate_trajectory"),
    ("modspace", "build_partition", "modspace.build_partition"),
    ("modspace", "mod_norm", "modspace.mod_norm"),
    ("modspace", "planchon_norm", "modspace.planchon_norm"),
    ("modspace", "x_norm", "modspace.x_norm"),
    ("modspace", "x_norm_diff", "modspace.x_norm_diff"),
    ("nonlinear", "evaluate", "nonlinear.evaluate"),
    ("nonlinear", "aliasing_residual", "nonlinear.aliasing_residual"),
    ("nonlinear", "apply_to_trajectory", "nonlinear.apply_to_trajectory"),
    ("nonlinear", "power_lipschitz_witness", "nonlinear.power_lipschitz_witness"),
    ("solver", "duhamel_apply", "solver.duhamel_apply"),
    ("solver", "picard_solve", "solver.picard_solve"),
    ("solver", "split_step_oracle", "solver.split_step_oracle"),
    ("solver", "oracle_deviation", "solver.oracle_deviation"),
    ("solver", "mass", "solver.mass"),
    ("solver", "scatter_minus", "solver.scatter_minus"),
    ("solver", "wave_operator_plus", "solver.wave_operator_plus"),
    ("solver", "scattering_map", "solver.scattering_map"),
    ("solver", "delta_bisection", "solver.delta_bisection"),
    ("harness", "sample_field", "harness.sample_field"),
    ("harness", "sample_trajectory", "harness.sample_trajectory"),
    ("harness", "duhamel_integral", "harness.duhamel_integral"),
    ("harness", "check_homogeneous_strichartz", "harness.check.homogeneous_strichartz"),
    ("harness", "check_inhomogeneous_strichartz", "harness.check.inhomogeneous_strichartz"),
    ("harness", "check_hoelder_like", "harness.check.hoelder_like"),
    ("harness", "check_power_lipschitz", "harness.check.power_lipschitz"),
    ("harness", "check_embeddings", "harness.check.embeddings"),
    ("cli", "main", "cli.main"),
]

TRANSFORM = "spectral.transform"

# Norms whose fast path is checked against method="reference": the first
# and every SAMPLE_EVERY-th call of each, at most SAMPLE_CAP per norm, are
# kept as (name, function, args, kwargs) in Tracer.samples.
REFERENCE_CHECKED = ("modspace.mod_norm", "modspace.planchon_norm",
                     "modspace.x_norm", "modspace.x_norm_diff")
SAMPLE_EVERY = 25
SAMPLE_CAP = 2
PACKAGE = "modnls"


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, raised]
        self.counters: dict[str, float] = {}
        self.samples: list[tuple] = []
        self._stack: list[int] = []
        self._calls: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, False])
        self._stack.append(sid)
        try:
            yield
        except BaseException:
            self.spans[sid][4] = True
            raise
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        tracer = self
        checked = name in REFERENCE_CHECKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if checked:
                n = tracer._calls.get(name, 0)
                tracer._calls[name] = n + 1
                if n % SAMPLE_EVERY == 0 and n // SAMPLE_EVERY < SAMPLE_CAP:
                    tracer.samples.append((name, fn, args, kwargs))
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "spectral.write":
                path = kwargs.get("path", args[0] if args else None)
                tracer.count("spectral.write.bytes", os.path.getsize(path))
            return result

        return wrapper

    def _wrap_lazy_view(self, prop: property, slot: str):
        """SpectralField.values / .spectrum: a span only when the cached
        view is missing, i.e. when the access runs a transform."""
        tracer = self
        getter = prop.fget

        def traced(obj):
            if getattr(obj, slot, None) is not None:
                return getter(obj)
            with tracer.span(TRANSFORM):
                out = getter(obj)
            tracer.count("spectral.transform.bytes", obj.grid.size * 16 * 2)
            return out

        return property(traced, doc=prop.__doc__)

    def _wrap_method_transform(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            with tracer.span(TRANSFORM):
                out = fn(obj, *args, **kwargs)
            tracer.count("spectral.transform.bytes", obj.grid.size * 16 * 2)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for home, attr, name in FUNCTION_TARGETS:
            original = getattr(by_name[home], attr)
            wrapper = self._wrap_function(original, name)
            for mod in modules:  # every binding, not just the home module
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        field_cls = by_name["spectral"].SpectralField
        for attr in ("values", "spectrum"):
            self._patch(field_cls, attr,
                        self._wrap_lazy_view(field_cls.__dict__[attr], "_" + attr))
        traj_cls = by_name["spectral"].Trajectory
        self._patch(traj_cls, "values", self._wrap_method_transform(traj_cls.__dict__["values"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[sid]
            if not self.has_ancestor(sid, name):
                row["s"] += end - start
        return out

    def has_ancestor(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def descendants(self, sid: int, name: str) -> list[int]:
        """Descendant spans of `sid` called `name`, in start order."""
        out = []
        end = self.spans[sid][2]
        for cid in range(sid + 1, len(self.spans)):
            if self.spans[cid][1] > end:
                break  # spans are stored in start order
            parent = self.spans[cid][3]
            while parent > sid:
                parent = self.spans[parent][3]
            if parent == sid and self.spans[cid][0] == name:
                out.append(cid)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "raised": r}
                for i, (n, s, e, p, r) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": self.counters}, fh)
