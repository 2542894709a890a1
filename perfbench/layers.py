"""Per-layer counts and times for traced runs, recorded by wrapping the
package's functions from outside.

Callers bind some names at import (``solver`` does ``from .matpoly import
proper_values``), so each function is replaced at every module that looks it
up, and active() refuses to run if a name no longer refers to the expected
function.  numpy.linalg.eig is wrapped only as ``matpoly`` sees it, through
a stand-in for matpoly's ``np``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# span name -> modules (under structured_iep) whose attribute of that name is replaced
SITES = {
    "solver.continuation_solve": ("solver", "cli", ""),
    "solver.newton_solve": ("solver", ""),
    "solver.spectral_map": ("solver", ""),
    "solver.assemble": ("solver", "cli", ""),
    "solver.match_targets": ("solver", ""),
    "matpoly.proper_values": ("matpoly", "solver", "sensitivity", "cli", ""),
    "matpoly.linearize": ("matpoly", ""),
    "matpoly.evaluate": ("matpoly", "sensitivity", ""),
    "sensitivity.jacobian_x": ("sensitivity", "solver", "cli", ""),
    "seed.seed_coefficients": ("seed", "solver", ""),
    "graphs.matrix_of_graph": ("graphs", "solver", ""),
    "problems.load_problem": ("problems", "cli"),
}

COUNTS = (
    "solver.continuation_solve.calls",
    "solver.newton_solve.calls", "solver.newton_solve.kept", "solver.newton_solve.discarded",
    "solver.trials", "solver.trials.rejected", "solver.trials.nonreal",
    "solver.newton.accepted_steps",
    "solver.assemble.calls", "solver.match_targets.calls", "solver.match_targets.fallback",
    "matpoly.proper_values.calls", "matpoly.eig.calls", "matpoly.evaluate.calls",
    "sensitivity.jacobian_x.calls", "seed.seed_coefficients.calls", "graphs.matrix_of_graph.calls",
)
SECONDS = (
    "solver.newton_solve.self_s", "solver.assemble.s",
    "matpoly.proper_values.s", "matpoly.proper_values.self_s", "matpoly.linearize.s", "matpoly.eig.s",
    "sensitivity.jacobian_x.s", "seed.seed_coefficients.s", "graphs.matrix_of_graph.s",
    "problems.load_problem.s", "cli.import_s", "cli.main.s",
)


def _module(short):
    return sys.modules["structured_iep" + ("." + short if short else "")]


class _Proxy:
    """Attribute stand-in: the overrides first, then the wrapped object."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.paused = False
        self._spans = []  # per open span: seconds spent in traced children
        self._newton = []  # per open newton_solve: has its first spectral_map run?

    def _span(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if before:
                before()
            self._spans.append(0.0)
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                children = self._spans.pop()
                self.total[name] += dt
                self.own[name] += dt - children
                if self._spans:
                    self._spans[-1] += dt
                if after:
                    after(result, exc)
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _newton_enter(self):
        self._newton.append(False)

    def _newton_exit(self, result, exc):
        self._newton.pop()

    def _continuation_exit(self, report, exc):
        if report is not None and report.converged:
            self.calls["solver.newton_solve.kept"] += len(report.continuation_path)

    def _match_exit(self, result, exc):
        if result is not None and result[1]:
            self.calls["solver.match_targets.fallback"] += 1

    # -- install -------------------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        """Replace the package's functions by traced ones; restore on exit."""
        import numpy as np
        from structured_iep import errors, matpoly, solver

        hooks = {
            "solver.newton_solve": (self._newton_enter, self._newton_exit),
            "solver.continuation_solve": (None, self._continuation_exit),
            "solver.match_targets": (None, self._match_exit),
        }
        saved = []

        def replace(module, attr, expected, new):
            if getattr(module, attr, None) is not expected:
                raise RuntimeError(f"{module.__name__}.{attr} is not the traced function any more")
            saved.append((module, attr, expected))
            setattr(module, attr, new)

        def spectral_map(fn):
            traced = self._span("solver.spectral_map", fn)

            def wrapper(*args, **kwargs):
                trial = not self.paused and bool(self._newton) and self._newton[-1]
                if not self.paused and self._newton:
                    self._newton[-1] = True
                if trial:
                    self.calls["solver.trials"] += 1
                try:
                    return traced(*args, **kwargs)
                except errors.NonRealSpectrum:
                    if trial:
                        self.calls["solver.trials.nonreal"] += 1
                    raise
            return wrapper

        def iteration_record(cls):
            def record(iteration, *args, **kwargs):
                if not self.paused and iteration >= 1:
                    self.calls["solver.newton.accepted_steps"] += 1
                return cls(iteration, *args, **kwargs)
            return record

        try:
            for name, modules in SITES.items():
                layer, attr = name.split(".")
                original = getattr(_module(layer), attr)
                if name == "solver.spectral_map":
                    new = spectral_map(original)
                else:
                    before, after = hooks.get(name, (None, None))
                    new = self._span(name, original, before, after)
                for short in modules:
                    if ("structured_iep." + short if short else "structured_iep") in sys.modules:
                        replace(_module(short), attr, original, new)
            replace(solver, "IterationRecord", solver.IterationRecord,
                    iteration_record(solver.IterationRecord))
            eig = self._span("matpoly.eig", np.linalg.eig)
            replace(matpoly, "np", np, _Proxy(np, linalg=_Proxy(np.linalg, eig=eig)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def record(self) -> dict:
        """Counts and raw seconds under the names of COUNTS and SECONDS (the
        cli.* times are measured by cli_child.py)."""
        out = {name: self.calls[name.removesuffix(".calls")] for name in COUNTS}
        out["solver.newton_solve.discarded"] = out["solver.newton_solve.calls"] - out["solver.newton_solve.kept"]
        out["solver.trials.rejected"] = out["solver.trials"] - out["solver.newton.accepted_steps"]
        for name in SECONDS:
            if name.endswith(".self_s"):
                out[name] = self.own[name.removesuffix(".self_s")]
            elif name.endswith(".s"):
                out[name] = self.total[name.removesuffix(".s")]
        return out
