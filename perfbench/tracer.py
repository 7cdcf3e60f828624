"""Outside-in layer tracer: wraps depca's public functions without editing it.

Each wrapped call records a span (name, start, end, parent, op id) in flat
arrays and adds its duration minus its children's to the name's self time.
A function imported by name into another module (``expm`` inside
``depca_engine``, ``solve_bounded_depca`` inside ``cli``) is rebound there
too, so every call site goes through the wrapper.  ``uninstall`` restores
every original object.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function; "Class.method" for methods.
TRACED = {
    "matrix_core": ("expm", "expm_integral", "eigenvalues", "spectral_split",
                    "check_eigenvalue_condition", "simultaneous_triangularize"),
    "depca_engine": ("propagator", "adaptive_gl", "interval_forcing",
                     "forcing_integral", "reduce_to_difference",
                     "check_propagator_invertibility", "ode_residual_check",
                     "solve_bounded_depca", "massera_solve", "imaginary_scalar_solve",
                     "HybridTrajectory.evaluate", "HybridTrajectory.evaluate_grid",
                     "MasseraSolution.evaluate"),
    "difference_engine": ("certify_constant", "solve_bounded", "verify_certificate",
                          "truncation_radius", "recursion_residual",
                          "GreenFunction.__call__"),
    "reduction": ("build_cascade", "solve_scalar_depca", "solve_by_reduction"),
    "signals": ("integral_primitive_bounded",),
    "diagnostics": ("periodicity_check", "almost_period_scan"),
    "cli": ("main", "run", "parse_config", "write_trajectory_csv"),
}

_SYSTEM_CACHES = ("_prop_cache", "_int_cache", "_exp_cache", "_trig_kernel_cache",
                  "_resolvent_cache")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.failures: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.grid_points = 0
        self.propagator_hits = 0
        self.radius_max = 0
        self.cache_entries_max = 0
        self.op_id = -1
        self.enabled = False
        self._op_nid = self._name_id("bench.op")
        self._stack: list[list] = []
        self._systems: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.failures.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _enter(self, nid: int) -> list:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        start = perf_counter()
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        frame = [idx, start, 0.0, nid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        idx, start, children, nid = frame
        self.span_end[idx] = end
        duration = end - start
        self.self_s[nid] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[nid] += 1
            state = before(args) if before else None
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failures[nid] += 1
                raise
            finally:
                self._exit(frame)
            if after:
                after(state, args, result)
            return result
        return wrapper

    # -- per-function counters ------------------------------------------------

    def _propagator_before(self, args):
        return len(args[0]._prop_cache)

    def _propagator_after(self, size, args, result):
        if len(args[0]._prop_cache) == size:
            self.propagator_hits += 1

    def _grid_before(self, args):
        self.grid_points += int(np.asarray(args[1]).size)

    def _radius_after(self, state, args, result):
        self.radius_max = max(self.radius_max, int(result))

    # -- install / uninstall ----------------------------------------------------

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "depca" or mod_name.startswith("depca.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import depca  # noqa: F401  (loads every module that gets rebound)
        from depca import depca_engine, signals

        hooks = {
            "depca_engine.propagator": (self._propagator_before, self._propagator_after),
            "depca_engine.HybridTrajectory.evaluate_grid": (self._grid_before, None),
            "difference_engine.truncation_radius": (None, self._radius_after),
        }
        for mod_name, attrs in TRACED.items():
            mod = sys.modules[f"depca.{mod_name}"]
            for attr in attrs:
                before, after = hooks.get(f"{mod_name}.{attr}", (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    span = f"{mod_name}.{cls_name}" if meth == "__call__" else f"{mod_name}.{attr}"
                    self._patch_class(cls, meth, span, before, after)
                else:
                    original = getattr(mod, attr)
                    self._rebind_everywhere(
                        original, self._wrap(original, f"{mod_name}.{attr}", before, after))
        for cls in vars(signals).values():
            if (isinstance(cls, type) and issubclass(cls, signals.Signal)
                    and cls is not signals.Signal and "evaluate" in vars(cls)):
                self._patch_class(cls, "evaluate", f"signals.{cls.__name__}.evaluate")

        system_cls = depca_engine.DepcaSystem
        original_init = system_cls.__init__

        @functools.wraps(original_init)
        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            if self.enabled:
                self._systems.append(obj)
        self._restore.append((system_cls, "__init__", original_init))
        system_cls.__init__ = init

    def _patch_class(self, cls, meth, span, before=None, after=None):
        original = vars(cls)[meth]
        self._restore.append((cls, meth, original))
        setattr(cls, meth, self._wrap(original, span, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.enabled = False

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Trace from here to ``end_op``; calls outside an op are not traced."""
        self.op_id = op_id
        self._systems.clear()
        self.enabled = True
        self._op_frame = self._enter(self._op_nid)

    def watch(self, system) -> None:
        """Count the caches of a system built before the op began."""
        self._systems.append(system)

    def end_op(self) -> None:
        self._exit(self._op_frame)
        self.enabled = False
        entries = sum(len(getattr(s, c)) for s in self._systems for c in _SYSTEM_CACHES)
        self.cache_entries_max = max(self.cache_entries_max, entries)
        self._systems.clear()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "failures": 0})
            row["calls"] += self.calls[nid]
            row["self_s"] += self.self_s[nid]
            row["failures"] += self.failures[nid]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json."""
        t = self.totals()
        out: dict[str, float] = {}
        for name, row in t.items():
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
            out[f"{name}.failures"] = row["failures"]
        out["signals.evaluate.calls"] = sum(
            row["calls"] for name, row in t.items()
            if name.startswith("signals.") and name.endswith(".evaluate"))
        prop_calls = t["depca_engine.propagator"]["calls"]
        out["depca_engine.propagator.hit_ratio"] = (
            self.propagator_hits / prop_calls if prop_calls else 0.0)
        out["depca_engine.HybridTrajectory.evaluate_grid.points"] = self.grid_points
        out["difference_engine.truncation_radius.max"] = self.radius_max
        out["depca_engine.cache_entries"] = self.cache_entries_max
        return out

    def dump(self, path: Path) -> None:
        """Write every span and the per-name totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, np.int32),
            op=np.frombuffer(self.span_op, np.int32))
        path.with_suffix(".json").write_text(json.dumps(self.totals(), indent=1))
