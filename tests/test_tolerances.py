"""The numeric policy lives in ``tolerances.DEFAULT`` alone: no function or
method of depca takes a tolerance set, or one of the single-valued grid,
level and verification options, as a parameter.  Plumbing that serves a
single caller counts too: no solver takes a change of basis (``transform``)
or the system it came from (``original``); a solver works on the caller's
system.  Array evaluation takes no chunk or batch size either."""

import dataclasses
import importlib
import inspect
import pkgutil

import depca
from depca.tolerances import Tolerances

KNOBS = {"tols", "grid_points", "verify_residual", "points_per_interval",
         "max_levels", "grid", "transform", "original",
         "chunk", "chunk_size", "batch", "batch_size"}


def defined_functions():
    """(qualified name, function) of every function and method defined in a
    depca module, without the generated ``__init__`` of dataclasses, whose
    parameters are report fields."""
    for info in pkgutil.iter_modules(depca.__path__):
        module = importlib.import_module(f"depca.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not inspect.isfunction(member):
                        continue
                    if name == "__init__" and dataclasses.is_dataclass(obj):
                        continue
                    yield f"{module.__name__}.{member.__qualname__}", member


def test_no_function_takes_a_numeric_option():
    functions = dict(defined_functions())
    assert {"depca.depca_engine.solve_bounded_depca",
            "depca.depca_engine.MasseraSolution.evaluate",
            "depca.signals.TrigPolynomial.cosine"} <= functions.keys()
    found = sorted((name, param) for name, fn in functions.items()
                   for param in inspect.signature(fn).parameters
                   if param in KNOBS)
    assert found == []


def test_every_tolerance_field_is_read():
    # removed fields stay removed: the singularity rules are scale-free
    # (det_threshold per factor of |det Z(u)| e^{-u Re tr A}, numerical rank
    # otherwise)
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert not {"projection_sum", "det_floor", "eigen_condition_tol"} & fields
