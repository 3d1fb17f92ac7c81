"""Per-layer tracing of galmag, installed from outside the package.

Every public function of the five modules is replaced by a timing wrapper
on every module that binds it: ``galmag.cli`` imports names from
``magnetic`` and ``oracle``, and ``frenet``/``magnetic`` import
``norm``/``cross``, so patching only the defining module would miss
calls.  ``ClosedFormCurve.eval`` and ``QuadSinusoid.eval`` are patched on
their classes.

Spans are aggregated in memory per name: call count, total time, self
time (the span's duration minus the time its wrapped child calls cover),
exceptions raised, and a per-name unit count (evaluated points, RK4
steps, compared grid points).  Wrapper overhead lands in the caller's self
time; ``trace.overhead_frac`` in the run states how large it is.
"""

from __future__ import annotations

import importlib
import types
from time import perf_counter

import numpy as np

LAYERS = ("cli", "magnetic", "oracle", "frenet", "galilean")
_EVAL_METHODS = (("magnetic", "ClosedFormCurve"), ("magnetic", "QuadSinusoid"))


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.units = 0


def _eval_points(args, result, parent):
    # A component evaluation inside ClosedFormCurve.eval is the same point.
    if parent == "magnetic.ClosedFormCurve.eval":
        return 0
    return int(np.size(args[1]))


_UNITS = {
    "magnetic.ClosedFormCurve.eval": _eval_points,
    "magnetic.QuadSinusoid.eval": _eval_points,
    "oracle.integrate": lambda args, result, parent: len(result.grid) - 1,
    "oracle.max_deviation": lambda args, result, parent: len(args[1].grid),
}


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        units = _UNITS.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if units is not None:
                stat.units += units(args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = {layer: importlib.import_module(f"galmag.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        bound = [importlib.import_module("galmag"), *modules.values()]
        for mod in bound:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)].__wrapped__ is value:
                    self._patch(mod, attr, wrappers[id(value)])
        for layer, cls_name in _EVAL_METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "eval", self._wrap(f"{layer}.{cls_name}.eval", cls.eval))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def stat(self, *names) -> Stat:
        """Sum of the stats of the given span names."""
        out = Stat()
        for name in names:
            s = self.stats.get(name)
            if s is None:
                continue
            out.calls += s.calls
            out.total += s.total
            out.self_time += s.self_time
            out.errors += s.errors
            out.units += s.units
        return out


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, rows: int, bytes_written: int, exits: dict[int, int]):
    """Per-layer metrics as {name: (value, unit)}."""
    main = tr.stat("cli.main")
    solve = tr.stat("magnetic.solve_magnetic", "magnetic.solve_n_magnetic")
    ev = tr.stat("magnetic.ClosedFormCurve.eval", "magnetic.QuadSinusoid.eval")
    rhs = tr.stat("magnetic.magnetic_rhs", "magnetic.n_magnetic_rhs", "magnetic.b_magnetic_rhs")
    res = tr.stat("magnetic.lorentz_residual", "magnetic.n_magnetic_residual",
                  "magnetic.lorentz_force")
    res_calls = tr.stat("magnetic.lorentz_residual", "magnetic.n_magnetic_residual").calls
    integ = tr.stat("oracle.integrate")
    maxdev = tr.stat("oracle.max_deviation")
    frame = tr.stat("frenet.frenet_frame")
    inv = tr.stat("frenet.curvature", "frenet.torsion")
    gal = tr.stat("galilean.cross", "galilean.norm", "galilean.scalar_product")
    return {
        "cli.main.calls": (main.calls, "count"),
        "cli.self_s": (main.self_time, "s"),
        "cli.self_us_per_row": (_ratio(main.self_time, rows, 1e6), "us"),
        "cli.bytes_written": (bytes_written, "B"),
        "cli.exit_1": (exits.get(1, 0), "count"),
        "cli.exit_2": (exits.get(2, 0), "count"),
        "magnetic.solve.calls": (solve.calls, "count"),
        "magnetic.solve.rejected": (solve.errors, "count"),
        "magnetic.solve.s": (solve.total, "s"),
        "magnetic.eval.points": (ev.units, "count"),
        "magnetic.eval.self_s": (ev.self_time, "s"),
        "magnetic.eval.us_per_point": (_ratio(ev.self_time, ev.units, 1e6), "us"),
        "magnetic.rhs.calls": (rhs.calls, "count"),
        "magnetic.rhs.self_s": (rhs.self_time, "s"),
        "magnetic.residual.calls": (res_calls, "count"),
        "magnetic.residual.self_s": (res.self_time, "s"),
        "oracle.integrate.calls": (integ.calls, "count"),
        "oracle.integrate.steps": (integ.units, "count"),
        "oracle.integrate.self_s": (integ.self_time, "s"),
        "oracle.integrate.us_per_step": (_ratio(integ.self_time, integ.units, 1e6), "us"),
        # integrate calls the RHS once per call to check its arity.
        "oracle.rhs_calls_per_step": (_ratio(rhs.calls - integ.calls, integ.units), "count"),
        "oracle.max_deviation.calls": (maxdev.calls, "count"),
        "oracle.max_deviation.points": (maxdev.units, "count"),
        "oracle.max_deviation.self_s": (maxdev.self_time, "s"),
        "frenet.frame.calls": (frame.calls, "count"),
        "frenet.frame.self_s": (frame.self_time, "s"),
        "frenet.invariant.calls": (inv.calls, "count"),
        "frenet.invariant.self_s": (inv.self_time, "s"),
        "galilean.calls": (gal.calls, "count"),
        "galilean.self_s": (gal.self_time, "s"),
    }
