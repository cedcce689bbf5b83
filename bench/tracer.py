"""Spans around the calls into zodom's layers, installed from outside.

:meth:`Tracer.install` wraps every public function and public method of
each layer module (plus ``__init__`` and the arithmetic operators of its
classes) and rebinds the wrapper wherever a zodom module holds the same
object: in module namespaces (``classify`` keeps its own ``apply_matrix``,
``equal_h`` and ``member_h``), in module-level lists and dicts (the suite's
``CRITERIA``, the ``DECIDERS`` table) and on the classes.  Each call records
a span (name, start, end, parent) in flat arrays kept in memory and written
out by :meth:`Tracer.write`.  A layer's self time is its spans' durations
minus the time of their child spans.

``Fraction.__new__`` is wrapped as well, to count the Fractions built while
each layer's span is innermost; this relies on ``fractions.Fraction`` being
pure Python (CPython 3.11).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("linalg", "hgroup", "gdsl", "odometer", "cohomology", "classify", "rigid", "cli", "verify")
_DUNDERS = ("__init__", "__mul__", "__add__", "__sub__")
_NO_LAYER = len(LAYERS)
_RAISED = object()  # the result a hook sees when the call raised

# span name -> counter it feeds; "<x>_s" counters sum inclusive span time
COUNTED = {
    "linalg.Lattice.__init__": "linalg.lattice_builds",
    "linalg.Lattice.from_span": "linalg.lattice_builds",
    "linalg.Lattice.standard": "linalg.lattice_builds",
    "linalg.Lattice.dual": "linalg.dual_calls",
    "linalg.Mat.inv": "linalg.inv_calls",
    "linalg.snf": "linalg.snf_calls",
    "odometer.DualityRealization.translation_tuple": "odometer.translation_tuple_calls",
    "odometer.FiniteOdometer.reduce": "odometer.reduce_calls",
    "cohomology.build_cocycle": "cohomology.build_cocycle_calls",
    "cohomology.CoboundarySolver.solve": "cohomology.coboundary_solves",
    "classify.decide": "classify.decisions",
    "hgroup.member_h": "hgroup.member_h_calls",
    "hgroup.apply_matrix": "hgroup.apply_matrix_calls",
    "hgroup.equal_h": "hgroup.equal_h_calls",
}
TIMED = {
    "linalg.snf": "linalg.snf_s",
    "cohomology.CoboundarySolver.__init__": "cohomology.solver_setup_s",
    "hgroup.tower": "hgroup.tower_s",
    "rigid.verify_torsion_bound": "rigid.torsion_bound_s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        # one entry per span
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.self_time: list[float] = []
        self.incl_time: list[float] = []
        self.calls: list[int] = []
        self.fractions = [0] * (len(LAYERS) + 1)
        self.quotient_cards = 0
        self.screens = 0
        self.full_tests = 0
        self.witnesses = 0
        self._stack: list[list] = []  # [span index, layer, child time]
        self._cur = [_NO_LAYER]
        self._last_applied = [None]
        self._undo: list = []

    # -- wrapping

    def _name_id(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        self.self_time.append(0.0)
        self.incl_time.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: int):
        nid = self._name_id(name, layer)
        stack, cur = self._stack, self._cur
        sp_name, sp_parent = self.sp_name, self.sp_parent
        sp_start, sp_end = self.sp_start, self.sp_end
        self_time, incl_time, calls = self.self_time, self.incl_time, self.calls
        hook = self._hook(name)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            idx = len(sp_start)
            sp_name.append(nid)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_start.append(t0)
            sp_end.append(t0)
            frame = [idx, layer, 0.0]
            parent_layer = cur[0]
            stack.append(frame)
            cur[0] = layer
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                cur[0] = stack[-1][1] if stack else _NO_LAYER
                dur = t1 - t0
                sp_end[idx] = t1
                self_time[nid] += dur - frame[2]
                incl_time[nid] += dur
                calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
                if hook is not None:
                    hook(parent_layer, args, result)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _hook(self, name: str):
        """The counter update run after each call of `name`, also when the
        call raised (then `result` is _RAISED)."""
        classify = LAYERS.index("classify")
        if name == "odometer.FiniteOdometer.__init__":

            def hook(parent, args, result):
                if result is not _RAISED:
                    self.quotient_cards += args[0].card

        elif name == "hgroup.member_h":

            def hook(parent, args, result):
                if parent == classify:
                    self.screens += 1

        elif name == "hgroup.apply_matrix":

            def hook(parent, args, result):
                # a candidate that apply_matrix rejects by raising is a full
                # test too (classify._test_witness catches NotSupergroupError)
                if parent == classify:
                    self.full_tests += 1
                    self._last_applied[0] = None if result is _RAISED else result

        elif name == "hgroup.equal_h":

            def hook(parent, args, result):
                if parent == classify and result is True and args[0] is self._last_applied[0]:
                    self.witnesses += 1

        else:
            hook = None
        return hook

    def install(self):
        modules = {layer: importlib.import_module(f"zodom.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}  # id(original) -> wrapper
        originals: dict[int, object] = {}
        for li, layer in enumerate(LAYERS):
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{name}", li)
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{layer}.{name}", li, mod.__file__)
        for mod in modules.values():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if id(obj) in replace and originals[id(obj)] is obj:
                    self._set(ns, name, replace[id(obj)])
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if id(item) in replace and originals[id(item)] is item:
                            self._set(obj, i, replace[id(item)])
                elif isinstance(obj, dict) and name.isupper():
                    for key, item in list(obj.items()):
                        if id(item) in replace and originals[id(item)] is item:
                            self._set(obj, key, replace[id(item)])
        self._wrap_fraction()

    def _wrap_class(self, cls, prefix: str, layer: int, filename: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if fn.__code__.co_filename != filename:  # generated dataclass methods
                continue
            wrapped = self._wrap(fn, f"{prefix}.{attr}", layer)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._undo.append((setattr, cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _set(self, container, key, value):
        self._undo.append((container.__setitem__, None, key, container[key]))
        container[key] = value

    def _wrap_fraction(self):
        orig = Fraction.__new__
        counts, cur = self.fractions, self._cur

        def counting_new(cls, *args, **kwargs):
            counts[cur[0]] += 1
            return orig(cls, *args, **kwargs)

        self._undo.append((setattr, Fraction, "__new__", orig))
        Fraction.__new__ = counting_new

    def uninstall(self):
        for fn, target, key, value in reversed(self._undo):
            if target is None:
                fn(key, value)
            else:
                fn(target, key, value)
        self._undo.clear()

    # -- results

    def metrics(self) -> dict:
        out = {}
        for li, layer in enumerate(LAYERS):
            ids = [i for i, l in enumerate(self.name_layer) if l == li]
            out[f"{layer}.self_s"] = (sum(self.self_time[i] for i in ids), "s")
            out[f"{layer}.calls"] = (sum(self.calls[i] for i in ids), "count")
            out[f"{layer}.fractions"] = (self.fractions[li], "count")
        for key in sorted(set(COUNTED.values())):
            out[key] = (0, "count")
        for key in TIMED.values():
            out[key] = (0.0, "s")
        for nid, name in enumerate(self.names):
            if name in COUNTED:
                key = COUNTED[name]
                out[key] = (out[key][0] + self.calls[nid], "count")
            if name in TIMED:
                key = TIMED[name]
                out[key] = (out[key][0] + self.incl_time[nid], "s")
            if name.startswith("verify.criterion_"):
                num = int(name.split("_")[1])
                out[f"verify.criterion_{num:02d}_s"] = (self.incl_time[nid], "s")
        for num in range(1, 12):
            out.setdefault(f"verify.criterion_{num:02d}_s", (0.0, "s"))
        out["odometer.quotient_cards"] = (self.quotient_cards, "count")
        out["classify.screens"] = (self.screens, "count")
        out["classify.full_tests"] = (self.full_tests, "count")
        out["classify.witness_yield"] = (
            self.witnesses / self.full_tests if self.full_tests else 0.0,
            "ratio",
        )
        return out

    def span_count(self) -> int:
        return len(self.sp_start)

    def write(self, path_prefix: str):
        """Spans as four raw arrays (<prefix>.<field>.bin) plus a JSON index."""
        fields = {
            "name": self.sp_name,
            "parent": self.sp_parent,
            "start": self.sp_start,
            "end": self.sp_end,
        }
        for field, arr in fields.items():
            with open(f"{path_prefix}.{field}.bin", "wb") as fh:
                arr.tofile(fh)
        index = {
            "spans": self.span_count(),
            "fields": {f: arr.typecode for f, arr in fields.items()},
            "names": self.names,
        }
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)
