"""Span tracer for the qbm layers, installed from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
bound at every attribute of every loaded ``qbm`` module that referred to the
original.  That catches calls made through ``from .x import y`` names (such
as ``cli.solve_moments``) as well as calls inside a module.  Spans are kept
in flat arrays while the run lasts and written out once it ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from dataclasses import fields, is_dataclass

import numpy as np

LAYERS = ("spectral", "state", "continuum", "finite", "gibbs", "thermo", "cli")

# functions whose repeated inputs are counted (see ``Tracer.repeat_frac``)
REPEAT_TRACKED = ("continuum.",
                  "finite.normal_mode_frequencies")


def _key(value):
    """Hashable identity of an argument: arrays by bytes, dataclasses by fields."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                tuple(_key(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, (tuple, list)):
        return tuple(_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _key(v)) for k, v in value.items()))
    return value


class Tracer:
    """Records (name, start, end, parent, op) spans around wrapped calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self.active = False
        self.current_op = -1
        self._seen: set = set()
        self.tracked_calls: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call while active is one span."""
        if name in self._name_ids:
            raise ValueError(f"span name {name!r} wrapped twice")
        nid = self._name_ids[name] = len(self.names)
        self.names.append(name)
        tracked = name.startswith(REPEAT_TRACKED)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracked:
                tracer._count_repeat(name, args, kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.error.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _count_repeat(self, name: str, args, kwargs) -> None:
        key = (name, _key(args), _key(kwargs))
        self.tracked_calls[name] = self.tracked_calls.get(name, 0) + 1
        if key in self._seen:
            self.repeats[name] = self.repeats.get(name, 0) + 1
        else:
            self._seen.add(key)

    def new_pass(self) -> None:
        """Forget the inputs seen so far; repeats count within one pass."""
        self._seen.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind every reference."""
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"qbm.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qbm" or mod_name.startswith("qbm.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def metrics(self) -> dict:
        """Per-layer and per-function calls, self seconds and errors."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        selfs = self.self_times()
        errs = np.frombuffer(self.error, dtype=np.int8)
        calls_by = np.bincount(ids, minlength=len(self.names))
        self_by = np.bincount(ids, weights=selfs, minlength=len(self.names))
        err_by = np.bincount(ids, weights=errs, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls_by[i])
            out[f"{name}.self_s"] = float(self_by[i])
            out[f"{name}.errors"] = int(err_by[i])
        for layer in LAYERS + ("op",):
            members = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = int(sum(calls_by[i] for i in members))
            out[f"{layer}.self_s"] = float(sum(self_by[i] for i in members))
            out[f"{layer}.errors"] = int(sum(err_by[i] for i in members))
        out["continuum.repeat_frac"] = self.repeat_frac("continuum.")
        out["finite.normal_mode_frequencies.repeat_frac"] = \
            self.repeat_frac("finite.normal_mode_frequencies")
        out["trace.top_level_spans"] = int(np.sum(np.frombuffer(self.parent, dtype=np.int32) < 0))
        return out

    def repeat_frac(self, prefix: str) -> float:
        """Share of tracked calls under ``prefix`` whose input was seen earlier in the pass."""
        calls = sum(v for k, v in self.tracked_calls.items() if k.startswith(prefix))
        reps = sum(v for k, v in self.repeats.items() if k.startswith(prefix))
        return reps / calls if calls else 0.0

    def write(self, path) -> None:
        """Write the spans as gzip CSV: index,name,start_s,end_s,parent,op,error."""
        t0 = self.start[0] if len(self.start) else 0.0
        names, ids = self.names, self.name_id
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,op,error\n")
            fh.writelines(f"{i},{names[ids[i]]},{s - t0:.9f},{e - t0:.9f},{p},{o},{x}\n"
                          for i, (s, e, p, o, x) in enumerate(zip(
                              self.start, self.end, self.parent, self.op, self.error)))
