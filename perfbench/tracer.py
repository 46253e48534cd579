"""Span tracer for the benchmark's traced runs.

It wraps the public functions and methods of every module of the
``entangle_tl`` package from outside; the program itself carries no
instrumentation.  Wrapping only the module attribute would miss three kinds
of call, so ``Tracer.install`` rebinds every reference to an original:

* aliases made by ``from .x import f`` (``tlalgebra.embed``,
  ``teleport.kron``, ``teleport.weyl_basis``, ...), found by identity in
  every module namespace;
* function defaults bound at import, such as
  ``flow_apply(..., evaluator=dg.evaluate)``;
* calls made through module attributes (``cli.run_suite`` from
  ``cli.main``), which look the wrapper up at call time.

Spans are kept in memory in flat columns and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

PACKAGE = "entangle_tl"


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    command id and the bytes of a returned array."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.out_bytes = array("q")
        self.command_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self.command_id)
            self.end.append(0.0)
            self.out_bytes.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            nbytes = getattr(result, "nbytes", None)
            if isinstance(nbytes, int):
                self.out_bytes[idx] = nbytes
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the package and rebind
        every reference to an original: module attributes, from-import
        aliases and function defaults."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        functions = list(_all_functions(modules))  # the originals, before any is wrapped
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            self._set(obj, mname, self.wrap(meth, f"{short}.{attr}.{mname}"))

        def swap(value):
            return wrappers.get(value, value) if inspect.isfunction(value) else value

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if swap(obj) is not obj:
                    self._set(mod, attr, swap(obj))
        for fn in functions:
            if fn.__defaults__ and any(swap(v) is not v for v in fn.__defaults__):
                self._set(fn, "__defaults__", tuple(swap(v) for v in fn.__defaults__))
            if fn.__kwdefaults__ and any(swap(v) is not v for v in fn.__kwdefaults__.values()):
                self._set(fn, "__kwdefaults__", {k: swap(v) for k, v in fn.__kwdefaults__.items()})

    def uninstall(self) -> None:
        """Put every original back, so untraced passes run unwrapped code."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def counts(self, command_id: int) -> dict[str, int]:
        """Calls per span name within one command."""
        out: dict[str, int] = {}
        for nid, cid in zip(self.name_id, self.command):
            if cid == command_id:
                name = self.names[nid]
                out[name] = out.get(name, 0) + 1
        return out

    def summary(self, command_ids) -> dict[str, dict[str, float]]:
        """Per span name over the given commands: calls, total and self
        seconds, summed and largest returned-array bytes.  Self time is a
        span's duration minus the durations of its direct child spans."""
        import numpy as np

        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        keep = np.isin(np.frombuffer(self.command, dtype=np.int32), np.asarray(list(command_ids), dtype=np.int32))
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[keep]
        out_bytes = np.frombuffer(self.out_bytes, dtype=np.int64)[keep]
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur[keep], minlength=k)
        selfs = np.bincount(name_id, weights=self_time[keep], minlength=k)
        out_sum = np.bincount(name_id, weights=out_bytes, minlength=k)
        out_max = np.zeros(k)
        np.maximum.at(out_max, name_id, out_bytes)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i]),
                   "out_bytes": float(out_sum[i]), "max_out_bytes": float(out_max[i])}
            for i, name in enumerate(self.names) if calls[i]
        }

    def save(self, path: str) -> None:
        """Write every span as flat columns to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            out_bytes=np.frombuffer(self.out_bytes, dtype=np.int64),
        )


def _package_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _all_functions(modules):
    """Every plain function and method defined in the package, private ones
    included, since any of them may hold a default bound at import."""
    for mod in modules:
        for obj in list(vars(mod).values()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield from (m for m in vars(obj).values() if inspect.isfunction(m))
