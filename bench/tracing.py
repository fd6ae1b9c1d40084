"""Spans recorded from outside the package, around the calls into each layer.

``install`` wraps every public function and every public-class constructor
of ``bentspectra.boolfn``, ``walsh``, ``djsim`` and ``spectra``, and
replaces each wrapped function in every ``bentspectra`` module namespace
that imported it, so ``spectra``'s own ``fwht`` and the package-level
re-exports are caught too.  Spans stay in memory; ``Tracer.export`` hands
them to the job, which writes them out after its timed region.

With ``memory=True`` each span also records its tracemalloc peak above the
traced memory at its start.  tracemalloc slows every allocation, so memory
jobs are run separately from the jobs whose span times are reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

LAYER_MODULES = ("boolfn", "walsh", "djsim", "spectra")


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.peak: list[int] = []
        self._stack: list[int] = []
        self._base: list[int] = []
        self._peak_abs: list[int] = []
        if memory:
            tracemalloc.start()

    def wrap(self, label: str, fn):
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                top = stack[-1]
                self._peak_abs[top] = max(self._peak_abs[top], peak)
            tracemalloc.reset_peak()
            self._base.append(cur)
            self._peak_abs.append(cur)
            self.peak.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            peak = max(self._peak_abs[idx], tracemalloc.get_traced_memory()[1])
            self.peak[idx] = peak - self._base[idx]
            if self._stack:
                top = self._stack[-1]
                self._peak_abs[top] = max(self._peak_abs[top], peak)

    def export(self, job: int) -> dict:
        """Column form of every span: name, start, end, parent, job id."""
        return {
            "job": job,
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "peak_bytes": self.peak if self.memory else None,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public surface of the four library layers in place."""
    replaced = {}
    for short in LAYER_MODULES:
        mod = sys.modules[f"bentspectra.{short}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, short, obj)
            elif inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname != "bentspectra" and not modname.startswith("bentspectra."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def _wrap_class(tracer: Tracer, short: str, cls: type) -> None:
    """Constructor span labelled by the class; classmethods by their name."""
    if "__init__" in vars(cls):
        cls.__init__ = tracer.wrap(f"{short}.{cls.__name__}", vars(cls)["__init__"])
    for attr, member in list(vars(cls).items()):
        if isinstance(member, classmethod) and not attr.startswith("_"):
            setattr(cls, attr, classmethod(tracer.wrap(f"{short}.{attr}", member.__func__)))
