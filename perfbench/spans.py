"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` wraps every function listed in the ``__all__`` of each
traced ``ucoset`` module and puts the wrapper in place of the original in
every ``ucoset`` module namespace that refers to it, so calls between the
program's own modules are seen too.  Each span records its name, start,
end, parent span and op id; spans are kept in memory and written out once,
at the end of the run.  Untraced runs never construct a Tracer.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("numkit", "householder", "coset", "haar", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self._stack = []
        self._current_op = None
        self._restore = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, op_id):
        self._current_op = op_id

    def end_op(self):
        self._current_op = None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; outside an op it is a plain call."""
        if self._current_op is None:
            return fn(*args, **kwargs)
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        """Wrap the public functions of every traced layer."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"ucoset.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ucoset" or mod_name.startswith("ucoset.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def arrays(self):
        """Spans as numpy arrays: name id, start ns, end ns, parent, op id."""
        return (np.array(self.name, dtype=np.int32), np.array(self.start, dtype=np.int64),
                np.array(self.end, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.op, dtype=np.int64))

    def save(self, path):
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent, op=op)

    def summary(self):
        """Per span name: (calls, total ns, self ns).

        Self time is a span's duration minus the durations of its children.
        """
        name, start, end, parent, _ = self.arrays()
        dur = (end - start).astype(float)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        if np.any(has_parent):
            child += np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_ns = dur - child
        out = {}
        for i, label in enumerate(self.names):
            mask = name == i
            out[label] = (int(mask.sum()), float(dur[mask].sum()), float(self_ns[mask].sum()))
        return out
