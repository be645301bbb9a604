"""Span tracing of ptdeform's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
recording wrapper in every ptdeform namespace that holds a reference to it.
`wavefun` and `opmat` import `gegenbauer_row`, `psi_value`, `build_X` and the
rest by name, so patching only the defining module would miss most calls.
`OperatorMatrix.__matmul__` is wrapped on the class.  `uninstall` puts the
originals back, so one process can alternate traced and untraced operations.

A span records its name, start, end, parent span, operation index, a work
count and whether it runs inside another span of the same name.  Spans stay
in memory, packed in one int64 array, until `dump`.  Time spent in code that
has no span of its own (private helpers, `OperatorMatrix.__sub__`, ...) is
charged to the innermost enclosing span, so a layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("specfun", "algebra", "wavefun", "opmat", "cli")
ROOT = "bench.op"
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "work", "nested")


def _gegenbauer_points(args, kwargs) -> int:
    """Number of evaluation points of one `gegenbauer_row(n_max, nu, x)` call."""
    return int(np.size(args[2] if len(args) > 2 else kwargs["x"]))


def _matmul_flops(args, kwargs) -> int:
    """8 N^3 real flops per dense complex N x N product (computed, not counted)."""
    return 8 * args[0].basis_size ** 3


WORK = {"specfun.gegenbauer_row": _gegenbauer_points, "opmat.matmul": _matmul_flops}


class Tracer:
    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._data = array("q")  # len(FIELDS) slots per span
        self._stack = [-1]
        self._active: Counter = Counter()
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        data, stack, active = self._data, self._stack, self._active
        width = len(FIELDS)
        clock = time.perf_counter_ns
        work = WORK.get(name)
        code = self._codes.setdefault(name, len(self._codes))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = len(data)
            data.extend((code, 0, 0, stack[-1], self._op,
                         work(args, kwargs) if work else 0, active[code] > 0))
            stack.append(base // width)
            active[code] += 1
            data[base + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                data[base + 2] = clock()
                active[code] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever ptdeform code looks them up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"ptdeform.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for ns in (importlib.import_module("ptdeform"), *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        matrix = modules["opmat"].OperatorMatrix
        self._patch(matrix, "__matmul__", self._wrap(matrix.__matmul__, "opmat.matmul"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, fn, *args):
        """Run one benchmark operation under a root span of its own."""
        self._op += 1
        return self._wrap(fn, ROOT)(*args)

    def table(self) -> np.ndarray:
        """All spans so far, one row each, columns as in FIELDS."""
        return np.frombuffer(self._data, dtype=np.int64).reshape(-1, len(FIELDS)).copy()

    def summary(self) -> dict:
        """Per-operation means: calls, inclusive seconds and work of each
        function, and self seconds of each layer."""
        t = self.table()
        names = np.array(list(self._codes))[t[:, 0]]
        n_ops = int(np.sum(names == ROOT))
        if n_ops == 0:
            raise ValueError("no traced operation to summarize")
        dur = t[:, 2] - t[:, 1]
        has_parent = t[:, 3] >= 0
        child = np.bincount(t[has_parent, 3], weights=dur[has_parent], minlength=len(t))
        self_ns = dur - child
        out = {"ops": n_ops, "calls": {}, "s": {}, "work": {}, "self_s": Counter()}
        for name in set(names.tolist()):
            rows = names == name
            out["calls"][name] = int(rows.sum()) / n_ops
            out["s"][name] = float(dur[rows & (t[:, 6] == 0)].sum()) * 1e-9 / n_ops
            out["work"][name] = float(t[rows, 5].sum()) / n_ops
            out["self_s"][name.split(".")[0]] += float(self_ns[rows].sum()) * 1e-9 / n_ops
        out["self_s"] = dict(out["self_s"])
        return out

    def dump(self, path: Path) -> None:
        """Write every span to an .npz file: `spans` (columns as in FIELDS,
        `name` indexing `names`) and `names`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), names=np.array(list(self._codes)), fields=np.array(FIELDS))
