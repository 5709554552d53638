"""Run the triscar CLI with a span recorder around every package layer.

    python3 traced_cli.py SPANS_JSON <triscar arguments...>

Wraps the public functions, and the public methods and explicit
constructors of classes, of each module in `layers.LAYERS`, then patches every
`triscar` namespace that imported one of those functions (for example both
`triscar.eigensolve.solve_dense` and `triscar.cli.solve_dense`) before calling
`triscar.cli.main(argv)`.  A call that enters a layer from another layer (or
from nothing) opens a span; calls nested inside the same layer only add to the
per-function call count, and to its time for the functions a metric reads.
Spans stay in memory and are written to SPANS_JSON when the command ends.
The exit code is the CLI's.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from layers import LAYERS, traced_functions


def _sector_states(tracer, args, result):
    tracer.counters["basis.states"] += result.dim


def _operator_nnz(tracer, args, result):
    op = args[0]
    tracer.counters["hamiltonian3d.nnz"] += round(op.nonzeros_per_row() * op.dim)


def _spectrum(tracer, args, result):
    tracer.counters["eigensolve.blocks"] += 1
    tracer.counters["eigensolve.eigenpairs"] += result.k
    tracer.maximum("eigensolve.block_dim_max", result.eigenvectors.shape[0])
    tracer.maximum("eigensolve.residual_max", result.max_residual_ratio())


# function name -> observer(tracer, args, result), run after a successful call
OBSERVERS = {
    "basis.enumerate_basis_1d": _sector_states,
    "basis.sector_3d": _sector_states,
    "hamiltonian3d.HamiltonianOperator3D.__init__": _operator_nnz,
    "eigensolve.solve_dense": _spectrum,
    "eigensolve.solve_iterative": _spectrum,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [id, parent, layer, name, t0, t1, ok]
        self.stack: list[int] = []       # ids of the open spans
        self.layer: str | None = None    # layer of the innermost open span
        self.functions: dict[str, list] = {}   # name -> [calls, seconds]
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.observer_errors: list[str] = []
        self.paused = False

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, float(value)), float(value))

    def wrap(self, fn, layer: str, name: str):
        stat = self.functions.setdefault(name, [0, 0.0])
        observe = OBSERVERS.get(name)
        # other nested calls are only counted, which keeps the cost of
        # small helpers called in loops low
        timed = observe is not None or name in traced_functions()
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer.paused or tracer.layer == layer
            if nested and not timed:
                stat[0] += 1
                return fn(*args, **kwargs)
            if not nested:
                record = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                          layer, name, 0.0, 0.0, False]
                tracer.spans.append(record)
                tracer.stack.append(record[0])
                outer, tracer.layer = tracer.layer, layer
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat[0] += 1
                stat[1] += t1 - t0
                if not nested:
                    record[4], record[5] = t0, t1
                    tracer.stack.pop()
                    tracer.layer = outer
            if not nested:
                record[6] = True
            if observe is not None and not tracer.paused:
                tracer.observe(observe, name, args, result)
            return result

        return wrapper

    def observe(self, observer, name, args, result) -> None:
        self.paused = True
        try:
            observer(self, args, result)
        except (AttributeError, TypeError, IndexError) as exc:
            self.observer_errors.append(f"{name}: {exc!r}")
        finally:
            self.paused = False

    def install(self) -> None:
        import triscar.cli  # noqa: F401  (imports every layer)

        wrapped: dict[int, tuple] = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                short = modname.rpartition(".")[2]
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj):
                        wrapped[id(obj)] = (obj, self.wrap(obj, layer, f"{short}.{attr}"))
                    elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                        self._wrap_methods(obj, layer, short)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "triscar" or modname.startswith("triscar.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, cls, layer: str, short: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            public = not attr.startswith("_")
            # a dataclass's generated __init__ only stores fields
            ctor = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if public or ctor:
                setattr(cls, attr, self.wrap(fn, layer, f"{short}.{cls.__qualname__}.{attr}"))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "functions": self.functions,
                       "counters": dict(self.counters), "maxima": self.maxima,
                       "observer_errors": self.observer_errors}, fh)


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import triscar.cli

    try:
        return triscar.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
