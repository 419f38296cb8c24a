"""Layer tracing for the benchmark, built outside the package under test.

A :class:`Tracer` wraps the public functions of each ``timeops`` module
(one module is one layer) and a short list of methods that other layers
call.  Every wrapped call records a span: the function, its parent span,
the pass it ran in, start and end times, and whether it raised.  Spans
stay in memory in flat arrays and are written out once the run ends.

The package's modules import each other's functions by name, so a
wrapper is installed in every module namespace that holds the original,
and in the package namespace too.  ``restore`` puts every original back.

``bucket_index`` runs millions of times per pass; recording a span for
each call would cost more than the call, so it is counted, not spanned.
"""
from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Layers in the order reports list them; each is ``timeops.<layer>``.
LAYERS = ("spectra", "decompose", "timeop", "uwform", "contspec", "acceptance", "cli")

#: Methods that other layers call directly; absent ones are skipped.
METHODS = {
    "spectra": ("DiscreteSpectrum.from_json", "DiscreteSpectrum.to_json", "HermitianMatrix.eigenvalues"),
    "decompose": ("ChannelDecomposition.to_json",),
    "timeop": ("TimeOperatorMatrix.hermiticity_defect",),
    "uwform": ("SesquilinearForm.describe_domains", "FunctionSpec.from_json"),
}

#: Hot leaf functions that are counted but get no span.
COUNT_ONLY = {"decompose.bucket_index": "decompose.bucket_calls"}

#: Counters computed from a wrapped call's result: function -> (counter, f(result)).
RESULT_COUNTERS = {
    "decompose.channel_partition": (
        ("decompose.channels", lambda r: len(r.channels)),
        ("decompose.slots", lambda r: sum(len(ch) for ch in r.channels)),
    ),
    "timeop.galapon_matrix": (("timeop.matrix_bytes", lambda r: 16 * r.dimension ** 2),),
    "timeop.osc_timeop_spectrum": (("timeop.eigensolve_flops", lambda r: len(r[0]) ** 3),),
    "contspec.free_evolve": (("contspec.fft_points", lambda r: r.samples.size),),
    "contspec.ab_apply": (("contspec.fft_points", lambda r: r.samples.size),),
}


def public_functions(module: types.ModuleType) -> dict:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Span and counter recorder for one traced run.

    ``modules`` maps a layer name to its module; ``namespaces`` lists
    every module whose globals may hold a wrapped function.
    """

    def __init__(self, modules: dict, namespaces) -> None:
        self.modules = dict(modules)
        self.namespaces = list(namespaces)
        self.names: list[str] = []
        self.function = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.counters: dict[str, float] = {}
        self.pass_counters: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._pass = -1
        self._pass_base: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._pass_base = dict(self.counters)

    def end_pass(self) -> None:
        self.pass_counters[self._pass] = {
            name: value - self._pass_base.get(name, 0.0)
            for name, value in self.counters.items()
        }

    def _count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _span_wrapper(self, fid: int, fn, counters):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.function.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self._pass)
            self.end.append(0.0)
            self.error.append(0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[index] = perf_counter()
                self.error[index] = 1
                stack.pop()
                raise
            self.end[index] = perf_counter()
            stack.pop()
            for name, measure in counters:
                self._count(name, measure(result))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0.0) + 1.0
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, qualname: str, fn):
        if qualname in COUNT_ONLY:
            return self._count_wrapper(COUNT_ONLY[qualname], fn)
        self.names.append(qualname)
        return self._span_wrapper(len(self.names) - 1, fn, RESULT_COUNTERS.get(qualname, ()))

    # ------------------------------------------------------ install/restore

    def install(self) -> None:
        """Wrap every layer boundary; call :meth:`restore` to undo."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for namespace in self.namespaces:
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped[value])
        for layer, specs in METHODS.items():
            module = self.modules.get(layer)
            for spec in specs:
                cls_name, _, meth = spec.partition(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(f"{layer}.{spec}", raw.__func__))
                elif isinstance(raw, types.FunctionType):
                    replacement = self._wrap(f"{layer}.{spec}", raw)
                else:
                    continue
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --------------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Write JSON lines: a header, then one span per line.

        Header: ``{"names": [...], "fields": [...], "pass_counters": {...}}``;
        a span line lists its values in ``fields`` order, with ``function``
        and ``parent`` as indexes into ``names`` and the span list.
        """
        header = {
            "names": self.names,
            "fields": ["function", "parent", "pass", "start", "end", "error"],
            "pass_counters": {str(k): v for k, v in self.pass_counters.items()},
        }
        columns = (self.function, self.parent, self.pass_id, self.start, self.end, self.error)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for row in zip(*columns):
                handle.write(json.dumps(row) + "\n")


def package_tracer(package: str = "timeops") -> Tracer:
    """A tracer over the already imported layer modules of ``package``."""
    modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
    return Tracer(modules, [sys.modules[package], *modules.values()])


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[int]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    out = []
    for index in range(len(start)):
        lo, hi = start[index], end[index]
        covered = 0.0
        reach = lo
        for child in sorted(children.get(index, ()), key=lambda c: start[c]):
            c_lo = max(start[child], reach)
            c_hi = min(end[child], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out


def per_pass_self(tracer: Tracer) -> dict[int, dict[str, dict[str, float]]]:
    """Per pass and per function: self seconds, span count, raised count."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict[int, dict[str, dict[str, float]]] = {}
    for index, seconds in enumerate(selfs):
        name = tracer.names[tracer.function[index]]
        stats = out.setdefault(tracer.pass_id[index], {}).setdefault(
            name, {"self_s": 0.0, "calls": 0, "errors": 0}
        )
        stats["self_s"] += seconds
        stats["calls"] += 1
        stats["errors"] += tracer.error[index]
    return out
