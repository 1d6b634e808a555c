"""Span recording around the package's public functions, from outside the package.

A wrapper is installed for every function named in a spec list, in every
module namespace of the package that binds the same function object: a
function imported with ``from .randmat import haar_group`` is wrapped both in
``randmat`` and in the importing module.  Each call records one span
``(name, start, end, parent, job, attrs)`` in memory; ``parent`` is the index
of the enclosing span or -1.  A layer's self time is its span's duration minus
the part of that interval its child spans cover.

Standard library only: the parent process of the CLI workload aggregates
spans without importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(frozen=True)
class Spec:
    """One function to wrap: ``module.function`` in the package, recorded as ``name``.

    ``attrs``, when given, maps the call's positional and keyword arguments to
    a small dict of counts stored on the span (field, matrices, draws, ...).
    """

    module: str
    function: str
    name: str
    attrs: object = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    job: int = -1
    _stack: list = field(default_factory=list, init=False, repr=False)
    _installed: list = field(default_factory=list, init=False, repr=False)

    def span(self, name: str, fn, *args, attrs=None, **kwargs):
        """Calls fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job, attrs)

    def _wrap(self, spec: Spec, original):
        attrs_of = spec.attrs
        name = spec.name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
            return self.span(name, original, *args, attrs=attrs, **kwargs)

        return wrapper

    def install(self, package: str, specs) -> list[Spec]:
        """Wraps every spec'd function wherever the package binds it.

        Returns the specs whose function no longer exists; their metrics are
        reported as absent.  Matching is by object identity, so a name that
        a module rebinds to something else is left alone.
        """
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        missing = []
        for spec in specs:
            try:
                home = importlib.import_module(f"{package}.{spec.module}")
                original = getattr(home, spec.function)
            except (ImportError, AttributeError):
                missing.append(spec)
                continue
            wrapper = self._wrap(spec, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))
        return missing

    def restore(self) -> None:
        """Puts every original function back where a wrapper replaced it."""
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def take(self) -> list:
        """Returns the recorded spans and starts a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _job, _attrs in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _job, _attrs) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def ancestors(spans, idx: int):
    """Names of the spans enclosing span idx, innermost first."""
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]
