"""In-memory span tracer that wraps package functions from outside.

Modules of the package import names directly (``from .cpd import
cp_decompose``), so a function has to be replaced at every module
namespace that binds it, not only where it is defined.  ``Tracer.install``
finds each binding by identity, swaps in a recording wrapper, and
``Tracer.restore`` puts every original object back.
"""
from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "irs_sensing"

# Optional per-call size probe: (bound arguments, return value or None) -> number.
Probe = Callable[[dict, object], float]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    error: str | None = None


@dataclass(frozen=True)
class Target:
    """One traced function, named by its defining module and attribute.

    ``probe``, when given, adds a size per call (bytes, entries, points)
    to ``Tracer.sizes`` under the span name.
    """

    module: str
    attr: str
    probe: Probe | None = None

    @property
    def span(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass
class Tracer:
    targets: tuple[Target, ...]
    spans: list[Span] = field(default_factory=list)
    sizes: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _bindings: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        """Replace every binding of every target in the package's modules."""
        if self._bindings:
            raise RuntimeError("a tracer is installed once")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                if getattr(module, target.attr, None) is original:
                    self._bindings.append((module, target.attr, original))
                    setattr(module, target.attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)

    def unrestored(self) -> list[str]:
        """Replaced bindings that do not hold their original object now."""
        return [f"{module.__name__}.{attr}"
                for module, attr, original in self._bindings
                if getattr(module, attr) is not original]

    def wrapped_sites(self) -> list[str]:
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._bindings]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def span(self, name: str) -> "_SpanContext":
        """A span opened by the caller, e.g. around ``run_experiment``."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: BaseException | None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        signature = inspect.signature(fn) if target.probe else None

        def traced(*args, **kwargs):
            idx = self._open(target.span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(idx, error)
                if signature is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.sizes[target.span] = (self.sizes.get(target.span, 0.0)
                                               + target.probe(bound, result))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        self.idx = self.tracer._open(self.name)

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._close(self.idx, exc)
