"""Per-layer tracing of `pim` from outside the package.

A :class:`Tracer` wraps the public functions of the layer modules
(``cli``, ``modelfile``, ``model``, ``reduce``, ``ratlin``) by rebinding
the module attributes that callers resolve at call time, in every loaded
``pim`` namespace that holds them. Each function gets one wrapper, shared
by all namespaces, so a call is counted once. A wrapper records the
function's self time (its duration minus the time of wrapped callees) and
its call count, and for a few functions the largest coefficient it saw.
Functions named by a metric but missing from the package are reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

LAYERS = ("cli", "modelfile", "model", "reduce", "ratlin")

# Entry points of the elimination kernel: the rows x cols handed to the
# outermost of these calls are counted once as `ratlin.elim_cells`.
ELIMINATIONS = frozenset(
    ("ratlin.rank", "ratlin.rref", "ratlin.rref_with_transform", "ratlin.nullspace_basis")
)


def fraction_bits(x: Any) -> int:
    """Bit length of the larger of numerator and denominator."""
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def matrix_bits(matrix: Any) -> int:
    return max((fraction_bits(x) for x in matrix.entries), default=0)


def _render_key(args: tuple, kwargs: dict) -> str:
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "text")
    return f"modelfile.render_report.{fmt}"


def _observe_pi_basis(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.note_bits("model.E_max_bits", matrix_bits(result[0]))


def _observe_redundancy(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.note_bits("reduce.C_max_bits", matrix_bits(result))


def _observe_rref_transform(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.note_bits("reduce.rref_C_max_bits", matrix_bits(result[0].rref))


def _observe_exact_pow(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.note_bits("reduce.k_exponent_max_bits", fraction_bits(args[1]))
    if result is not None:
        tracer.note_bits("reduce.constant_max_bits", fraction_bits(result))


def _observe_analyze(tracer: Tracer, args: tuple, result: Any) -> None:
    for relation in result.relations or ():
        for t in relation.k_exponents:
            tracer.note_bits("reduce.k_exponent_max_bits", fraction_bits(t))
        if relation.constant is not None:
            tracer.note_bits("reduce.constant_max_bits", fraction_bits(relation.constant))


# A stage is a call made by the op itself or by one of these.
STAGE_CALLERS = frozenset(("cli.run", "reduce.analyze"))

# Per-function extras: how to name the call, and what to observe on return.
KEYS: dict[str, Callable[[tuple, dict], str]] = {"modelfile.render_report": _render_key}
OBSERVERS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "model.pi_basis": _observe_pi_basis,
    "reduce.redundancy_matrix": _observe_redundancy,
    "ratlin.rref_with_transform": _observe_rref_transform,
    "ratlin.exact_pow": _observe_exact_pow,
    "reduce.analyze": _observe_analyze,
}


def public_functions(package: str = "pim") -> dict[str, Callable]:
    """``layer.name`` -> function, for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Self time, call counts and coefficient sizes, accumulated over the
    ops run while installed. One tracer per traced run."""

    def __init__(self, package: str = "pim") -> None:
        self.package = package
        self.functions = public_functions(package)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.elim_cells = 0
        self.op_bits: dict[str, int] = {}
        self.op_completed: dict[str, None] = {}  # stages returned, in order
        self._stack = [0.0]  # time spent in wrapped callees, per open call
        self._path: list[str] = []  # names of the open calls
        self._elim_depth = 0
        self._saved: list[tuple[ModuleType, str, Callable]] = []
        self._wrappers = {
            id(fn): (fn, self._wrap(key, fn)) for key, fn in self.functions.items()
        }

    # -- per-op state --------------------------------------------------------

    def begin_op(self) -> None:
        self.op_bits = {}
        self.op_completed = {}

    def note_bits(self, name: str, bits: int) -> None:
        if bits > self.op_bits.get(name, 0):
            self.op_bits[name] = bits

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        name_of = KEYS.get(key)
        observe = OBSERVERS.get(key)
        is_elim = key in ELIMINATIONS
        stack = self._stack
        path = self._path

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = name_of(args, kwargs) if name_of else key
            if is_elim:
                if self._elim_depth == 0:
                    self.elim_cells += args[0].rows * args[0].cols
                self._elim_depth += 1
            stack.append(0.0)
            path.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stack[-1] += elapsed
                self.self_s[name] += elapsed - child
                self.calls[name] += 1
                path.pop()
                if is_elim:
                    self._elim_depth -= 1
            if not path or path[-1] in STAGE_CALLERS:
                self.op_completed[name] = None
            if observe is not None:
                t0 = perf_counter()
                observe(self, args, result)
                stack[-1] += perf_counter() - t0  # keep it out of the caller's self time
            return result

        return wrapper
