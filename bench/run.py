"""Benchmark of the `pim` engine: one workload per run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Workloads (closed loop, one
caller, one process):

* ``cli_models``: ``python -m pim`` subprocesses over the shipped models,
  as ``analyze`` (text), ``analyze --format json``, ``check`` and
  ``analyze -`` on standard input.
* ``ladder_invariant``: in-process parse -> analyze -> JSON render of
  seeded scale-invariant models (``gen.py``), rungs n = 8..24 plus a stress
  rung with as many constraints as dimensions. Their constraint constants
  are 1; see the constant probe below.
* ``ladder_pointwise``: the same rungs with pointwise ``jacobian_row``
  constraints that are not scale-invariant, so the ``C`` path is skipped.

One op is one CLI call, or one parse -> analyze -> render, timed by the
wall clock. A run makes whole passes over a fixed set of inputs until
``--seconds`` have passed. Every output is checked outside the timed region
against the answer known by construction, and must be byte-identical across
two passes. An op fails when it raises, exits nonzero, or returns a wrong
answer; it is counted in ``failed``, ranks above every successful op in the
latency percentiles, is left out of ``ops_per_s``, and makes the verdict
``correct`` false. No op of the three workloads fails on the current engine.

Machine speed on a shared host drifts: on the baseline machine the same
work runs up to half again as long for stretches of seconds to minutes. So
a fixed reference task that no change to ``pim`` can speed up is timed
after every op, and each op's time is scaled by ``nominal / median`` of the
reference times taken nearest it (see :class:`Reference`). Over seeds
1-10 this cut the quartile spread of ``op_ms_p50`` from 0.14 to 0.01 on
``cli_models``, from 0.10 to 0.03 on ``ladder_invariant`` and from 0.14 to
0.02 on ``ladder_pointwise`` (``baseline.json`` keeps the raw series).
The nominal times are the reference medians of the baseline runs, so the
scaled times are close to the measured ones on that machine; the summary
prints the raw times and the median factor as well.

``setup_s`` is the median time to import ``pim.cli`` (and with it every
layer) in a fresh interpreter, timed inside that interpreter and scaled by
the CLI reference task like a CLI call (see :func:`setup`). Building the
inputs is the benchmark's own work, which no change to ``pim`` can move; its
time is printed in the summary only.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each op
twice, untraced then traced (see ``spans.py``), and reports the per-layer
metrics, the tracing overhead, and per-rung coefficient sizes. On
``ladder_invariant`` it then runs the constant probe: stress-rung models with
random rational constants, analyzed once each. With the current engine some
of their relation constants pass CPython's 4300-digit int-to-str limit and
the op raises ``ValueError``; the probe reports the share that raise
(``constants.failed_share``), their median time and the largest constant.
Those are per-layer metrics, outside the timed workloads, so a change that
shrinks the constants shows there.
A human-readable summary goes to standard error; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli_models", "ladder_invariant", "ladder_pointwise")
SETUP_REPS = 9  # fresh-interpreter imports per run; their median is setup_s
# Ladder rounds per run (gen.ROUND). Timed loops make whole passes over the
# same inputs, so the set measured does not depend on machine speed. On the
# baseline machine a pass takes about 14 s (invariant) and 15 s (pointwise).
ROUNDS = {"ladder_invariant": 12, "ladder_pointwise": 60}
PROBE_MODELS = 24  # stress models with random constants in the constant probe
SUBPROCESS_TIMEOUT_S = 60
CLI_PROBE_REPS = 10  # interpreter-start probes in a traced run
GOLDEN = "tests/golden/drag_report.json"
# What the constant probe counts: a relation constant too long to print.
INT_STR_LIMIT = "ValueError: Exceeds the limit (4300 digits) for integer string conversion"
IMPORT_PROBE = "import time; t = time.perf_counter(); import pim.cli; print(time.perf_counter() - t)"
STDLIB_IMPORTS = "import argparse, dataclasses, enum, fractions, json, math, re, typing"
_rng = random.Random(0)
REFERENCE_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(10)] for _ in range(9)]


@dataclass(frozen=True)
class Expected:
    n: int
    d: int
    d_eff: int
    scale_invariant: bool


# The shipped models and their answers, worked out by hand.
SHIPPED = {
    "models/drag.pim": Expected(n=6, d=3, d_eff=2, scale_invariant=True),
    "models/drag_auto.pim": Expected(n=6, d=3, d_eff=2, scale_invariant=True),
    "models/pendulum.pim": Expected(n=4, d=1, d_eff=1, scale_invariant=True),
}


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs; no result is printed."""


class OpFailure(RuntimeError):
    """An op ran to the end but did not succeed (nonzero exit code)."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# importing pim from src/


def import_pim() -> Any:
    """Import `pim` and its layers from ``src/``."""
    if not (SRC / "pim" / "__init__.py").is_file():
        raise SetupError(f"no pim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pim = importlib.import_module("pim")
    for layer in spans.LAYERS:
        try:
            importlib.import_module(f"pim.{layer}")
        except ModuleNotFoundError:
            pass  # the trace reports its functions as absent
    if Path(pim.__file__).resolve().parent != (SRC / "pim").resolve():
        raise SetupError(f"pim imported from {pim.__file__}, not from {SRC}")
    return pim


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + old if old else "")
    return env


def run_python(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=cli_env(),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )


def cold_import_s() -> float:
    """Seconds to import ``pim.cli`` in a fresh interpreter, as that
    interpreter's wall clock reads it."""
    proc = run_python(["-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise SetupError(f"import pim.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def assert_cli_imports_src() -> None:
    proc = run_python(["-c", "import pim; print(pim.__file__)"])
    where = Path(proc.stdout.strip()).resolve().parent if proc.returncode == 0 else None
    if where != (SRC / "pim").resolve():
        raise SetupError(f"python -m pim would not import from {SRC}: {proc.stdout}{proc.stderr}")


@dataclass(frozen=True)
class Reference:
    """A fixed task like an op's work but outside ``pim``, and its time on
    the baseline machine."""

    task: Callable[[], None]
    nominal_s: float

    def time_s(self) -> float:
        start = perf_counter()
        self.task()
        return perf_counter() - start


def _fresh_interpreter() -> None:
    proc = run_python(["-c", STDLIB_IMPORTS])
    if proc.returncode != 0:
        raise SetupError(f"python -c {STDLIB_IMPORTS!r} failed: {proc.stderr.strip()}")


# In-process ops: exact rational elimination on a fixed small matrix.
ELIMINATION = Reference(lambda: gen.rational_rank(REFERENCE_MATRIX), nominal_s=0.0018)
# CLI calls: a fresh interpreter importing the standard-library modules pim uses.
INTERPRETER = Reference(_fresh_interpreter, nominal_s=0.080)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Item:
    """One distinct op input: what to run and how to judge its output."""

    label: str
    group: str
    run: Callable[[], str]  # untraced and traced runs both call this
    validate: Callable[[str], str | None]  # None, or what is wrong


def _check_report(payload: dict, expect: Expected) -> str | None:
    got = (payload.get("n"), payload.get("d"), payload.get("d_eff"), payload.get("scale_invariant"))
    want = (expect.n, expect.d, expect.d_eff, expect.scale_invariant)
    return None if got == want else f"(n, d, d_eff, invariant) = {got}, expected {want}"


def _validate_json(expect: Expected, golden: str | None = None) -> Callable[[str], str | None]:
    def validate(text: str) -> str | None:
        if golden is not None and text != golden:
            return "JSON report differs from the golden file"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return _check_report(payload, expect)

    return validate


def _validate_lines(*lines: str) -> Callable[[str], str | None]:
    """The output must contain each of `lines` as a whole line."""

    def validate(text: str) -> str | None:
        got = set(text.splitlines())
        missing = [line for line in lines if line not in got]
        return f"output lacks {missing}" if missing else None

    return validate


def _validate_text(expect: Expected) -> Callable[[str], str | None]:
    verdict = "yes" if expect.scale_invariant else "no"
    return _validate_lines(f"d = {expect.d}", f"d_eff = {expect.d_eff}", f"scale invariant: {verdict}")


def _validate_check(expect: Expected) -> Callable[[str], str | None]:
    verdict = "yes" if expect.scale_invariant else "no"
    return _validate_lines("model OK", f"quantities: {expect.n}", f"scale invariant: {verdict}")


def _subprocess_op(args: list[str], stdin: str | None = None) -> Callable[[], str]:
    def op() -> str:
        proc = run_python(["-m", "pim", *args], stdin)
        if proc.returncode != 0:
            raise OpFailure(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    return op


def _inprocess_cli_op(pim: Any, command: str, path: str, fmt: str, text: str) -> Callable[[], str]:
    config = pim.cli.CliConfig(command=command, input_path=path, format=fmt)

    def op() -> str:
        code, out, err = pim.cli.run(config, text)
        if code != 0:
            raise OpFailure(f"exit {code}: {err.strip()[-200:]}")
        return out

    return op


def cli_items(pim: Any, in_process: bool) -> list[Item]:
    """Four invocations of each shipped model. In-process items call
    ``pim.cli.run`` on the same input instead of starting a process."""
    golden_path = ROOT / GOLDEN
    if not golden_path.is_file():
        raise SetupError(f"missing {GOLDEN}")
    golden = golden_path.read_text(encoding="utf-8")
    items = []
    for path, expect in SHIPPED.items():
        if not (ROOT / path).is_file():
            raise SetupError(f"missing {path}")
        text = (ROOT / path).read_text(encoding="utf-8")
        name = Path(path).stem
        variants = [
            ("analyze", path, "text", None, _validate_text(expect)),
            ("analyze", path, "json", None,
             _validate_json(expect, golden if path == "models/drag.pim" else None)),
            ("check", path, "text", None, _validate_check(expect)),
            ("analyze", "-", "text", text, _validate_text(expect)),
        ]
        for command, arg, fmt, stdin, validate in variants:
            label = f"{command} {arg}" + (" --format json" if fmt == "json" else "")
            label += f" <{name}" if stdin is not None else ""
            if in_process:
                run = _inprocess_cli_op(pim, command, arg, fmt, text)
            else:
                args = [command, arg] + (["--format", "json"] if fmt == "json" else [])
                run = _subprocess_op(args, stdin)
            items.append(Item(label, name, run, validate))
    return items


def _ladder_op(pim: Any, text: str) -> Callable[[], str]:
    # Resolve the functions through their modules at call time, so the
    # traced run goes through the wrappers.
    modelfile, reduce = pim.modelfile, pim.reduce

    def op() -> str:
        return modelfile.render_report(reduce.analyze(modelfile.parse_model(text)), "json")

    return op


def ladder_item(pim: Any, model: gen.GeneratedModel) -> Item:
    expect = Expected(model.n, model.d, model.d_eff, model.scale_invariant)
    return Item(f"{model.rung}#{model.index}", model.rung, _ladder_op(pim, model.text),
                _validate_json(expect))


def build_items(workload: str, pim: Any, seed: int, in_process: bool) -> list[Item]:
    if workload == "cli_models":
        items = cli_items(pim, in_process)
        random.Random(seed).shuffle(items)
        return items
    models = gen.ladder(seed, ROUNDS[workload], workload == "ladder_pointwise")
    return [ladder_item(pim, model) for model in models]


@dataclass
class Setup:
    pim: Any
    items: list[Item]
    import_s: float  # median fresh-interpreter import of pim.cli
    reference_s: float  # median INTERPRETER reference, timed between the imports
    inputs_s: float  # building the items

    @property
    def setup_s(self) -> float:
        return self.import_s * INTERPRETER.nominal_s / self.reference_s


def setup(workload: str, seed: int, in_process: bool) -> Setup:
    """Import pim here, and time its import in fresh interpreters. Each
    import is followed by the CLI reference task; over seeds 1-10 scaling by
    it cut the quartile spread of ``setup_s`` from 0.06-0.37 to 0.08-0.13."""
    pim = import_pim()
    if workload == "cli_models":
        assert_cli_imports_src()
    cold_import_s()  # untimed: writes the bytecode cache
    import_s, reference_s = [], []
    for _ in range(SETUP_REPS):
        import_s.append(cold_import_s())
        reference_s.append(INTERPRETER.time_s())
    start = perf_counter()
    items = build_items(workload, pim, seed, in_process)
    return Setup(pim, items, statistics.median(import_s), statistics.median(reference_s),
                 perf_counter() - start)


# ---------------------------------------------------------------------------
# timing and checking


@dataclass
class Op:
    item: int
    ms: float  # wall clock
    output_digest: str | None = None
    error: str | None = None
    traced: bool = False
    reference_s: float | None = None  # the reference task, timed right after


def run_op(item: Item) -> tuple[float, str | None, str | None]:
    """Run one op: (wall seconds, output or None, error or None)."""
    start = perf_counter()
    try:
        output = item.run()
    except Exception as exc:  # the engine's failure is what is measured
        return perf_counter() - start, None, f"{type(exc).__name__}: {str(exc)[:160]}"
    return perf_counter() - start, output, None


@dataclass
class Checker:
    """Judges outputs outside the timed region. The first output of each
    item is validated; every later one must be byte-identical to it. An
    item that is wrong, unstable, or raises is a problem, and makes the
    run's verdict false."""

    items: list[Item]
    reference: dict[int, str | None] = field(default_factory=dict)  # None: wrong
    problems: list[str] = field(default_factory=list)

    def see(self, index: int, output: str) -> None:
        if index in self.reference:
            self.see_digest(index, digest(output))
            return
        problem = self.items[index].validate(output)
        if problem is None:
            self.reference[index] = digest(output)
        else:
            self.wrong(index, problem)

    def see_digest(self, index: int, value: str) -> None:
        if self.reference.get(index) not in (None, value):
            self.wrong(index, "output differs between passes")

    def wrong(self, index: int, problem: str) -> None:
        self.problems.append(f"{self.items[index].label}: {problem}")
        self.reference[index] = None

    def judge(self, ops: list[Op], first_output: dict[int, str]) -> None:
        for index, output in first_output.items():
            self.see(index, output)
        raised: dict[int, set[str]] = {}
        for op in ops:
            if op.error is None:
                self.see_digest(op.item, op.output_digest)
            else:
                raised.setdefault(op.item, set()).add(op.error)
        for index, errors in raised.items():
            some = "on some runs only: " if index in first_output else ""
            self.wrong(index, f"raised {some}{sorted(errors)[0]}")

    def ok(self, op: Op) -> bool:
        return op.error is None and self.reference.get(op.item) == op.output_digest


def _measure(index: int, item: Item, first_output: dict[int, str], traced: bool = False) -> Op:
    elapsed, output, error = run_op(item)
    op = Op(index, 1000 * elapsed, error=error, traced=traced)
    if output is not None:
        op.output_digest = digest(output)
        first_output.setdefault(index, output)
    return op


def timed_loop(
    items: list[Item],
    seconds: float,
    checker: Checker,
    traced: Callable[[Callable[[], Op]], Op] | None = None,
    reference: Reference | None = None,
) -> list[Op]:
    """Make whole passes over the items until `seconds` have passed, then
    judge every output. With `reference`, the reference task is timed after
    every op. With `traced`, each op is repeated through ``traced(measure)``,
    which runs ``measure`` with the tracer installed; the repetition is an
    op of its own with ``traced`` set. It runs after the untraced op for
    even items and before it for odd ones, so that neither gains from
    following the other."""
    ops: list[Op] = []
    first_output: dict[int, str] = {}
    start = perf_counter()
    while True:
        for index, item in enumerate(items):
            if traced is not None and index % 2:
                ops.append(traced(lambda: _measure(index, item, first_output, traced=True)))
            ops.append(_measure(index, item, first_output))
            if reference is not None:
                ops[-1].reference_s = reference.time_s()
            if traced is not None and not index % 2:
                ops.append(traced(lambda: _measure(index, item, first_output, traced=True)))
        if perf_counter() - start >= seconds:
            break
    # Outside the timed region: if each item ran once, a second, untimed
    # run of each that did not raise, so that every output is compared
    # across two runs.
    again = []
    if len(ops) == len(items):
        again = [_measure(op.item, items[op.item], first_output) for op in ops if op.error is None]
    checker.judge(ops + again, first_output)
    return ops


# An op is scaled by the median of the 2 * RADIUS + 1 reference times nearest it.
REFERENCE_RADIUS = 2


def scaled_ms(ops: list[Op], reference: Reference) -> list[float]:
    times = [op.reference_s for op in ops]
    r = REFERENCE_RADIUS
    return [
        op.ms * reference.nominal_s / statistics.median(times[max(0, i - r) : i + r + 1])
        for i, op in enumerate(ops)
    ]


@dataclass(frozen=True)
class OpStats:
    p50_ms: float
    p90_ms: float
    p90_q: float  # the percentile op_ms_p90 reports (see op_stats)
    ops_per_s: float


def op_stats(ops: list[Op], ms: list[float], ok: Callable[[Op], bool]) -> OpStats:
    """Latency percentiles and throughput of `ops`, whose times are `ms`.

    A failed op misses any latency limit, so it ranks above every
    successful op, and its time is left out of ``ops_per_s``. The p90 is the highest percentile up to 90 with at least ten samples
    beyond it."""
    ranked = [t for _, t in sorted((not ok(op), t) for op, t in zip(ops, ms))]
    n = len(ranked)
    q = max(0.5, min(0.9, (n - 10) / n))
    good = [t for op, t in zip(ops, ms) if ok(op)]
    return OpStats(
        p50_ms=(ranked[(n - 1) // 2] + ranked[n // 2]) / 2,
        p90_ms=ranked[max(0, math.ceil(q * n) - 1)],
        p90_q=q,
        ops_per_s=1000 * len(good) / sum(good) if good else 0.0,
    )


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> function key whose mean self time per op it reports
SELF_MS = {
    "modelfile.parse_ms": "modelfile.parse_model",
    "modelfile.render_json_ms": "modelfile.render_report.json",
    "modelfile.render_text_ms": "modelfile.render_report.text",
    "model.dimension_matrix_ms": "model.build_dimension_matrix",
    "model.pi_basis_ms": "model.pi_basis",
    "reduce.effective_counts_ms": "reduce.effective_counts",
    "reduce.redundancy_matrix_ms": "reduce.redundancy_matrix",
    "reduce.invariance_ms": "reduce.check_scale_invariance",
    "reduce.jacobian_ms": "reduce.constraint_jacobian",
    "reduce.analyze_self_ms": "reduce.analyze",
    "ratlin.rank_ms": "ratlin.rank",
    "ratlin.rref_ms": "ratlin.rref",
    "ratlin.rref_with_transform_ms": "ratlin.rref_with_transform",
    "ratlin.nullspace_ms": "ratlin.nullspace_basis",
    "ratlin.row_intersection_ms": "ratlin.row_intersection_dim",
    "ratlin.gram_solve_ms": "ratlin.gram_solve",
    "ratlin.exact_pow_ms": "ratlin.exact_pow",
}
# metric -> function key whose mean calls per op it reports
CALLS = {
    "reduce.redundancy_matrix_calls": "reduce.redundancy_matrix",
    "ratlin.rank_calls": "ratlin.rank",
    "ratlin.rref_calls": "ratlin.rref",
    "ratlin.exact_pow_calls": "ratlin.exact_pow",
}
BITS = (
    "model.E_max_bits",
    "reduce.C_max_bits",
    "reduce.rref_C_max_bits",
    "reduce.k_exponent_max_bits",
    "reduce.constant_max_bits",
)


def _function_of(key: str) -> str:
    return key.removesuffix(".json").removesuffix(".text")


def layer_metrics(tracer: spans.Tracer, n_ops: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from a tracer, and the named functions it lacked."""
    metrics: dict[str, tuple[float, str]] = {}
    absent = sorted(
        {_function_of(k) for k in (*SELF_MS.values(), *CALLS.values())}
        - set(tracer.functions)
    )
    for name, key in SELF_MS.items():
        metrics[name] = (1000 * tracer.self_s.get(key, 0.0) / n_ops, "ms")
    for name, key in CALLS.items():
        metrics[name] = (tracer.calls.get(key, 0) / n_ops, "count")
    metrics["ratlin.elim_cells"] = (tracer.elim_cells / n_ops, "count")
    return metrics, absent


class TracedRepeat:
    """Runs an op's traced repetition, and keeps per group the largest
    coefficient sizes seen and, for ops that raised, the stages completed."""

    def __init__(self, items: list[Item]) -> None:
        self.items = items
        self.tracer = spans.Tracer()
        self.bits: dict[str, dict[str, int]] = {}
        self.stages: dict[str, dict[str, int]] = {}

    def __call__(self, measure: Callable[[], Op]) -> Op:
        self.tracer.begin_op()
        self.tracer.install()
        try:
            op = measure()
        finally:
            self.tracer.uninstall()
        group = self.items[op.item].group
        group_bits = self.bits.setdefault(group, {})
        for name, value in self.tracer.op_bits.items():
            group_bits[name] = max(group_bits.get(name, 0), value)
        if op.error is not None:
            done = " > ".join(self.tracer.op_completed) or "nothing"
            what = f"{op.error.split(':')[0]} after {done}"
            counts = self.stages.setdefault(group, {})
            counts[what] = counts.get(what, 0) + 1
        return op


@dataclass
class ProbeResult:
    ops: list[Op]
    repeat: TracedRepeat
    problems: list[str]

    @property
    def failed_share(self) -> float:
        return sum(op.error is not None for op in self.ops) / len(self.ops)


def constant_probe(
    pim: Any, seed: int, count: int = PROBE_MODELS, rung: gen.Rung = gen.STRESS
) -> ProbeResult:
    """Analyze each of `count` models of `rung` with random constants once,
    traced. An op that raises the int-to-str ``ValueError`` is what the probe
    counts; any other error, or a wrong answer, is a problem."""
    items = [ladder_item(pim, model) for model in gen.constant_probe(seed, count, rung)]
    repeat = TracedRepeat(items)
    outputs: dict[int, str] = {}
    ops = []
    for index, item in enumerate(items):
        ops.append(repeat(lambda: _measure(index, item, outputs, traced=True)))
    problems = [f"{items[op.item].label}: raised {op.error}"
                for op in ops if op.error is not None and not op.error.startswith(INT_STR_LIMIT)]
    for index, output in outputs.items():
        problem = items[index].validate(output)
        if problem is not None:
            problems.append(f"{items[index].label}: {problem}")
    return ProbeResult(ops, repeat, problems)


def python_start_ms() -> float:
    """Median wall time of ``python -c pass``, in ms."""
    times = []
    for _ in range(CLI_PROBE_REPS):
        start = perf_counter()
        proc = run_python(["-c", "pass"])
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"python -c pass failed: {proc.stderr.strip()}")
    return 1000 * statistics.median(times)


# ---------------------------------------------------------------------------
# runs


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def per_group_table(items: list[Item], ops: list[Op], checker: Checker) -> list[str]:
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(items[op.item].group, []).append(op)
    lines = [f"{'group':<10}{'ops':>6}{'failed':>8}{'raw p50':>10}{'raw max':>10}  errors"]
    for group, members in groups.items():
        ms = [op.ms for op in members]
        errors = sorted({op.error.split(":")[0] for op in members if op.error})
        bad = sum(not checker.ok(op) for op in members)
        lines.append(f"{group:<10}{len(members):>6}{bad:>8}{statistics.median(ms):>10.2f}"
                     f"{max(ms):>10.2f}  {', '.join(errors)}")
    return lines


def untraced_run(workload: str, seed: int, seconds: float) -> Result:
    cli = workload == "cli_models"
    prepared = setup(workload, seed, in_process=False)
    items = prepared.items
    run_op(items[0])  # warm-up: caches, first-call costs
    checker = Checker(items)
    reference = INTERPRETER if cli else ELIMINATION
    ops = timed_loop(items, seconds, checker, reference=reference)
    failed = sum(not checker.ok(op) for op in ops)
    raw_ms = [op.ms for op in ops]
    ms = scaled_ms(ops, reference)
    reference_s = statistics.median(op.reference_s for op in ops)
    factor = statistics.median(t / op.ms for op, t in zip(ops, ms))
    raw = op_stats(ops, raw_ms, checker.ok)
    scaled = op_stats(ops, ms, checker.ok)
    notes = [
        f"raw op_ms_p50 {raw.p50_ms} op_ms_p90 {raw.p90_ms} ops_per_s {raw.ops_per_s} "
        f"reference_ms {1000 * reference_s} factor {factor} setup_s {prepared.import_s}",
        f"ops {len(ops)}, failed {failed} (failed_share {failed / len(ops):.4f}), "
        f"distinct inputs {len(items)}",
        f"op_ms_p90 is the p{100 * scaled.p90_q:.1f} of {len(ops)} samples",
        f"setup: import pim.cli median {1000 * prepared.import_s:.2f} ms of {SETUP_REPS}, "
        f"reference {1000 * prepared.reference_s:.2f} ms; building the inputs "
        f"{1000 * prepared.inputs_s:.2f} ms (not in setup_s)",
    ]
    notes += per_group_table(items, ops, checker)
    notes += [f"WRONG {p}" for p in checker.problems]
    metrics = {
        "op_ms_p50": (scaled.p50_ms, "ms"),
        "op_ms_p90": (scaled.p90_ms, "ms"),
        "ops_per_s": (scaled.ops_per_s, "1/s"),
        "setup_s": (prepared.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(children=cli), "MB"),
    }
    return Result(not checker.problems, len(ops), failed, metrics, notes)


def traced_run(workload: str, seed: int, seconds: float) -> Result:
    """Each op runs untraced, then traced; the per-layer metrics come from
    the traced runs and the overhead is the difference of their medians."""
    cli = workload == "cli_models"
    prepared = setup(workload, seed, in_process=True)
    items = prepared.items
    start_ms = python_start_ms()
    run_op(items[0])
    checker = Checker(items)
    repeat = TracedRepeat(items)
    ops = timed_loop(items, seconds, checker, repeat)
    plain = [op for op in ops if not op.traced]
    failed = sum(not checker.ok(op) for op in plain)
    plain_p50 = statistics.median(op.ms for op in plain)
    traced_p50 = statistics.median(op.ms for op in ops if op.traced)
    layer, absent = layer_metrics(repeat.tracer, len(plain))
    problems = list(checker.problems)
    probe_share = probe_ms = 0.0
    if workload == "ladder_invariant":
        probe = constant_probe(prepared.pim, seed)
        problems += probe.problems
        probe_share = probe.failed_share
        probe_ms = statistics.median(op.ms for op in probe.ops)
        repeat.bits["constants"] = probe.repeat.bits[gen.STRESS.name]
        if gen.STRESS.name in probe.repeat.stages:
            repeat.stages["constants"] = probe.repeat.stages[gen.STRESS.name]
    metrics: dict[str, tuple[float, str]] = {
        "cli.python_start_ms": (start_ms, "ms"),
        "cli.import_ms": (1000 * prepared.import_s, "ms"),
        "cli.run_ms": (plain_p50 if cli else 0.0, "ms"),
    }
    metrics.update(layer)
    for name in BITS:
        metrics[name] = (max((g.get(name, 0) for g in repeat.bits.values()), default=0), "bits")
    metrics.update({
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - plain_p50, "ms"),
        "trace.absent_functions": (len(absent), "count"),
        "constants.failed_share": (probe_share, "share"),
        "constants.op_ms_p50": (probe_ms, "ms"),
    })
    notes = [
        f"traced ops {len(plain)}, failed {failed}; untraced p50 {plain_p50:.3f} ms, "
        f"traced p50 {traced_p50:.3f} ms",
        "absent functions: " + (", ".join(absent) if absent else "none"),
        "max entry bits per group (E, C, rref_C, k exponent, constant):",
    ]
    for group, values in repeat.bits.items():
        notes.append(f"  {group:<10}" + " ".join(f"{values.get(b, 0):>7}" for b in BITS))
    for group, counts in repeat.stages.items():
        for what, count in counts.items():
            notes.append(f"  {group}: {count} raised {what}")
    if workload == "ladder_invariant":
        notes.append(f"constant probe: {PROBE_MODELS} {gen.STRESS.name} models with random "
                     f"constants, {probe_share:.4f} raised, median {probe_ms:.2f} ms")
    notes += [f"WRONG {p}" for p in problems]
    return Result(not problems, len(plain), failed, metrics, notes)


def machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} cpus, {cpu}, Python {platform.python_version()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed {args.seed} trace {args.trace} on {machine()}", file=sys.stderr)
    for note in result.notes:
        print(f"# {note}", file=sys.stderr)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<32}{value:>14.4f} {unit}", file=sys.stderr)
    print(f"correct: {'PASS' if result.correct else 'FAIL'}", file=sys.stderr)
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
