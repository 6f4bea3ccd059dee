"""Self-test of the benchmark: the smallest rung of each ladder, one CLI
call, the tracer, the constant probe, and the result line. Runs in seconds:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))
import pim  # noqa: E402
import pim.cli  # noqa: E402

SMALLEST = gen.RUNGS[0]


def smallest_items(pointwise: bool, count: int = 3) -> tuple[list[gen.GeneratedModel], list[run.Item]]:
    rng = random.Random(f"self-test:{pointwise}")
    models = [gen.make_model(rng, SMALLEST, i, pointwise) for i in range(count)]
    items = [run.ladder_item(pim, m) for m in models]
    return models, items


def test_pim_is_imported_from_src():
    assert Path(pim.__file__).resolve().parent == (run.SRC / "pim").resolve()
    run.assert_cli_imports_src()


def test_generator_is_deterministic_per_seed():
    first = [m.text for m in gen.ladder(7, 1, pointwise=False)]
    assert first == [m.text for m in gen.ladder(7, 1, pointwise=False)]
    assert first != [m.text for m in gen.ladder(8, 1, pointwise=False)]
    assert [m.rung for m in gen.ladder(7, 2, pointwise=True)] == [r.name for r in gen.ROUND] * 2


def test_smallest_rungs_have_the_constructed_answers():
    for pointwise in (False, True):
        models, _ = smallest_items(pointwise)
        for m in models:
            report = pim.analyze(pim.parse_model(m.text))
            assert (report.n, report.m, report.ell) == (m.n, m.m, m.ell)
            assert (report.d, report.d_eff) == (m.d, m.d_eff)
            assert report.scale_invariant is (not pointwise)


def test_timed_loop_checks_every_output():
    _, items = smallest_items(pointwise=False)
    checker = run.Checker(items)
    ops = run.timed_loop(items, 0.05, checker, reference=run.ELIMINATION)
    assert ops and len(ops) % len(items) == 0
    assert not checker.problems
    assert all(checker.ok(op) and op.ms > 0 and op.reference_s > 0 for op in ops)
    assert all(op.output_digest == checker.reference[op.item] for op in ops)


def test_wrong_answer_fails_the_op():
    models, items = smallest_items(pointwise=True, count=1)
    wrong = run.Expected(models[0].n, models[0].d, models[0].d_eff + 1, False)
    items[0].validate = run._validate_json(wrong)
    checker = run.Checker(items)
    ops = run.timed_loop(items, 0.01, checker)
    assert not any(checker.ok(op) for op in ops) and checker.problems


def _raising(message: str):
    def op() -> str:
        raise ValueError(message)

    return op


def test_a_failing_op_makes_the_verdict_false(monkeypatch):
    _, items = smallest_items(pointwise=False, count=2)
    items[1].run = run._subprocess_op(["no-such-command", "models/drag.pim"])
    monkeypatch.setattr(run, "build_items", lambda *args: items)
    result = run.untraced_run("ladder_invariant", seed=1, seconds=0.01)
    assert not result.correct
    assert result.failed == result.attempted // 2
    assert any("OpFailure: exit 2" in note for note in result.notes)


INT_STR_ERROR = "Exceeds the limit (4300 digits) for integer string conversion: value has 4301 digits"


def test_int_str_limit_in_a_workload_makes_the_verdict_false():
    _, items = smallest_items(pointwise=False, count=1)
    items[0].run = _raising(INT_STR_ERROR)
    checker = run.Checker(items)
    ops = run.timed_loop(items, 0.01, checker)
    assert not any(checker.ok(op) for op in ops) and checker.problems


def test_constant_probe_counts_the_int_str_limit_and_nothing_else(monkeypatch):
    probe = run.constant_probe(pim, seed=1, count=3, rung=SMALLEST)
    assert probe.failed_share == 0 and not probe.problems
    assert probe.repeat.bits[SMALLEST.name]["reduce.constant_max_bits"] > 1
    monkeypatch.setattr(run, "_ladder_op", lambda pim, text: _raising(INT_STR_ERROR))
    probe = run.constant_probe(pim, seed=1, count=3, rung=SMALLEST)
    assert probe.failed_share == 1 and not probe.problems
    assert probe.repeat.stages[SMALLEST.name] == {"ValueError after nothing": 3}
    monkeypatch.setattr(run, "_ladder_op", lambda pim, text: _raising("math domain error"))
    assert run.constant_probe(pim, seed=1, count=3, rung=SMALLEST).problems


def test_an_op_that_raises_on_some_passes_only_is_wrong():
    _, items = smallest_items(pointwise=False, count=1)
    good, calls = items[0].run, []

    def flaky() -> str:
        calls.append(None)
        if len(calls) == 2:
            raise ValueError(INT_STR_ERROR)
        return good()

    items[0].run = flaky
    checker = run.Checker(items)
    run.timed_loop(items, 0.01, checker)
    assert checker.problems


def test_a_failed_op_ranks_slowest_and_is_left_out_of_throughput():
    ops = [run.Op(0, ms) for ms in (1.0, 2.0, 3.0)] + [run.Op(1, 0.5, error="ValueError: x")]
    stats = run.op_stats(ops, [2.0 * op.ms for op in ops], lambda op: op.error is None)
    assert stats.p50_ms == 2.0 * (2.0 + 3.0) / 2
    assert stats.p90_q == 0.5 and stats.p90_ms == 2.0 * 2.0
    assert stats.ops_per_s == 1000 * 3 / (2.0 * 6.0)


def test_one_cli_call_matches_the_golden_file():
    items = run.cli_items(pim, in_process=False)
    item = next(i for i in items if i.label == "analyze models/drag.pim --format json")
    _, output, error = run.run_op(item)
    assert error is None
    assert item.validate(output) is None


def test_tracer_counts_once_and_restores_the_functions():
    _, items = smallest_items(pointwise=False, count=1)
    originals = {name: getattr(pim.ratlin, name) for name in ("rank", "rref")}
    tracer = spans.Tracer()
    tracer.begin_op()
    tracer.install()
    try:
        items[0].run()
    finally:
        tracer.uninstall()
    assert {name: getattr(pim.ratlin, name) for name in originals} == originals
    assert pim.reduce.rank is originals["rank"]
    assert tracer.calls["reduce.analyze"] == 1
    assert tracer.calls["modelfile.render_report.json"] == 1
    assert tracer.calls["reduce.redundancy_matrix"] == 2
    assert tracer.elim_cells > 0
    assert all(t >= -1e-6 for t in tracer.self_s.values())
    assert list(tracer.op_completed)[:3] == [
        "modelfile.parse_model", "model.build_dimension_matrix", "model.pi_basis"]
    assert set(tracer.op_bits) >= {"model.E_max_bits", "reduce.C_max_bits"}


def test_traced_loop_repeats_each_op_under_the_tracer():
    _, items = smallest_items(pointwise=False, count=2)
    repeat = run.TracedRepeat(items)
    checker = run.Checker(items)
    ops = run.timed_loop(items, 0.01, checker, traced=repeat)
    assert [(op.item, op.traced) for op in ops[:4]] == [(0, False), (0, True), (1, True), (1, False)]
    assert all(checker.ok(op) for op in ops)
    assert repeat.tracer.calls["reduce.analyze"] == len(ops) // 2
    assert set(repeat.bits[SMALLEST.name]) >= {"model.E_max_bits", "reduce.C_max_bits"}


def test_missing_function_is_reported_absent():
    tracer = spans.Tracer()
    del tracer.functions["ratlin.gram_solve"]
    metrics, absent = run.layer_metrics(tracer, n_ops=1)
    assert absent == ["ratlin.gram_solve"]
    assert metrics["ratlin.gram_solve_ms"] == (0.0, "ms")


def test_result_lines_have_every_metric():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "cli_models",
             "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in config[kind]}
        units = {m["name"]: m["unit"] for m in config[kind]}
        assert all(m["unit"] == units[name] for name, m in result["metrics"].items())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder_pointwise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
