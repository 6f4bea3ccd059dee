from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pim.cli import CliConfig, main, run
from pim.modelfile import parse_model, render_report
from pim.reduce import InvariantViolation, analyze

import pim.cli as cli_module


def _analyze(fmt: str = "text", strict: bool = False) -> CliConfig:
    return CliConfig(command="analyze", input_path="test.pim", format=fmt, strict=strict)


NON_INVARIANT = (
    "dimensions: M\n"
    "quantity a = M\n"
    "quantity b = M\n"
    "jacobian_row: 1, 0\n"
)


def test_run_analyze_text(drag_text):
    code, out, err = run(_analyze(), drag_text)
    assert code == 0
    assert "d_eff = 2" in out
    assert err == ""


def test_run_analyze_json(drag_text):
    code, out, err = run(_analyze("json"), drag_text)
    assert code == 0
    payload = json.loads(out)
    assert payload["d_eff"] == 2
    assert err == ""


def test_run_check(drag_text):
    config = CliConfig(command="check", input_path="drag.pim")
    code, out, err = run(config, drag_text)
    assert code == 0
    assert "model OK" in out
    assert "scale invariant: yes" in out


def test_run_parse_error_exit_1():
    config = CliConfig(command="check", input_path="bad.pim")
    text = "dimensions: M\nquantity x = M\nconstraint x * y = 1\n"
    code, out, err = run(config, text)
    assert code == 1
    assert out == ""
    assert "bad.pim:3:16: error[unknown-quantity]" in err


def test_run_parse_error_json_mode_keeps_stdout_empty():
    code, out, err = run(_analyze("json"), "garbage\n")
    assert code == 1
    assert out == ""
    assert err != ""


def test_run_strict_non_invariant_exit_2():
    code, out, err = run(_analyze(strict=True), NON_INVARIANT)
    assert code == 2
    assert out == ""
    assert "J @ A^T != 0" in err


def test_run_permissive_non_invariant_warns():
    code, out, err = run(_analyze(), NON_INVARIANT)
    assert code == 0
    assert "scale invariant: no" in out
    # the warning is part of the report, not repeated on stderr
    assert "warning:" in out
    assert err == ""


def test_run_invalid_basis_override_exit_1():
    text = (
        "dimensions: M\n"
        "quantity a = M\n"
        "quantity b = M\n"
        "basis_override:\n"
        "1, 0\n"  # not in the kernel: a alone is dimensionful
    )
    code, out, err = run(_analyze(), text)
    assert code == 1
    assert out == ""
    assert "kernel" in err


def test_run_huge_root_in_a_relation_constant_stays_symbolic():
    # The relation constant is 2^(1/10^12); its root used to be sought by
    # Newton iteration on 2 ** (10^12 - 1).
    text = (
        "dimensions: M\nquantity x = M\nquantity y = M\n"
        "constraint x^1000000000000 / y^1000000000000 = 2\n"
    )
    started = time.perf_counter()
    code, out, err = run(_analyze(), text)
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    assert "relation: pi1 = K1^(1/1000000000000)\n" in out


_OVERRIDE_BASE = "dimensions: M\nquantity a = M\nquantity b = M\n"
BAD_OVERRIDES = {
    "not-in-kernel": _OVERRIDE_BASE + "basis_override:\n1, 0\n",
    "too-few-columns": _OVERRIDE_BASE + "quantity c = 1\nbasis_override:\n0, 0, 1\n",
    "rank-deficient": _OVERRIDE_BASE + "quantity c = 1\nbasis_override:\n1, -1, 0\n2, -2, 0\n",
    "empty-block": _OVERRIDE_BASE + "basis_override:\n",
}


def _long_exponent_model(a: int, b: int) -> str:
    # The pi group is x^b * y^a / z^(a*b).
    return f"dimensions: M, L\nquantity x = M^{a}\nquantity y = L^{b}\nquantity z = M L\n"


# a*b = 10^4300 + 10^2150 has 4,301 digits, one past CPython's int-to-str limit
TOO_LONG_TO_PRINT = _long_exponent_model(10**2150, 10**2150 + 1)


def _check_inputs() -> list:
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "models").glob("*.pim")) + sorted((root / "tests" / "models").glob("*.pim"))
    cases = [pytest.param(p.read_text(encoding="utf-8"), id=p.name) for p in files]
    cases += [pytest.param(text, id=name) for name, text in BAD_OVERRIDES.items()]
    return cases + [pytest.param(TOO_LONG_TO_PRINT, id="too-long-to-print")]


@pytest.mark.parametrize("text", _check_inputs())
def test_check_refuses_what_analyze_refuses(text: str):
    code, out, err = run(CliConfig(command="check", input_path="m.pim"), text)
    want_code, _, want_err = run(_analyze(), text)
    assert (code, err) == (want_code, want_err)
    if code == 0:
        assert out.startswith("model OK\n")
    else:
        assert out == ""
        assert err.startswith("error: ")


def test_run_empty_basis_override_block_is_a_zero_column_override():
    for command in ("analyze", "check"):
        code, out, err = run(CliConfig(command, "m.pim"), BAD_OVERRIDES["empty-block"])
        assert (code, out) == (1, "")
        assert err == "error: basis override has 0 columns but the kernel has dimension 1\n"


def test_run_internal_invariant_violation_exit_3(monkeypatch, drag_text):
    def boom(model):
        raise InvariantViolation("formulas disagree")

    monkeypatch.setattr(cli_module, "analyze", boom)
    code, out, err = run(_analyze(), drag_text)
    assert code == 3
    assert out == ""
    assert "internal error" in err


def test_main_unexpected_error_exit_3(monkeypatch, tmp_path: Path, capsys, drag_text):
    def boom(model):
        raise ValueError(
            "Exceeds the limit (4300 digits) for integer string conversion;\n"
            "use sys.set_int_max_str_digits() to increase the limit"
        )

    monkeypatch.setattr(cli_module, "analyze", boom)
    path = tmp_path / "drag.pim"
    path.write_text(drag_text, encoding="utf-8")
    assert main(["analyze", str(path), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ValueError: Exceeds the limit")
    assert captured.err.count("\n") == 1


MULTI_LINE = (
    "Exceeds the limit (4300 digits) for integer string conversion;\n"
    "  use sys.set_int_max_str_digits()\n"
)


@pytest.mark.parametrize("exc, line", [
    (InvariantViolation("formulas disagree"), "InvariantViolation: formulas disagree"),
    (ValueError(MULTI_LINE), "ValueError: Exceeds the limit (4300 digits) for integer "
     "string conversion; use sys.set_int_max_str_digits()"),
    (RuntimeError(" \n "), "RuntimeError: no message"),
])
@pytest.mark.parametrize("target", ["analyze", "render_report"])
def test_unexpected_error_is_one_internal_error_line(
    monkeypatch, tmp_path: Path, capsys, drag_text, target: str, exc: Exception, line: str
):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_module, target, boom)
    expected = f"internal error: {line}\n"
    assert run(_analyze(), drag_text) == (3, "", expected)
    path = tmp_path / "drag.pim"
    path.write_text(drag_text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr() == ("", expected)


_ANSI_RE = re.compile(r"\x1b\[[0-9;]*m")


@pytest.mark.parametrize("invariant", [True, False])
def test_colored_text_is_the_plain_report_painted(drag_text, invariant: bool):
    text = drag_text if invariant else NON_INVARIANT
    report = analyze(parse_model(text))
    plain = render_report(report, "text")
    colored = render_report(report, "text", color=True)
    assert run(CliConfig(command="analyze", input_path="m.pim", color=True), text) == (
        0, colored, ""
    )
    assert _ANSI_RE.sub("", colored) == plain
    verdict = "\x1b[32myes\x1b[0m" if invariant else "\x1b[31mno\x1b[0m"
    assert f"\nscale invariant: {verdict}\n" in colored
    warnings = [line for line in plain.splitlines() if line.startswith("warning: ")]
    assert bool(warnings) is not invariant
    for warning in warnings:
        assert f"\n\x1b[33m{warning}\x1b[0m\n" in colored


def test_run_deterministic(drag_text):
    for fmt in ("text", "json"):
        first = run(_analyze(fmt), drag_text)
        second = run(_analyze(fmt), drag_text)
        assert first == second


def test_main_analyze_file(tmp_path: Path, capsys, drag_text):
    path = tmp_path / "drag.pim"
    path.write_text(drag_text, encoding="utf-8")
    assert main(["analyze", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["d_eff"] == 2
    assert captured.err == ""


def test_main_reads_stdin(monkeypatch, capsys, drag_text):
    stdin = io.TextIOWrapper(io.BytesIO(drag_text.encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr(cli_module.sys, "stdin", stdin)
    assert main(["check", "-"]) == 0
    captured = capsys.readouterr()
    assert "model OK" in captured.out


def test_main_missing_file(tmp_path: Path, capsys):
    assert main(["analyze", str(tmp_path / "nope.pim")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read" in captured.err


def test_main_file_that_is_not_utf8_cannot_be_read(tmp_path: Path, capsys):
    path = tmp_path / "latin1.pim"
    path.write_bytes(b"dimensions: M\nquantity caf\xe9 = M\n")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_main_reads_a_file_with_a_byte_order_mark(tmp_path: Path, capsys, drag_text):
    path = tmp_path / "bom.pim"
    path.write_bytes(b"\xef\xbb\xbf" + drag_text.encode("utf-8"))
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert "d_eff = 2" in captured.out
    assert captured.err == ""


def test_main_analyze_deeply_nested_constraint(tmp_path: Path, capsys):
    # monomial parentheses nest to any depth; this once exhausted the stack
    path = tmp_path / "nested.pim"
    nested = "(" * 5000 + "a / b" + ")" * 5000
    path.write_text(
        f"dimensions: M\nquantity a = M\nquantity b = M\nconstraint {nested} = 2\n",
        encoding="utf-8",
    )
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert "relation: pi1 = 2" in captured.out
    assert captured.err == ""


def test_main_strict_flag(tmp_path: Path, capsys):
    path = tmp_path / "raw.pim"
    path.write_text(NON_INVARIANT, encoding="utf-8")
    assert main(["analyze", str(path), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["analyze"], ["bogus", "x"], ["analyze", "models/drag.pim", "--format", "xml"],
])
def test_main_usage_error_exit_1(argv: list[str], capsys):
    # exit 2 belongs to --strict's verdict, not to a mistyped command line
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pim")


def test_main_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pim")


def test_want_color_respects_env(monkeypatch):
    monkeypatch.setattr(cli_module.sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.setenv("PIM_COLOR", "0")
    assert cli_module._want_color() is False
    monkeypatch.setenv("PIM_COLOR", "1")
    assert cli_module._want_color() is True


def test_golden_json_report(repo_root: Path):
    model_text = (repo_root / "models" / "drag.pim").read_text(encoding="utf-8")
    golden = (repo_root / "tests" / "golden" / "drag_report.json").read_text(
        encoding="utf-8"
    )
    config = CliConfig(command="analyze", input_path="models/drag.pim", format="json")
    code, out, err = run(config, model_text)
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", ["drag", "drag_auto", "pendulum"])
def test_golden_reports_of_shipped_models(repo_root: Path, name: str, fmt: str, suffix: str):
    path = f"models/{name}.pim"
    golden = repo_root / "tests" / "golden" / f"{name}_report.{suffix}"
    config = CliConfig(command="analyze", input_path=path, format=fmt)
    code, out, err = run(config, (repo_root / path).read_text(encoding="utf-8"))
    assert (code, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


def test_main_large_relation_constant_is_symbolic(repo_root: Path, capsys):
    # 7^-20000 has about 16,900 digits, past CPython's int-to-str limit
    path = repo_root / "tests" / "models" / "large_constant.pim"
    assert main(["analyze", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    relations = json.loads(captured.out)["relations"]
    assert [r["constant"] for r in relations] == ["7", None]
    assert relations[1]["label"] == "pi2 = K1^(-20000) * K2"


BIG = "7" * 5000  # past CPython's 4,300-digit limit on int-from-str


@pytest.mark.parametrize(
    "source, code",
    [
        (f"quantity x = 1\nconstraint x = {BIG}\n", "bad-constant"),
        (f"quantity x = M^1/{BIG}\n", "bad-exponent"),
        (f"quantity x = 1\nconstraint x^{BIG} = 1\n", "bad-exponent"),
        (f"quantity x = 1\nquantity y = 1\njacobian_row: 1, -{BIG}\n", "syntax"),
        (f"quantity x = 1\nbasis_override:\n{BIG}\n", "syntax"),
    ],
    ids=["constant", "dimension-exponent", "monomial-exponent", "jacobian-row", "basis-override"],
)
def test_run_oversized_literal_is_a_parse_error(source: str, code: str):
    config = CliConfig(command="check", input_path="big.pim")
    exit_code, out, err = run(config, "dimensions: M\n" + source)
    assert (exit_code, out) == (1, "")
    assert err.count("\n") == 1
    assert f"error[{code}]: number has 5000 digits" in err
    assert "7" * 100 not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_number_too_long_to_print_is_a_model_error(fmt: str):
    code, out, err = run(_analyze(fmt), TOO_LONG_TO_PRINT)
    assert (code, out) == (1, "")
    assert err == (
        "error: pi group 1 has a number of 4301 digits, more than the 4300 that can be printed\n"
    )
    assert run(CliConfig(command="check", input_path="big.pim"), TOO_LONG_TO_PRINT) == (
        code, out, err
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_number_at_the_print_limit_prints(fmt: str):
    # a*b = 9*10^4299 + 9*10^2149 has exactly 4,300 digits and 14,285 bits,
    # too many bits to pass without comparing it to 10^4300
    code, out, err = run(_analyze(fmt), _long_exponent_model(9 * 10**2149, 10**2150 + 1))
    assert (code, err) == (0, "")
    assert str(9 * 10**4299 + 9 * 10**2149) in out


def test_run_long_matrix_entry_is_named():
    # Two 4,300-digit exponents of M add up to 4,301 digits in A only: x is in
    # no pi group, and the one group y / z is short.
    nines = "9" * 4300
    text = (
        f"dimensions: M, L\nquantity x = M^{nines} M^{nines}\n"
        "quantity y = L\nquantity z = L\n"
    )
    code, out, err = run(_analyze(), text)
    assert (code, out) == (1, "")
    assert err.startswith("error: matrix A has a number of 4301 digits")


def test_import_loads_neither_dataclasses_nor_inspect():
    # Together they took about two thirds of the CLI's import time.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, pim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
