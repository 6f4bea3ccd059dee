"""The command line: cli.run on model text and cli.main on argv, files and
the standard streams.

Exit codes and what each path writes to stdout and stderr (0 a report, 1 a
refused input or usage, 2 a non-invariant model under --strict, 3 an engine
bug), the hand-read command line against argparse, the golden text and JSON
reports of every model under models/, refusals that check and analyze share,
closed or full standard streams, and which modules a command line loads.
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pim._usage import _read_with_argparse
from pim.cli import CliConfig, main, run
from pim.modelfile import parse_model, render_report
from pim.reduce import InvariantViolation, analyze

import pim.cli as cli_module

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "models").glob("*.pim"))


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


_NO_DIRECTIVE = (
    "error[syntax]: expected one of: dimensions:, quantity, constraint, jacobian_row:, repeating:"
)


def test_run_line_with_no_directive_exit_1():
    # basis_override:, the retired directive, starts with none; the error
    # names the ones there are
    text = "dimensions: M\nquantity a = M\nquantity b = M\nbasis_override:\n"
    code, out, err = run(_analyze(), text)
    assert (code, out) == (1, "")
    assert err == f"test.pim:4:1: {_NO_DIRECTIVE}\n"


_REPEATING_BASE = "dimensions: M, L\nquantity a = M\nquantity b = M\nquantity c = L\n"
REPEATING_REFUSALS = {
    "unknown": ("repeating: a, z\n",
                "test.pim:5:15: error[unknown-quantity]: unknown quantity 'z'"),
    "repeated": ("repeating: a, a\n",
                 "test.pim:5:15: error[duplicate-name]: duplicate repeating quantity 'a'"),
    "second-line": ("repeating: a, c\nrepeating: b, c\n",
                    "test.pim:6:1: error[duplicate-name]: duplicate repeating declaration"),
    "empty": ("repeating:\n",
              "test.pim:5:11: error[syntax]: expected a quantity name, got ''"),
    "count": ("repeating: a\n",
              "error: the repeating quantities number 1, but the dimension matrix has rank 2"),
    "dependent": ("repeating: a, b\n",
                  "error: the dimensions of repeating quantities a, b are dependent"),
    "basis-override": ("basis_override:\n0, 1, 0\n",
                       f"test.pim:5:1: {_NO_DIRECTIVE}\ntest.pim:6:1: {_NO_DIRECTIVE}"),
}


@pytest.mark.parametrize("name", REPEATING_REFUSALS)
def test_run_refuses_each_bad_repeating_set(name: str):
    line, message = REPEATING_REFUSALS[name]
    for command in ("analyze", "check"):
        assert run(CliConfig(command, "test.pim"), _REPEATING_BASE + line) == (
            1, "", message + "\n"
        )


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


_NO_DIRECTIVE_BASE = "dimensions: M\nquantity a = M\nquantity b = M\n"
# a basis_override: header and rows under it: lines that start with no
# directive, which the parser refuses
NO_DIRECTIVE_LINES = {
    "no-directive-row": _NO_DIRECTIVE_BASE + "basis_override:\n1, 0\n",
    "no-directive-wide-row": _NO_DIRECTIVE_BASE + "quantity c = 1\nbasis_override:\n0, 0, 1\n",
    "no-directive-two-rows":
        _NO_DIRECTIVE_BASE + "quantity c = 1\nbasis_override:\n1, -1, 0\n2, -2, 0\n",
    "no-directive-header-only": _NO_DIRECTIVE_BASE + "basis_override:\n",
}


def _long_exponent_model(a: int, b: int) -> str:
    # The pi group is x^b * y^a / z^(a*b).
    return f"dimensions: M, L\nquantity x = M^{a}\nquantity y = L^{b}\nquantity z = M L\n"


# a*b = 10^4300 + 10^2150 has 4,301 digits, one past CPython's int-to-str limit
TOO_LONG_TO_PRINT = _long_exponent_model(10**2150, 10**2150 + 1)
# The same group after a dimensionless w, which is pi group 1.
TOO_LONG_IN_GROUP_2 = TOO_LONG_TO_PRINT.replace("quantity x", "quantity w = 1\nquantity x")


def _check_inputs() -> list:
    files = SHIPPED + sorted((ROOT / "tests" / "models").glob("*.pim"))
    cases = [pytest.param(p.read_text(encoding="utf-8"), id=p.name) for p in files]
    cases += [pytest.param(text, id=name) for name, text in NO_DIRECTIVE_LINES.items()]
    cases += [
        pytest.param(_REPEATING_BASE + line, id=f"repeating-{name}")
        for name, (line, _) in REPEATING_REFUSALS.items()
    ]
    return cases + [pytest.param(TOO_LONG_TO_PRINT, id="too-long-to-print")]


@pytest.mark.parametrize("text", _check_inputs())
def test_check_refuses_what_analyze_refuses(text: str):
    code, out, err = run(CliConfig(command="check", input_path="test.pim"), text)
    want_code, _, want_err = run(_analyze(), text)
    assert (code, err) == (want_code, want_err)
    if code == 0:
        assert out.startswith("model OK\n")
    else:
        assert out == ""
        # an analysis refusal, or the parse errors of an input the parser refuses
        assert err.startswith(("error: ", "test.pim:"))


SCALED_REPEATING = (
    "dimensions: M\nquantity a = M\nquantity b = M\n"
    "constraint a/b = 3\nrepeating: b\n"
)


def test_run_repeating_group_is_scaled_before_the_relations_are_read():
    # With b repeating, the kernel of A with b first holds (1, -1) over
    # (b, a); read back over (a, b) that is (-1, 1), which is scaled to the
    # group a/b before the relation is read: a/b = 3, not 1/3.
    code, out, err = run(_analyze(), SCALED_REPEATING)
    assert (code, err) == (0, "")
    assert "  pi1 = a/b\n" in out
    assert "relation: pi1 = 3\n" in out
    payload = json.loads(run(_analyze("json"), SCALED_REPEATING)[1])
    assert payload["E"] == [["1"], ["-1"]]
    assert payload["C"] == [["1"]]


CONSTANT_ONE_FACTOR = (
    "dimensions: M\nquantity x = M\nquantity y = M\nquantity z = M\n"
    "constraint x^3 / y^3 = 1\nconstraint y^2 / z^2 = 4\n"
)


def test_run_constant_one_factor_with_a_fractional_exponent():
    # pi2 = y/z = K1^(1/3) * K2^(1/2): the factor 1^(1/3) is exactly 1.
    code, out, err = run(_analyze(), CONSTANT_ONE_FACTOR)
    assert (code, err) == (0, "")
    assert "relation: pi2 = 2\n" in out
    (relation,) = [
        r for r in json.loads(run(_analyze("json"), CONSTANT_ONE_FACTOR)[1])["relations"]
        if r["label"] == "pi2 = 2"
    ]
    assert relation["k_exponents"] == ["1/3", "1/2"]
    assert relation["constant"] == "2"


def _two_constraints(second_quantity: str, first: str, second: str) -> str:
    return (f"dimensions: M\nquantity x = M\nquantity y = {second_quantity}\n"
            f"constraint {first}\nconstraint {second}\n")


# x / y = 2 forces x^2 / y^2 = 4, and x = 2 forces x^2 = 4: no point satisfies either pair.
INCONSISTENT = {
    "invariant": _two_constraints("M", "x / y = 2", "x^2 / y^2 = 5"),
    "non-invariant": _two_constraints("1", "x = 2", "x^2 = 5"),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", INCONSISTENT)
def test_run_refuses_inconsistent_constraint_constants(name: str):
    for command in ("analyze", "check"):
        code, out, _ = run(CliConfig(command, "m.pim"), INCONSISTENT[name])
        assert (code, out) == (1, "")


def test_run_accepts_consistent_dependent_constraint_constants():
    text = _two_constraints("M", "x / y = 2", "x^2 / y^2 = 4")
    for command in ("analyze", "check"):
        code, out, err = run(CliConfig(command, "m.pim"), text)
        assert (code, err) == (0, "")
    assert "relation: pi1 = 2\n" in run(_analyze(), text)[1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_run_rational_product_of_irrational_factors_is_evaluated():
    # pi1 = a/b = K1^(-1/2) * K2^(-1/2) = 1/4 and pi2 = a/c = K1^(-1/2) * K2^(1/2) = 2
    text = ("dimensions: M\nquantity a = M\nquantity b = M\nquantity c = M\n"
            "constraint b * c / a^2 = 2\nconstraint b / c = 8\n")
    code, out, err = run(_analyze(), text)
    assert (code, err) == (0, "")
    assert "relation: pi1 = 1/4\n" in out
    assert "relation: pi2 = 2\n" in out


# The same non-invariant system in two namings: u = a*s/b, w = b/s. In both s
# is unconstrained, so pi1 = s takes every positive value.
RENAMED_PAIR = (
    "dimensions: D1, D2\nquantity a = D1^2 D2^-1\nquantity b = D1^-1 D2^2\n"
    "quantity s = 1\nconstraint a^2 / b = 3\n",
    "dimensions: D1, D2\nquantity u = D1^3 D2^-3\nquantity w = D1^-1 D2^2\n"
    "quantity s = 1\nconstraint u^2 * w / s = 3\n",
)


def _d_eff_line(text: str) -> str:
    code, out, err = run(_analyze(), text)
    assert (code, err) == (0, "")
    return next(line for line in out.splitlines() if line.startswith("d_eff"))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_run_d_eff_does_not_depend_on_the_naming():
    first, second = RENAMED_PAIR
    assert "  pi1 = s\n" in run(_analyze(), first)[1]
    assert "  pi1 = s\n" in run(_analyze(), second)[1]
    assert _d_eff_line(first) == _d_eff_line(second)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_run_d_eff_counts_a_ratio_the_constraint_leaves_free():
    # x = 2 fixes x, but pi1 = x/y still takes every positive value
    text = "dimensions: L\nquantity x = L\nquantity y = L\nconstraint x = 2\n"
    assert _d_eff_line(text) == "d_eff = 1"


@pytest.mark.parametrize(
    "config, message",
    [
        (CliConfig(command="chek", input_path="m.pim"),
         "error: unknown command 'chek'; expected analyze or check\n"),
        (CliConfig(command="analyze", input_path="m.pim", format="xml"),
         "error: unknown format 'xml'; expected text or json\n"),
        (CliConfig(command="check", input_path="m.pim", format="xml"),
         "error: unknown format 'xml'; expected text or json\n"),
    ],
    ids=["command", "format", "format-of-check"],
)
def test_run_refuses_a_config_it_cannot_serve(monkeypatch, drag_text, config, message):
    def refuse(text):
        raise AssertionError("the input was parsed")

    monkeypatch.setattr(cli_module, "parse_model", refuse)
    assert run(config, drag_text) == (1, "", message)


def test_run_internal_invariant_violation_exit_3(monkeypatch, drag_text):
    def boom(model):
        raise InvariantViolation("does not factor through E")

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
    (InvariantViolation("does not factor through E"),
     "InvariantViolation: does not factor through E"),
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
    bom, drag = b"\xef\xbb\xbf", drag_text.encode("utf-8")
    path = tmp_path / "bom.pim"
    path.write_bytes(bom + drag)
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert "d_eff = 2" in captured.out
    assert captured.err == ""
    # main strips one BOM itself; each of these reads as the utf-8-sig codec reads it
    for data in (bom + b"dimensions: M\xe9\n", bom[:2], bom + bom + drag):
        path.write_bytes(data)
        try:
            expected = run(CliConfig("analyze", str(path)), data.decode("utf-8-sig"))
        except UnicodeDecodeError as exc:
            expected = (1, "", f"error: cannot read {path}: {exc}\n")
        assert (main(["analyze", str(path)]), *capsys.readouterr()) == expected


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


# command -> its --help, byte for byte
HELP = {
    "": """usage: pim [-h] {analyze,check} ...

Dimensional analysis with monomial constraints, in exact rational arithmetic.

positional arguments:
  {analyze,check}
    analyze        full analysis report
    check          validate a model file only

options:
  -h, --help       show this help message and exit
""",
    "analyze": """usage: pim analyze [-h] [--format {text,json}] [--strict] input

positional arguments:
  input                 model file, or '-' for standard input

options:
  -h, --help            show this help message and exit
  --format {text,json}  report format
  --strict              fail (exit 2) when constraints are not scale-invariant
""",
    "check": """usage: pim check [-h] input

positional arguments:
  input       model file, or '-' for standard input

options:
  -h, --help  show this help message and exit
""",
}
USAGE = {command: text.split("\n", 1)[0] for command, text in HELP.items()}


@pytest.mark.parametrize("argv", [
    ["analyze"], ["bogus", "x"], ["analyze", "models/drag.pim", "--format", "xml"],
    ["check", "models/drag.pim", "--format", "json"],
    ["analyze", "models/drag.pim", "models/drag.pim"],
    ["--format", "json", "analyze", "models/drag.pim"],
    ["--bogus"], ["analyze", "--", "models/drag.pim", "--"],
])
def test_main_usage_error_exit_1(argv: list[str], capsys):
    # exit 2 belongs to --strict's verdict, not to a mistyped command line
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pim")


def test_main_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pim [-h]")
    assert main(["analyze", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: pim analyze")
    # an unknown option is refused only at the end, so -h after it still wins
    assert main(["analyze", "--bogus", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: pim analyze")
    # argparse reads -hh as -h given twice
    assert main(["-hh"]) == 0
    assert capsys.readouterr() == (HELP[""], "")


@pytest.mark.parametrize("columns", [None, "20", "200"])
def test_help_texts_are_the_same_whatever_the_terminal_width(monkeypatch, capsys, columns):
    if columns:
        monkeypatch.setenv("COLUMNS", columns)
    for command, text in HELP.items():
        assert main([command, "--help"] if command else ["--help"]) == 0
        assert capsys.readouterr() == (text, "")


@pytest.mark.parametrize("argv, option", [
    (["analyze", "DRAG", "--strict=1"], "--strict"),
    (["analyze", "--strict=", "DRAG"], "--strict"),
    (["analyze", "DRAG", "--format"], "--format"),
    (["analyze", "DRAG", "--format", "--strict"], "--format"),
    (["analyze", "DRAG", "--format="], "--format"),
    (["analyze", "DRAG", "--help=x"], "-h/--help"),
])
def test_main_option_usage_error_names_the_option(argv: list[str], option: str, capsys):
    # argparse's wording after the option's name varies between patch releases
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    usage, error, rest = err.split("\n", 2)
    assert usage == USAGE["analyze"]
    assert error.startswith(f"pim analyze: error: argument {option}")
    assert rest == ""


def test_main_reads_a_negative_number_as_the_input(monkeypatch, tmp_path: Path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read -1: ")
    assert err.count("\n") == 1


# Command-line tokens: commands, inputs, option values, and options whole,
# shortened, with "=", unknown or misplaced.
ARGV_TOKENS = (
    "analyze check bogus F - -- --format --format=json --format= json text xml --strict "
    "--strict=1 --st --form --f -h --help --he --h --help=x --bogus -x G -1 -hh"
).split() + [""]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_every_command_line_is_a_command_a_help_or_one_usage_error(argv: list[str]):
    full_forms = cli_module._read_full_forms(argv)
    if full_forms is not None:  # the reader that imports nothing reads as argparse
        assert _read_with_argparse(argv) == full_forms
    result = cli_module._parse_args(argv)
    if isinstance(result, CliConfig):
        assert full_forms is None or result == CliConfig(**full_forms)
        return
    code, output, diagnostics = result
    if code == 0:
        assert output in HELP.values() and diagnostics == ""
        return
    assert (code, output) == (1, "")
    usage, error, rest = diagnostics.split("\n", 2)
    command = re.fullmatch(r"pim(?: (analyze|check))?: error: .+", error)
    assert command is not None
    assert usage == USAGE[command[1] or ""]
    assert rest == ""


# Each command line and the plainer one it means; "DRAG" and "RAW" stand for model files.
DRAG_JSON = ["analyze", "DRAG", "--format", "json"]
COMMAND_LINE_FORMS = {
    "equals-sign": (["analyze", "DRAG", "--format=json"], DRAG_JSON),
    "unique-prefix": (["analyze", "DRAG", "--form", "json"], DRAG_JSON),
    "option-first": (["analyze", "--format", "json", "DRAG"], DRAG_JSON),
    "stdin-after-dashes": (["analyze", "--", "-"], ["analyze", "DRAG"]),
    "repeated-strict": (["analyze", "RAW", "--strict", "--strict"], ["analyze", "RAW", "--strict"]),
}


@pytest.mark.parametrize("form", COMMAND_LINE_FORMS)
def test_main_accepts_each_command_line_form(
    monkeypatch, capsys, tmp_path: Path, drag_text, form: str
):
    paths = {"DRAG": tmp_path / "drag.pim", "RAW": tmp_path / "raw.pim"}
    paths["DRAG"].write_text(drag_text, encoding="utf-8")
    paths["RAW"].write_text(NON_INVARIANT, encoding="utf-8")
    results = []
    for argv in COMMAND_LINE_FORMS[form]:
        stdin = io.TextIOWrapper(io.BytesIO(drag_text.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        results.append((main([str(paths.get(a, a)) for a in argv]), *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == (2 if form == "repeated-strict" else 0)


def test_main_reads_options_after_the_input_whatever_the_environment(
    monkeypatch, capsys, repo_root: Path
):
    # GNU getopt stops at the first input when POSIXLY_CORRECT is set; pim does not
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert main(["analyze", str(repo_root / "models" / "drag.pim"), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (repo_root / "tests" / "golden" / "drag_report.json").read_text()
    assert captured.err == ""


def test_want_color_respects_env(monkeypatch):
    monkeypatch.setattr(cli_module.sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.setenv("PIM_COLOR", "0")
    assert cli_module._want_color() is False
    monkeypatch.setenv("PIM_COLOR", "1")
    assert cli_module._want_color() is True


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", [path.stem for path in SHIPPED])
def test_golden_reports_of_shipped_models(name: str, fmt: str, suffix: str):
    path = f"models/{name}.pim"
    golden = ROOT / "tests" / "golden" / f"{name}_report.{suffix}"
    config = CliConfig(command="analyze", input_path=path, format=fmt)
    code, out, err = run(config, (ROOT / path).read_text(encoding="utf-8"))
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
    ],
    ids=["constant", "dimension-exponent", "monomial-exponent", "jacobian-row"],
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
    for group, text in enumerate((TOO_LONG_TO_PRINT, TOO_LONG_IN_GROUP_2), 1):
        code, out, err = run(_analyze(fmt), text)
        assert (code, out) == (1, "")
        assert err == (
            f"error: pi group {group} has a number of 4301 digits, more than the 4300 "
            "that can be printed\n"
        )
        assert run(CliConfig(command="check", input_path="big.pim"), text) == (code, out, err)


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


def _fresh_interpreter(probe: str) -> str:
    """What probe prints in a new interpreter that imports pim from this
    checkout. -S skips site, whose .pth files may load any module first."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_import_loads_neither_dataclasses_nor_inspect_nor_typing():
    # dataclasses and inspect took about two thirds of the CLI's import time,
    # and typing about 2 ms of 28.
    probe = (
        "import sys, pim.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    assert _fresh_interpreter(probe) == "[]\n"


def test_a_text_report_loads_neither_argparse_nor_json_nor_the_bom_codec(repo_root: Path):
    # No command needs json (see the JSON case below), argparse or the
    # utf-8-sig codec, and only a JSON report needs pim's JSON writer.
    probe = (
        "import io, sys, pim.cli\n"
        "unwanted = {'argparse', 'json', 'encodings.utf_8_sig', 'pim._jsonwriter'}\n"
        "after_import = sorted(unwanted & set(sys.modules))\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = pim.cli.main(['analyze', {str(repo_root / 'models' / 'drag.pim')!r}])\n"
        "sys.stdout = stdout\n"
        "print(code, after_import, sorted(unwanted & set(sys.modules)))\n"
    )
    assert _fresh_interpreter(probe) == "0 [] []\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "DRAG"], ["analyze", "DRAG", "--format", "json"], ["check", "DRAG"],
    ["analyze", "-"], ["analyze", "DRAG", "--strict"], ["analyze", "--format", "json", "DRAG"],
])
def test_a_command_line_written_out_in_full_loads_no_argparse(repo_root: Path, argv: list[str]):
    # the benchmark's four command lines, the README's --strict and the option-first form;
    # neither the term readers nor the argparse front end is even compiled
    drag = str(repo_root / "models" / "drag.pim")
    argv = [drag if a == "DRAG" else a for a in argv]
    probe = (
        "import io, sys, pim.cli, pim.modelfile\n"
        f"sys.stdin = io.TextIOWrapper(io.BytesIO(open({drag!r}, 'rb').read()))\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = pim.cli.main({argv!r})\n"
        "sys.stdout = stdout\n"
        "print(code, 'argparse' in sys.modules,\n"
        "      sorted({'pim._terms', 'pim._usage'} & set(sys.modules)),\n"
        "      [name for module, name in ((pim.modelfile, '_dimexpr_terms'),\n"
        "                                 (pim.modelfile, '_monomial_terms'),\n"
        "                                 (pim.cli, '_read_with_argparse'))\n"
        "       if hasattr(module, name)])\n"
    )
    assert _fresh_interpreter(probe) == "0 False [] []\n"


@pytest.mark.parametrize("argv, stdin, loaded", [
    (["check", "-"], "dimensions: M\nquantity a = M^x\n", ["pim._terms"]),
    (["analyze", "-"], "dimensions: M\nquantity a = M^1/2\nquantity b = M\n", ["pim._terms"]),
    (["analyze", "-"], "dimensions: M\nquantity a = M\nquantity b = M\n"
     "constraint (a / b) = 2\n", ["pim._terms"]),
    (["--help"], "", ["pim._usage"]),
], ids=["refused", "half-exponent", "parenthesized", "help"])
def test_a_line_the_one_regex_readers_refuse_loads_what_reads_it(
    monkeypatch, capsys, argv: list[str], stdin: str, loaded: list[str]
):
    # each loads its module on first use and prints what it prints in process
    probe = (
        "import io, sys, pim.cli\n"
        f"sys.stdin = io.TextIOWrapper(io.BytesIO({stdin.encode()!r}))\n"
        "streams, sys.stdout, sys.stderr = (sys.stdout, sys.stderr), io.StringIO(), io.StringIO()\n"
        f"code = pim.cli.main({argv!r})\n"
        "out, err = sys.stdout.getvalue(), sys.stderr.getvalue()\n"
        "sys.stdout, sys.stderr = streams\n"
        "print(repr((code, out, err, sorted({'pim._terms', 'pim._usage'} & set(sys.modules)))))\n"
    )
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code = main(argv)
    out, err = capsys.readouterr()
    assert _fresh_interpreter(probe) == repr((code, out, err, loaded)) + "\n"


def test_a_json_report_leaves_the_json_package_unloaded(repo_root: Path):
    # The JSON writer takes its string encoder from _json, the C module that
    # json.encoder wraps, so the json package is never imported.
    probe = (
        "import io, sys, pim.cli\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = pim.cli.main(['analyze', {str(repo_root / 'models' / 'drag.pim')!r}, "
        "'--format', 'json'])\n"
        "text, sys.stdout = sys.stdout.getvalue(), stdout\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'json')\n"
        "print(code, text.startswith('{'), loaded)\n"
    )
    assert _fresh_interpreter(probe) == "0 True []\n"


def _cli(
    args: list[str], stdout=subprocess.PIPE, redirect: str = "", **env: str
) -> subprocess.CompletedProcess:
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    command = [sys.executable, "-m", "pim", *args]
    if redirect:  # sh applies it, e.g. "<&-" to start the interpreter with stdin closed
        command = ["sh", "-c", f'"$0" "$@" {redirect}', *command]
    return subprocess.run(
        command,
        env={**base, "PYTHONPATH": path, **env},
        stdout=stdout,
        stderr=subprocess.PIPE,
    )


def test_main_prints_literals_up_to_max_digits_under_a_lower_int_limit(tmp_path):
    # 640 is the lowest limit CPython accepts; main raises it to 4,300 for itself.
    def constant_model(digits: int) -> str:
        path = tmp_path / f"c{digits}.pim"
        path.write_text(
            f"dimensions: M\nquantity x = M\nquantity y = M\nconstraint x / y = {'7' * digits}\n"
        )
        return str(path)

    for digits in (1000, 4300):
        for fmt in ("text", "json"):
            args = ["analyze", "--format", fmt, constant_model(digits)]
            default, limited = _cli(args), _cli(args, PYTHONINTMAXSTRDIGITS="640")
            assert default.returncode == limited.returncode == 0
            assert "7" * digits in default.stdout.decode()
            assert (limited.stdout, limited.stderr) == (default.stdout, default.stderr)
    path = constant_model(4301)
    limited = _cli(["analyze", path], PYTHONINTMAXSTRDIGITS="640")
    assert (limited.returncode, limited.stdout) == (1, b"")
    assert limited.stderr.decode() == (
        f"{path}:4:20: error[bad-constant]: number has 4301 digits, more than the 4300 allowed\n"
    )


NO_SPACE = f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_main_unwritable_output_is_one_error_line(
    monkeypatch, tmp_path: Path, capsys, repo_root: Path
):
    class Full(io.StringIO):
        def write(self, text: str) -> int:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self) -> int:
            return sink.fileno()  # main points it at devnull

    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", Full())
        for command in ("analyze", "check"):
            assert main([command, str(repo_root / "models" / "drag.pim")]) == 1
            assert capsys.readouterr().err == NO_SPACE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_cli_writing_to_a_full_device(repo_root: Path, unbuffered: str):
    # Nothing more may follow the one line, not even at interpreter shutdown.
    for command in ("analyze", "check"):
        with open("/dev/full", "w") as full:
            proc = _cli(
                [command, str(repo_root / "models" / "drag.pim")],
                stdout=full,
                PYTHONUNBUFFERED=unbuffered,
            )
        assert (proc.returncode, proc.stderr.decode()) == (1, NO_SPACE)


STDIN_CLOSED = "error: cannot read <stdin>: standard input is closed\n"
STDOUT_CLOSED = "error: cannot write output: standard output is closed\n"


def test_main_with_stdin_closed(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)
    for command in ("analyze", "check"):
        assert main([command, "-"]) == 1
        assert capsys.readouterr() == ("", STDIN_CLOSED)


def test_main_with_stdout_closed(monkeypatch, capsys, repo_root: Path):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli_module._want_color() is False
    for command in ("analyze", "check"):
        assert main([command, str(repo_root / "models" / "drag.pim")]) == 1
        assert capsys.readouterr().err == STDOUT_CLOSED
    assert main(["--help"]) == 1  # the help is output like a report
    assert capsys.readouterr().err == STDOUT_CLOSED


def test_main_with_stderr_closed_keeps_the_exit_code(monkeypatch, capsys, tmp_path: Path):
    path = tmp_path / "raw.pim"
    path.write_text(NON_INVARIANT, encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", None)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"bogus\n")))
    assert main(["analyze", str(tmp_path / "nope.pim")]) == 1
    assert main(["analyze", "-"]) == 1
    assert main(["analyze", str(path), "--strict"]) == 2
    assert main(["bogus", "x"]) == 1
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("redirect, args, err", [
    ("<&-", ["analyze", "-"], STDIN_CLOSED),
    (">&-", ["analyze", "DRAG"], STDOUT_CLOSED),
    ("2>&-", ["analyze", "MISSING"], ""),
    (">&-", ["--help"], STDOUT_CLOSED),
    ("2>&-", ["bogus", "x"], ""),
], ids=["stdin", "stdout", "stderr", "stdout-help", "stderr-usage"])
def test_cli_with_a_closed_standard_stream(
    repo_root: Path, tmp_path: Path, redirect: str, args: list[str], err: str
):
    path = {"DRAG": repo_root / "models" / "drag.pim", "MISSING": tmp_path / "nope"}
    proc = _cli([str(path.get(a, a)) for a in args], redirect=redirect)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (1, b"", err)
