"""Command-line front end: parse a model file, analyze it, render a report.

Exit codes:
    0  success
    1  usage error, unreadable input, unwritable output, parse error, or
       model validation error
    2  constraints not scale-invariant and --strict was given
    3  internal invariant violation or any other unexpected error (always a
       bug, never a modeling error), on one line
       ``internal error: <Type>: <message>``
"""

from __future__ import annotations

import argparse
import os
import sys

from .model import MAX_DIGITS, ModelError
from .modelfile import ModelFileError, ParseError, parse_model, render_report
from .ratlin import Value
from .reduce import analyze


class CliConfig(Value):
    """One command: ``command`` is "analyze" | "check", ``input_path`` a file
    path or "-" for standard input, ``format`` "text" | "json", and
    ``strict`` and ``color`` are flags."""

    __slots__ = ("command", "input_path", "format", "strict", "color")
    _defaults = {"format": "text", "strict": False, "color": False}


def _display_path(path: str) -> str:
    return "<stdin>" if path == "-" else path


def _format_parse_errors(path: str, errors: tuple[ParseError, ...]) -> str:
    shown = _display_path(path)
    return "".join(
        f"{shown}:{e.span.line}:{e.span.column}: error[{e.code.value}]: {e.message}\n"
        for e in errors
    )


def run(config: CliConfig, input_text: str) -> tuple[int, str, str]:
    """Execute one command on already-read input text.

    Both commands run the full analysis, so they refuse the same models with
    the same diagnostics. Returns (exit_code, output, diagnostics) and
    raises no Exception. On exit 0 the diagnostics are empty (warnings are
    part of the report); on a nonzero exit code the output is empty and the
    diagnostics explain why. A command or format that CliConfig does not
    name is a usage error (exit 1), refused before the input is parsed.
    """
    for field, allowed in (("command", ("analyze", "check")), ("format", ("text", "json"))):
        value = getattr(config, field)
        if value not in allowed:
            return 1, "", f"error: unknown {field} {value!r}; expected {' or '.join(allowed)}\n"
    try:
        report = analyze(parse_model(input_text))
        if config.command == "check":
            return 0, (
                "model OK\n"
                f"quantities: {report.n}\n"
                f"dimensions: {report.m}\n"
                f"constraints: {report.ell}\n"
                f"scale invariant: {'yes' if report.scale_invariant else 'no'}\n"
            ), ""
        if config.strict and not report.scale_invariant:
            return 2, "", (
                "error: constraints are not scale-invariant (J @ A^T != 0) "
                "and --strict was given\n"
            )
        return 0, render_report(report, config.format, color=config.color), ""
    except ModelFileError as exc:
        return 1, "", _format_parse_errors(config.input_path, exc.errors)
    except ModelError as exc:
        return 1, "", f"error: {exc}\n"
    except Exception as exc:  # anything else is an engine bug: exit 3, not a traceback
        message = " ".join(str(exc).split()) or "no message"
        return 3, "", f"internal error: {type(exc).__name__}: {message}\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pim",
        description="Dimensional analysis with monomial constraints, "
        "in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze_p = sub.add_parser("analyze", help="full analysis report")
    analyze_p.add_argument("input", help="model file, or '-' for standard input")
    analyze_p.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    analyze_p.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 2) when constraints are not scale-invariant",
    )
    check_p = sub.add_parser("check", help="validate a model file only")
    check_p.add_argument("input", help="model file, or '-' for standard input")
    check_p.set_defaults(format="text", strict=False)
    return parser


def _want_color() -> bool:
    stdout = sys.stdout  # None when standard output is closed
    return stdout is not None and stdout.isatty() and os.environ.get("PIM_COLOR", "1") != "0"


def main(argv: list[str] | None = None) -> int:
    # A model literal or report number may have MAX_DIGITS digits; a limit of 0
    # is none, and Python 3.10 before 3.10.7 has neither the limit nor its functions.
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < MAX_DIGITS:
        sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which --strict owns
        return 0 if exc.code == 0 else 1
    config = CliConfig(
        command=args.command,
        input_path=args.input,
        format=args.format,
        strict=args.strict,
        color=_want_color() and args.format == "text",
    )
    try:
        if config.input_path != "-":
            with open(config.input_path, "rb") as handle:
                data = handle.read()
        elif sys.stdin is None:  # as Python sets it when descriptor 0 is closed
            raise OSError("standard input is closed")
        else:
            data = sys.stdin.buffer.read()
        text = data.decode("utf-8-sig")  # one decoder for files and stdin
    except (OSError, UnicodeDecodeError) as exc:
        code, output = 1, ""
        diagnostics = f"error: cannot read {_display_path(config.input_path)}: {exc}\n"
    else:
        code, output, diagnostics = run(config, text)
    if output and sys.stdout is None:
        code, output = 1, ""
        diagnostics = "error: cannot write output: standard output is closed\n"
    if output:
        try:
            sys.stdout.write(output)
            sys.stdout.flush()
        except OSError as exc:
            # Python flushes stdout again at exit; send what is left to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            code, diagnostics = 1, f"error: cannot write output: {exc}\n"
    if diagnostics and sys.stderr is not None:  # a closed stderr drops them
        sys.stderr.write(diagnostics)
    return code
