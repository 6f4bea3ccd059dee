"""Command-line front end: parse a model file, analyze it, render a report.

Exit codes:
    0  success
    1  usage error, unreadable input, parse error, or model validation error
    2  constraints not scale-invariant and --strict was given
    3  internal invariant violation or any other unexpected error (always a
       bug, never a modeling error), on one line
       ``internal error: <Type>: <message>``
"""

from __future__ import annotations

import argparse
import os
import sys

from .model import ModelError
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
    diagnostics explain why.
    """
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
    return parser


def _want_color() -> bool:
    return sys.stdout.isatty() and os.environ.get("PIM_COLOR", "1") != "0"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which --strict owns
        return 0 if exc.code == 0 else 1
    config = CliConfig(
        command=args.command,
        input_path=args.input,
        format=getattr(args, "format", "text"),
        strict=getattr(args, "strict", False),
        color=_want_color() and getattr(args, "format", "text") == "text",
    )
    try:
        if config.input_path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(config.input_path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8-sig")  # one decoder for files and stdin
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {_display_path(config.input_path)}: {exc}", file=sys.stderr)
        return 1
    code, output, diagnostics = run(config, text)
    if output:
        sys.stdout.write(output)
    if diagnostics:
        sys.stderr.write(diagnostics)
    return code
