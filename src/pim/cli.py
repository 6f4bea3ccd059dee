"""Command-line front end: parse a model file, analyze it, render a report.

The commands and options are declared once, in ``_COMMANDS``, and read two
ways. A line that names its command first and writes each option out in
full (``pim analyze FILE --format json``, ``pim check -``) is read without
an import; any other line, ``--help`` and every usage error are argparse's,
built from the same table by the private ``pim._usage``, and both are
imported only then. ``main`` loads only what the command runs: the JSON
writer for a JSON report only, and with it no ``json`` package, and no
codec module to strip a leading byte order mark.
A help text, a usage error, a report and its diagnostics all leave through
main's one writer, so a closed or full standard output ends ``--help`` as
it ends a report.

Exit codes:
    0  success, or --help
    1  usage error, unreadable input, unwritable output (a help included),
       parse error, or model validation error
    2  constraints not scale-invariant and --strict was given
    3  internal invariant violation or any other unexpected error (always a
       bug, never a modeling error), on one line
       ``internal error: <Type>: <message>``
"""

from __future__ import annotations

import os
import sys

from .model import MAX_DIGITS, ModelError
from .modelfile import _FORMATS, ModelFileError, ParseError, parse_model, render_report
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
    for field, allowed in (("command", tuple(_COMMANDS)), ("format", _FORMATS)):
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


# command -> (its help, {option: (its choices, or () for a flag; its help)})
_COMMANDS = {
    "analyze": ("full analysis report", {
        "--format": (_FORMATS, "report format"),
        "--strict": ((), "fail (exit 2) when constraints are not scale-invariant"),
    }),
    "check": ("validate a model file only", {}),
}


def _parse_args(argv: list[str]) -> CliConfig | tuple[int, str, str]:
    """The command that argv names, or (exit_code, output, diagnostics) for
    --help (exit 0, the help as output) and for a usage error (exit 1).
    A line the full-form reader accepts, argparse reads the same way."""
    settings = _read_full_forms(argv)
    if settings is None:
        from ._usage import _read_with_argparse

        settings = _read_with_argparse(argv)
    if isinstance(settings, tuple):
        return settings
    return CliConfig(**settings, color=settings.get("format", "text") == "text" and _want_color())


def _read_full_forms(argv: list[str]) -> dict[str, object] | None:
    """The settings of a line that starts with its command and spells each
    option in full, its value as the next argument; None for any other line,
    which argparse reads. Imports nothing, so these lines load no argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options, settings = _COMMANDS[argv[0]][1], {"command": argv[0]}
    args = iter(argv[1:])
    for arg in args:
        if arg in options:
            choices = options[arg][0]
            value = next(args, None) if choices else True
            if choices and value not in choices:
                return None
            settings[arg[2:]] = value  # "--format" sets "format", as in argparse
        elif "input_path" in settings or arg.startswith("-") and arg != "-":
            return None
        else:
            settings["input_path"] = arg
    return settings if "input_path" in settings else None


def _want_color() -> bool:
    stdout = sys.stdout  # None when standard output is closed
    return stdout is not None and stdout.isatty() and os.environ.get("PIM_COLOR", "1") != "0"


def main(argv: list[str] | None = None) -> int:
    # A model literal or report number may have MAX_DIGITS digits; a limit of 0
    # is none, and Python 3.10 before 3.10.7 has neither the limit nor its functions.
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < MAX_DIGITS:
        sys.set_int_max_str_digits(MAX_DIGITS)
    config = _parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(config, tuple):  # --help or a usage error
        code, output, diagnostics = config
    else:
        try:
            if config.input_path != "-":
                with open(config.input_path, "rb") as handle:
                    data = handle.read()
            elif sys.stdin is None:  # as Python sets it when descriptor 0 is closed
                raise OSError("standard input is closed")
            else:
                data = sys.stdin.buffer.read()
            # one decoder for files and stdin; utf-8-sig would load its codec module
            text = data.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
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
