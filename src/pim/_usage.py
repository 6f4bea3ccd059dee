"""The argparse front end of ``pim``: it reads a command line that
``cli._read_full_forms`` does not take, and writes ``--help`` and every
usage error, from the same ``cli._COMMANDS`` table. It is its own module so
that only such a line imports it: ``cli._parse_args`` imports it when the
full-form reader returns None, so a command line written out in full
compiles none of this.
"""

from __future__ import annotations

import sys

from .cli import _COMMANDS


def _read_with_argparse(argv: list[str]) -> dict[str, object] | tuple[int, str, str]:
    """The settings argparse reads from argv, or its help or usage error as
    (exit_code, output, diagnostics). Help and usage lines are wrapped as
    for an 80-column terminal and never coloured, whatever the terminal."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # both leave parse_args with what main writes, as SystemExit's code
        def print_help(self, file=None):
            raise SystemExit((0, self.format_help(), ""))

        def error(self, message):  # exit 1, since exit 2 belongs to --strict's verdict
            raise SystemExit((1, "", f"{self.format_usage()}{self.prog}: error: {message}\n"))

    shared = {
        "formatter_class": lambda prog: argparse.HelpFormatter(prog, width=78),
        "argument_default": argparse.SUPPRESS,  # an option not given is not set
    }
    if sys.version_info >= (3, 14):  # the first argparse that colours its help
        shared["color"] = False
    parser = Parser(prog="pim", description="Dimensional analysis with monomial "
                    "constraints, in exact rational arithmetic.", **shared)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text, **shared)
        sub.add_argument("input_path", metavar="input",
                         help="model file, or '-' for standard input")
        for option, (choices, option_help) in options.items():
            if choices:
                sub.add_argument(option, choices=choices, help=option_help)
            else:
                sub.add_argument(option, action="store_true", help=option_help)
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code
