"""Command-line driver: the argument list, read into one call of :mod:`.report`.

Three commands, whose documents and text :mod:`.report` builds:

* ``check <spec>`` -- decide the Laplacian power property up to
  ``--max-k``, printing per-order verdicts (inferred polynomials or a
  refuting witness pair).
* ``reproduce <target>`` -- run one of the fixed verification suites
  (``comp1 comp2 laplquad sumder2 laplcube duality lemma``).
* ``catalog`` -- list the built-in entries with live Einstein constants.

:func:`main` hands the command and its settings, by keyword, to
:func:`report.run`, and prints the document as JSON or as
:func:`report.text` renders it; it reads no key of the document.
``--seed`` is parsed and echoed in the config and the text header, and
changes nothing.  Exit codes: 0 success / expectation met, 1 usage or
construction error, memory exhausted or stdout closed by its reader, 2
expectation or suite failure.

The argument list is read by one table-driven parser (``_parse_args``) in
argparse's spellings and words: ``--opt value`` or ``--opt=value``, options
on either side of the positional argument, the last of a repeated option,
unique prefixes of long options (``--max 2``, top-level ``--ver``), ``--`` to
end the options, integers read by ``int()`` (``--seed -5``).  ``-h``,
``--help`` and ``--version`` print and exit 0.  The README lists the few
degenerate spellings read otherwise.  argparse is not imported: its first
parser cost a few ms of start-up, more than some whole commands.
"""

from __future__ import annotations

import json
import os
import re
import sys

from . import __version__, report
from .jets import KahlapError


_USAGE = """\
usage: kahlap [-h] [--version] <command> ...

kahlap check <spec> [--max-k K] [--order D] [--seed S] [--format text|json]
             [--expect consistent|refuted-at:K]
    decide the power property for a catalog spec, e.g. hyp:2 or
    product(flat:1,hyp:1); a U(n)-invariant spec (flat, fs, hyp, radial)
    is decided from its radial profile alone, consistent at every order by
    symmetry, which is no evidence of the property; any other spec is
    decided over a test family, each consistent p_k re-checked against
    every row of its value table; --seed is echoed in the report and
    changes nothing; --expect exits 2 on mismatch
kahlap reproduce <target> [--format text|json]
    run a fixed verification suite: comp1 comp2 laplquad sumder2 laplcube
    duality lemma
kahlap catalog [--format text|json]
    list catalog entries

Long options may be abbreviated to a unique prefix; --opt=value works, and
-- ends the options."""

_FORMAT = ("format", ("text", "json"), "text")
# per command: its positional argument and that argument's choices (None:
# any string), and its options, each mapped to (dest, int or choices or
# None, default)
_COMMANDS = {
    "check": (
        "spec",
        None,
        {
            "--max-k": ("max_k", int, 3),
            "--order": ("order", int, None),
            "--seed": ("seed", int, 0),
            "--format": _FORMAT,
            "--expect": ("expect", None, None),
        },
    ),
    "reproduce": ("target", tuple(report.SUITES), {"--format": _FORMAT}),
    "catalog": (None, None, {"--format": _FORMAT}),
}


def _option(token, names):
    """``(option name, attached value or None)`` for an option token, None for
    an argument.  The name is None for an unknown option.  A long option may
    be cut to a unique prefix of one of ``names``."""
    head, eq, value = token.partition("=")
    found = [n for n in names if n.startswith(head) and (token[:2] == "--" or n == head)]
    if len(found) == 1:
        return found[0], value if eq else None
    # "-", a negative number and a string with a space are arguments
    if token[:1] == "-" and not re.match(r"-(\d+|\d*\.\d+)?$", token) and " " not in token:
        return None, None
    return None


def _value(label, kind, text):
    """``text`` read by ``int()`` or checked against the choices ``kind``
    (None: any string)."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise report.UsageError(f"argument {label}: invalid int value: {text!r}") from None
    if kind and text not in kind:
        raise report.UsageError(
            f"argument {label}: invalid choice: {text!r} "
            f"(choose from {', '.join(map(repr, kind))})"
        )
    return text


def _parse_args(tokens):
    """``(command, settings)`` from the list ``tokens``, which it edits, the
    settings a dict by dest; `report.UsageError` with argparse's message for
    a malformed list."""
    name, choices, options = "command", tuple(_COMMANDS), {"--version": None}
    settings, unknown = {}, []
    command = argument = None
    end = len(tokens)
    j = 0
    while j < len(tokens):
        token = tokens[j]
        names = ("-h", "--help", *options)
        option = j < end and _option(token, names)
        opt, value = option or (None, None)
        j += 1
        if opt and not options.get(opt) and value is None:  # -h, --help, --version
            print(__version__ if opt == "--version" else _USAGE, flush=True)
            raise SystemExit(0)
        if options.get(opt):
            if value is None:
                if j >= end or _option(tokens[j], names):
                    raise report.UsageError(f"argument {opt}: expected one argument")
                value = tokens[j]
                j += 1
            dest, kind, _ = options[opt]
            settings[dest] = _value(opt, kind, value)
        elif option or not name or argument is not None:
            unknown.append(token)
        elif command:
            argument = _value(name, choices, token)
        else:  # the rest of argv belongs to the command
            command = _value(name, choices, token)
            name, choices, options = _COMMANDS[command]
            settings = {dest: default for dest, _, default in options.values()}
            # from "--" on every token is an argument; a command with a
            # positional argument drops the "--"
            end = tokens.index("--", j) if "--" in tokens[j:] else len(tokens)
            del tokens[end : end + bool(name)]
    if name and argument is None:
        raise report.UsageError(f"the following arguments are required: {name}")
    if unknown:
        raise report.UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    if name:
        settings[name] = argument
    return command, settings


def main(argv=None) -> int:
    try:
        command, settings = _parse_args(sys.argv[1:] if argv is None else list(argv))
        form = settings.pop("format")
        code, doc = report.run(command, **settings)
        print(json.dumps(doc, indent=2) if form == "json" else report.text(doc), flush=True)
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left of it goes to devnull, so
        # the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: broken pipe", file=sys.stderr)
        return 1
    except report.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KahlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # reported below, once the failed run's frames are freed
        pass
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
