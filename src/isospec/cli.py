"""Command-line front end.

Five subcommands mirror the library surface:

  harmonic   minimal or explicit harmonic vectors for a chain
  transform  conjugate a chain by h (forward / inverse / local / measure)
  verify     compare the spectra of two chains under their measures
  bounds     Hardy-constant enclosure of the principal eigenvalue
  diffop     differential-operator checks (eigen / transform / spectrum / riccati)

Exit status: 0 on success or PASS, 1 on a check failure, 2 on a usage or
parse error, a flag value out of range, input over the size caps, or running
out of memory.  Reports go to stdout as JSON (default) or CSV; diagnostics,
the library's advisories among them, go to stderr as isospec: lines.

This module holds the parser, main and run.  The handlers live in
_cli_chains (harmonic, transform, verify, bounds) and _cli_diffop (diffop);
main compiles only the one it dispatches to, and builds only that
subcommand's parser.  Nothing here imports numpy: usage errors, --help and
the refusals of a document's structure answer before it loads.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings

from ._cli_io import SchemaError, _note
from .errors import InvalidArgument, IsospecError, MalformedExpression, _BadRate

CHAIN_SCHEMA = """\
chain JSON, one of:
  {"type": "bd", "birth": [...], "death": [...], "killing": [...], "N": 100}
  {"type": "qpair", "rates": [[...]], "total": [...], "killing": [...]}
bd arrays are state-indexed (death[0] is ignored); each of birth, death,
killing may instead be a number or {"formula": "poly", "coeffs": [c0, c1, ...]}
meaning c0 + c1*i + c2*i^2 + ...  killing defaults to 0, total to row sums.
"N" may be omitted when every field is an array.  An optional "mu" array
supplies the symmetrising measure."""

H_SCHEMA = """\
h JSON: a bare array [h0, h1, ...] or {"values": [...]}."""

OP_SCHEMA = """\
operator JSON:
  {"a": "1/2", "b": "-x", "c": 0, "interval": [-6, 6], "M": 2000,
   "bc": ["neumann", "neumann"]}
a, b, c are numbers or expressions in x (+ - * / ^, exp, sin, cos, log);
c defaults to 0, bc to neumann at both ends.

h JSON for --h: {"h": expr} (derivatives taken symbolically),
{"h": expr, "h1": expr, "h2": expr} with declared derivatives, or sampled
values {"grid": [...], "values": [...]} on an increasing grid that covers
the interval."""


# ---------------------------------------------------------------- parser


class _NegativeNumber:
    """argparse's test whether a word is a negative number, a value and not an option.

    It decides as _number does; argparse's own pattern misses -1e-3, -1_0 and -inf.
    """

    @staticmethod
    def match(word: str) -> bool:
        try:
            float(word)
        except ValueError:
            return False
        return word.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber  # subparsers are of this class too

    def error(self, message):
        """Reject the command line through main's exit-2 clause."""
        raise SchemaError(message, self.prog)


def _number(text: str, positive: bool = False) -> float:
    """A float flag value, which must be finite, and positive if positive is set."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and (v > 0.0 or not positive)):
        kind = "finite positive" if positive else "finite"
        raise argparse.ArgumentTypeError(f"{text!r} is not a {kind} number")
    return v


def _tolerance(text: str) -> float:
    """A --tol or --tail-tol value, which must be finite and positive."""
    return _number(text, positive=True)


def _handler(name: str):
    """The handler of subcommand name; its module loads on dispatch."""
    def handler(args) -> int:
        if name == "diffop":
            from . import _cli_diffop as commands
        else:
            from . import _cli_chains as commands
        return getattr(commands, f"cmd_{name}")(args)

    return handler


def _common_flags(p: argparse.ArgumentParser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--tol", type=_tolerance, default=d,
                   help="override the check tolerance")
    p.add_argument("--output", choices=("json", "csv"),
                   default=(argparse.SUPPRESS if suppress else "json"),
                   help="report format on stdout")
    p.add_argument("--seed", type=int, default=d,
                   help="seed recorded in the report")
    p.add_argument("--quiet", action="store_true",
                   default=(argparse.SUPPRESS if suppress else False),
                   help="suppress warnings and notes")


def build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The parser with subcommand cmd alone, or the full tree if cmd names none.

    main passes the command line's first word, so --help and a leading option get the full tree.
    """
    every = ("harmonic", "transform", "verify", "bounds", "diffop")
    names = (cmd,) if cmd in every else every
    parser = _Parser(
        prog="isospec",
        description="Doob transforms, spectra, and eigenvalue bounds "
        "for killed chains and one-dimensional operators.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=CHAIN_SCHEMA,
    )
    _common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="cmd")

    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)

    def command(name, summary, epilog=CHAIN_SCHEMA):
        p = sub.add_parser(name, parents=[common], help=summary, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(func=_handler(name))
        return p

    if "harmonic" in names:
        p = command("harmonic", "harmonic vector of a chain")
        p.add_argument("chain", help="chain JSON file (- for stdin)")
        p.add_argument("--theta", type=int, default=0,
                       help="anchor state for the minimal solution")
        p.add_argument("--method", choices=("iterate", "solve", "explicit"),
                       default="iterate")
        p.add_argument("--nmax", type=int, default=None,
                       help="truncation level for --method explicit")

    if "transform" in names:
        p = command("transform", "conjugate a chain by h", CHAIN_SCHEMA + "\n\n" + H_SCHEMA)
        p.add_argument("chain", help="chain JSON file (- for stdin)")
        p.add_argument("--h", help="h JSON file")
        p.add_argument("--direction",
                       choices=("forward", "inverse", "local", "measure"),
                       default="forward")
        p.add_argument("--set", default=None,
                       help="comma-separated harmonic set for --direction local")

    if "verify" in names:
        p = command("verify", "compare two chains' spectra", CHAIN_SCHEMA + "\n\n" + H_SCHEMA)
        p.add_argument("chain_a", help="first chain JSON file")
        p.add_argument("chain_b", help="second chain JSON file")
        p.add_argument("--h", help="h JSON file; second measure becomes h^2 mu")

    if "bounds" in names:
        p = command("bounds", "Hardy-constant enclosure of the principal eigenvalue")
        p.add_argument("chain", help="bd chain JSON file")
        p.add_argument("--nmax", type=int, default=2048,
                       help="largest truncation level")
        p.add_argument("--tail-tol", type=_tolerance, default=1e-10,
                       help="relative tail slack for the certificate")

    if "diffop" in names:
        p = command("diffop", "differential-operator checks", OP_SCHEMA)
        p.add_argument("op", help="operator JSON file (- for stdin)")
        p.add_argument("--h", help="h JSON file (expression or sampled values)")
        p.add_argument("--check",
                       choices=("eigen", "transform", "spectrum", "riccati"),
                       default="transform")
        p.add_argument("--nmax", type=int, default=10,
                       help="eigenfunction count for --check eigen")
        p.add_argument("--k", type=int, default=5,
                       help="eigenvalue count for --check spectrum")
        p.add_argument("--phi0", type=_number, default=0.0,
                       help="anchor value for --check riccati")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = None
    with warnings.catch_warnings():
        # the library's advisories print as diagnosis lines, which --quiet silences
        warnings.showwarning = lambda message, *_: _note(args, f"warning: {message}")
        try:
            args = parser.parse_args(argv)
            if args.cmd is None:
                parser.error("no subcommand given")
            return args.func(args)
        except SystemExit as exc:  # --help printed the usage
            return 0 if exc.code == 0 else 2
        except BrokenPipeError:  # the reader of stdout went away: not an input error
            return _stdout_closed()
        except (SchemaError, InvalidArgument, MalformedExpression, json.JSONDecodeError,
                OSError, UnicodeDecodeError, MemoryError) as exc:
            print(f"isospec: {str(exc) or type(exc).__name__}", file=sys.stderr)
            if isinstance(exc, (SchemaError, _BadRate)):
                prog = getattr(exc, "prog", None) or f"isospec {args.cmd}"
                print(f"run `{prog} --help` for the input schema", file=sys.stderr)
            return 2
        except IsospecError as exc:
            print(f"isospec: check failed: {exc}", file=sys.stderr)
            return 1


def _stdout_closed() -> int:
    """Report a closed stdout; exit status 1.

    As in Python's SIGPIPE recipe, stdout is pointed at devnull, so that no
    later flush of the unwritten rest fails again.
    """
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print("isospec: stdout closed before the report was complete", file=sys.stderr)
    return 1


def run():
    """Entry point of the isospec script and python -m isospec.cli: exit with main()."""
    gc.disable()  # no cyclic GC: its passes walk what imports made, and os._exit frees all
    code = main()
    try:
        try:
            sys.stdout.flush()  # a short report is still in the buffer
        except BrokenPipeError:
            code = _stdout_closed()
        sys.stderr.flush()
    except (OSError, ValueError):  # e.g. a closed stderr: let teardown report it
        sys.exit(code)
    # everything is written, so skip the interpreter's teardown
    os._exit(code)


if __name__ == "__main__":
    run()
