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
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, astuple

from ._cli_io import (SchemaError, _capped, _emit, _finite, _floats, _integer, _load_json,
                      _note, _schema_errors, _tol, _verdict)
from .errors import InvalidArgument, IsospecError, MalformedExpression

# Each handler imports the modules it needs, so a chain request never loads
# the expression and operator modules, and an operator request never loads
# the chain modules nor compiles the chain handlers of _cli_chains.


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


# ---------------------------------------------------------------- loading


def _coeff_field(doc: dict, key: str, default=None):
    if key not in doc:
        if default is None:
            raise SchemaError(f"operator JSON is missing {key!r}")
        return default
    node = doc[key]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return float(_finite(key, _floats(key, node)))
    if isinstance(node, str):
        from .expressions import compile_expression

        return compile_expression(node).fn
    raise SchemaError(f"{key!r} must be a number or an expression string")


def load_operator(doc) -> Operator1D:
    from .diffops import Operator1D

    if not isinstance(doc, dict):
        raise SchemaError("operator JSON must be an object")
    a = _coeff_field(doc, "a")
    b = _coeff_field(doc, "b")
    c = _coeff_field(doc, "c", default=0.0)
    iv = _floats("interval", doc.get("interval"))
    if iv.shape != (2,):
        raise SchemaError('"interval" must be [lo, hi]')
    lo, hi = _finite("interval", iv).tolist()
    if not lo < hi:
        raise SchemaError('"interval" must have lo < hi')
    M = _capped('"M"', _integer("M", doc.get("M", 400)))
    if M < 2:
        raise SchemaError('"M" must be at least 2')
    bc = doc.get("bc", ["neumann", "neumann"])
    if not (isinstance(bc, list) and len(bc) == 2):
        raise SchemaError('"bc" must name two boundary conditions')
    with _schema_errors():
        return Operator1D.on_interval(a, b, c, lo, hi, M, boundary=tuple(bc))


def load_smooth(path: str, x) -> SmoothFunction:
    """The h of a diffop request on the operator's grid x; sampled values must cover x."""
    from .diffops import SmoothFunction

    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("h JSON for diffop must be an object")
    if "values" in doc:
        if "grid" not in doc:
            raise SchemaError('sampled h needs both "grid" and "values"')
        grid = _finite("grid", _floats("grid", doc["grid"]))
        vals = _finite("values", _floats("values", doc["values"]))
        with _schema_errors():
            h = SmoothFunction.from_values(grid, vals)
        lo, hi = float(grid[0]), float(grid[-1])
        if lo > x[0] or hi < x[-1]:  # np.interp would extend the end values
            raise SchemaError(f"sampled h covers [{lo}, {hi}], not the operator's "
                              f"interval [{float(x[0])}, {float(x[-1])}]")
        return h
    if "h" not in doc:
        raise SchemaError('h JSON needs "h" (expression) or "grid"/"values"')
    if "h1" in doc or "h2" in doc:
        if not ("h1" in doc and "h2" in doc):
            raise SchemaError("declare both h1 and h2 or neither")
        return SmoothFunction(
            h=_coeff_field(doc, "h"),
            h1=_coeff_field(doc, "h1"),
            h2=_coeff_field(doc, "h2"),
        )
    expr = doc["h"]
    if not isinstance(expr, str):
        raise SchemaError('"h" must be an expression string')
    return SmoothFunction.from_expression(expr)


# ---------------------------------------------------------------- handler


def cmd_diffop(args) -> int:
    from .diffops import discretize, forward_transform, riccati_dual, verify_lh_eigen

    op = load_operator(_load_json(args.op))
    if args.check in ("eigen", "transform"):
        if args.h is None:
            raise SchemaError(f"--check {args.check} needs --h")
        h = load_smooth(args.h, op.grid)

    if args.check == "eigen":
        checks = verify_lh_eigen(h, n_max=args.nmax, grid=op.grid)
        ok = all(ch.passed for ch in checks)
        payload = {"checks": [asdict(ch) for ch in checks], "all_passed": ok}
        _emit(args, payload, header=("n", "residual", "bound", "passed"),
              rows=lambda: map(astuple, checks))
        return _verdict(args, ok)

    if args.check == "transform":
        ot = forward_transform(op, h, **_tol(args))
        x = op.grid
        bt = ot.b(x)
        payload = {
            "x": x,
            "b_tilde": bt,
            "a": ot.a(x),
            "boundary": ot.boundary,
        }
        _emit(args, payload, header=("x", "b_tilde"), rows=lambda: zip(x, bt))
        return 0

    if args.check == "spectrum":
        disc = discretize(op)
        vals = disc.lowest(args.k)
        payload = {
            "eigenvalues": vals,
            "n_nodes": disc.n_nodes,
            "boundary": disc.boundary,
        }
        _emit(args, payload, header=("k", "lambda"), rows=lambda: enumerate(vals))
        return 0

    rr = riccati_dual(op, args.phi0)  # --check riccati
    payload = {
        "x": rr.grid,
        "phi": rr.phi,
        "psi": rr.psi,
        "b_tilde": rr.b_tilde,
    }
    _emit(args, payload, header=("x", "phi", "psi", "b_tilde"),
          rows=lambda: zip(rr.grid, rr.phi, rr.psi, rr.b_tilde))
    return 0


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


def _chain_command(name: str):
    """The handler of chain subcommand name; its module loads on dispatch."""
    def handler(args) -> int:
        from . import _cli_chains

        return getattr(_cli_chains, f"cmd_{name}")(args)

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


def build_parser() -> argparse.ArgumentParser:
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

    def command(name, func, summary, epilog=CHAIN_SCHEMA):
        p = sub.add_parser(name, parents=[common], help=summary, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(func=func)
        return p

    p = command("harmonic", _chain_command("harmonic"), "harmonic vector of a chain")
    p.add_argument("chain", help="chain JSON file (- for stdin)")
    p.add_argument("--theta", type=int, default=0,
                   help="anchor state for the minimal solution")
    p.add_argument("--method", choices=("iterate", "solve", "explicit"),
                   default="iterate")
    p.add_argument("--nmax", type=int, default=None,
                   help="truncation level for --method explicit")

    p = command("transform", _chain_command("transform"), "conjugate a chain by h",
                CHAIN_SCHEMA + "\n\n" + H_SCHEMA)
    p.add_argument("chain", help="chain JSON file (- for stdin)")
    p.add_argument("--h", help="h JSON file")
    p.add_argument("--direction",
                   choices=("forward", "inverse", "local", "measure"),
                   default="forward")
    p.add_argument("--set", default=None,
                   help="comma-separated harmonic set for --direction local")

    p = command("verify", _chain_command("verify"), "compare two chains' spectra",
                CHAIN_SCHEMA + "\n\n" + H_SCHEMA)
    p.add_argument("chain_a", help="first chain JSON file")
    p.add_argument("chain_b", help="second chain JSON file")
    p.add_argument("--h", help="h JSON file; second measure becomes h^2 mu")

    p = command("bounds", _chain_command("bounds"),
                "Hardy-constant enclosure of the principal eigenvalue")
    p.add_argument("chain", help="bd chain JSON file")
    p.add_argument("--nmax", type=int, default=2048,
                   help="largest truncation level")
    p.add_argument("--tail-tol", type=_tolerance, default=1e-10,
                   help="relative tail slack for the certificate")

    p = command("diffop", cmd_diffop, "differential-operator checks", OP_SCHEMA)
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
    parser = build_parser()
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
            if isinstance(exc, SchemaError):
                prog = exc.prog or f"isospec {args.cmd}"
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
