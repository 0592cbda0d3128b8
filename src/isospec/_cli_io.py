"""What every subcommand of the command line shares.

The exit-2 error, the input size caps, the JSON readers, the report writer
and the stderr notes.  cli.py runs as __main__ under python -m isospec.cli,
so the handler modules import these from here, never from isospec.cli: a
second copy of cli.py would bring a second SchemaError that main does not
catch.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import numpy as np

from .errors import IsospecError, _check_finite, _float_array


class SchemaError(Exception):
    """Malformed or inconsistent input; maps to exit status 2.

    prog names the command whose --help the diagnosis points at; by default
    the request's subcommand.
    """

    def __init__(self, message: str, prog: str | None = None):
        super().__init__(message)
        self.prog = prog


# Input size caps, above perfbench's sizes (N <= 4000) and ROADMAP.md's large-N runs.
MAX_STATES = 10**7  # largest truncation level "N" or --nmax, and cell count "M"
MAX_DENSE_BYTES = 1 << 28  # largest dense rate matrix (5792 states)


@contextmanager
def _schema_errors():
    """Report a library error raised while reading input as a SchemaError."""
    try:
        yield
    except IsospecError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------- loading


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError as exc:  # an integer literal over sys.get_int_max_str_digits()
        raise SchemaError(f"input JSON: {exc}") from None


def _floats(key: str, node) -> np.ndarray:
    """node as a float array; text, objects and ragged nesting are schema errors."""
    with _schema_errors():
        return _float_array(repr(key), node)


def _integer(key: str, node) -> int:
    """A JSON count: an integer, or a float with an integral value; not a bool or text."""
    if isinstance(node, float) and node.is_integer():
        return int(node)
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    raise SchemaError(f"{key!r} must be an integer")


def _capped(key: str, n: int) -> int:
    if n > MAX_STATES:
        raise SchemaError(f"{key} must be at most {MAX_STATES}")
    return n


def _finite(key: str, value):
    with _schema_errors():
        _check_finite(repr(key), value)
    return value


# ---------------------------------------------------------------- output


_NUMBERS = {int, float}
_encode = json.JSONEncoder().encode  # C encoder: no indent, ", " separators


def _chunks(obj, indent: str = ""):
    """Pieces of json.dumps(obj, indent=2), nested at indent.

    A numpy array or scalar is written as its tolist(), a tuple as a list.
    json's indented encoder runs in pure Python.  A flat list whose elements
    are all exactly int or float goes through the C encoder instead; no
    number's text contains ", ", so each separator becomes a line break.
    A callable stands for a value too long to build: called with indent, it
    yields that value's pieces.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    inner = indent + "  "
    if callable(obj):
        yield from obj(indent)
    elif isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) <= _NUMBERS:
        body = _encode(obj)[1:-1].replace(", ", ",\n" + inner)
        yield f"[\n{inner}{body}\n{indent}]"
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[\n" + inner
        for v in obj:
            yield sep
            yield from _chunks(v, inner)
            sep = ",\n" + inner
        yield f"\n{indent}]"
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{\n" + inner
        for k, v in obj.items():
            yield f"{sep}{_encode(k)}: "
            yield from _chunks(v, inner)
            sep = ",\n" + inner
        yield f"\n{indent}}}"
    else:
        # JSON text has no raw newlines inside strings, so re-indenting is safe
        yield json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def _emit(args, payload: dict, header=None, rows=None):
    """Print payload as JSON, or under --output csv the rows() table."""
    if args.seed is not None:
        payload = dict(payload)
        payload["seed"] = args.seed
    if args.output == "csv" and rows is not None:
        import csv

        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows())
    else:
        sys.stdout.writelines(_chunks(payload))
        sys.stdout.write("\n")


def _note(args, msg: str):
    if not args.quiet:
        print(f"isospec: {msg}", file=sys.stderr)


def _tol(args) -> dict:
    """--tol as a keyword argument when given; otherwise the library's default holds."""
    return {} if args.tol is None else {"tol": args.tol}


def _verdict(args, ok: bool) -> int:
    """Note PASS or FAIL and return the matching exit status."""
    _note(args, "PASS" if ok else "FAIL")
    return 0 if ok else 1
