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
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .chains import (BandSpec, BirthDeathSpec, bd_measures, bd_to_band, bd_to_qpair,
                     validate_qpair)
from .errors import InvalidArgument, IsospecError, MalformedExpression

# Each handler imports the modules it needs, so a chain request never loads
# the expression and operator modules, and an operator request never loads
# the chain transforms and eigenvalue bounds.


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
values {"grid": [...], "values": [...]}."""


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
    try:
        return np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{key!r} must hold only numbers, nested evenly") from None


def _integer(key: str, node) -> int:
    try:
        return int(node)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{key!r} must be an integer") from None


def _capped(key: str, n: int) -> int:
    if n > MAX_STATES:
        raise SchemaError(f"{key} must be at most {MAX_STATES}")
    return n


def _finite(key: str, value):
    if not np.all(np.isfinite(value)):
        raise SchemaError(f"{key!r} has a NaN or infinite entry")
    return value


def _rate_field(doc: dict, key: str, default=None):
    """Number, array, or poly-formula entry of a bd chain document."""
    if key not in doc:
        if default is None:
            raise SchemaError(f"bd chain is missing the {key!r} field")
        return default, None
    node = doc[key]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return _finite(key, float(_floats(key, node))), None
    if isinstance(node, list):
        arr = _floats(key, node)
        if arr.ndim != 1 or arr.size == 0:
            raise SchemaError(f"{key!r} must be a flat nonempty array")
        return _finite(key, arr), arr.shape[0]
    if isinstance(node, dict) and node.get("formula") == "poly":
        coeffs = _finite(key, _floats(key, node.get("coeffs", [])))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise SchemaError(f"{key!r} poly formula needs a nonempty coeffs array")

        def fn(i, _c=coeffs.tolist()[::-1]):
            # the Horner steps of numpy's polyval on Python floats: the same
            # roundings, and an overflow gives inf without a warning
            x = float(i)
            v = _c[0] + x * 0.0
            for ck in _c[1:]:
                v = ck + v * x
            if not math.isfinite(v):
                raise SchemaError(f"{key!r} poly formula is not finite at state {i}")
            return v

        return fn, None
    raise SchemaError(
        f"{key!r} must be a number, an array, or "
        '{"formula": "poly", "coeffs": [...]}'
    )


@dataclass
class ChainInput:
    kind: str
    bd: BirthDeathSpec | None = None
    qp: object = None
    N: int | None = None
    cap: int | None = None  # largest state index array fields cover
    mu: np.ndarray | None = None

    def truncation(self) -> int:
        if self.N is None:
            raise SchemaError('bd chain with formula rates needs "N"')
        return self.N

    def as_qpair(self, band: bool = False):
        """The chain as a QPairSpec; a bd chain as a BandSpec when band is true."""
        if self.kind == "qpair":
            return self.qp
        N = self.truncation()
        if not band and 8 * (N + 1) ** 2 > MAX_DENSE_BYTES:
            raise SchemaError(f"a dense rate matrix of {N + 1} states exceeds the cap "
                              f"of {MAX_DENSE_BYTES} bytes")
        with _schema_errors():
            return (bd_to_band if band else bd_to_qpair)(self.bd, N)

    def measure(self):
        if self.mu is not None:
            return self.mu
        if self.kind == "bd":
            return bd_measures(self.bd, self.truncation()).mu
        raise SchemaError('qpair chain needs an explicit "mu" array here')


def load_chain(doc) -> ChainInput:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError('chain JSON must be an object with a "type" field')
    mu = None
    if "mu" in doc:
        mu = _finite("mu", _floats("mu", doc["mu"]))
        if mu.ndim != 1 or np.any(~(mu > 0.0)):
            raise SchemaError('"mu" must be a flat array of positive weights')

    if doc["type"] == "bd":
        birth, nb = _rate_field(doc, "birth")
        death, na = _rate_field(doc, "death")
        killing, nc = _rate_field(doc, "killing", default=0.0)
        lens = [n for n in (nb, na, nc) if n is not None]
        cap = min(lens) - 1 if lens else None
        if "N" in doc:
            N = _capped('"N"', _integer("N", doc["N"]))
            if N < 1:
                raise SchemaError('"N" must be at least 1')
            if cap is not None and N > cap:
                raise SchemaError(
                    f'"N" = {N} exceeds the rate arrays (largest state {cap})'
                )
        else:
            N = cap
        if mu is not None and N is not None and mu.shape[0] != N + 1:
            raise SchemaError('"mu" length must match the number of states')
        spec = BirthDeathSpec(birth=birth, death=death, killing=killing)
        return ChainInput(kind="bd", bd=spec, N=N, cap=cap, mu=mu)

    if doc["type"] == "qpair":
        if "rates" not in doc:
            raise SchemaError('qpair chain is missing the "rates" matrix')
        rates = _floats("rates", doc["rates"])
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise SchemaError('"rates" must be a square matrix')
        total = _floats("total", doc["total"]) if "total" in doc else None
        killing = _floats("killing", doc["killing"]) if "killing" in doc else None
        with _schema_errors():
            qp = validate_qpair(rates, total, killing)
        if mu is not None and mu.shape[0] != qp.n_states:
            raise SchemaError('"mu" length must match the number of states')
        return ChainInput(kind="qpair", qp=qp, mu=mu)

    raise SchemaError(f'unknown chain type {doc["type"]!r} (want "bd" or "qpair")')


def load_h(path: str) -> np.ndarray:
    doc = _load_json(path)
    if isinstance(doc, dict):
        if "values" not in doc:
            raise SchemaError('h JSON object needs a "values" array')
        doc = doc["values"]
    arr = _floats("values", doc)
    if arr.ndim != 1 or arr.size < 2:
        raise SchemaError("h must be a flat array of at least two values")
    return _finite("values", arr)


def _coeff_field(doc: dict, key: str, default=None):
    if key not in doc:
        if default is None:
            raise SchemaError(f"operator JSON is missing {key!r}")
        return default
    node = doc[key]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return float(_floats(key, node))
    if isinstance(node, str):
        from .expressions import compile_expression

        return compile_expression(node)
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
    lo, hi = iv.tolist()
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


def load_smooth(path: str) -> SmoothFunction:
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
            return SmoothFunction.from_values(grid, vals)
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


# ---------------------------------------------------------------- output


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


_NUMBERS = {int, float}
_BLOCK = 1 << 20  # characters per write of a long JSON document
_encode = json.JSONEncoder().encode  # C encoder: no indent, ", " separators


def _chunks(obj, indent: str = ""):
    """Pieces of json.dumps(obj, indent=2), nested at indent.

    json's indented encoder runs in pure Python.  A flat list whose elements
    are all exactly int or float goes through the C encoder instead; no
    number's text contains ", ", so each separator becomes a line break.
    A BandSpec stands for its dense rate matrix.
    """
    inner = indent + "  "
    if isinstance(obj, BandSpec):
        yield from _band_rows(obj, indent)
    elif isinstance(obj, list) and obj and set(map(type, obj)) <= _NUMBERS:
        body = _encode(obj)[1:-1].replace(", ", ",\n" + inner)
        yield f"[\n{inner}{body}\n{indent}]"
    elif isinstance(obj, list) and obj:
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


def _band_rows(qp: BandSpec, indent: str):
    """The dense rate matrix of qp as _chunks writes a list of rows, row by row.

    Only the band goes through repr; each run of zeros is a slice of one
    string of zeros and separators.
    """
    inner = indent + "  "
    sep = ",\n" + inner + "  "
    n = qp.n_states
    up = [_encode(v) for v in qp.up.tolist()]
    down = [_encode(v) for v in qp.down.tolist()]
    zeros = ("0.0" + sep) * n  # zeros[:k * w] and zeros[3 : 3 + k * w] hold k zeros
    w = len(sep) + 3
    lead = "[\n" + inner
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        band = down[i - 1 : i] + ["0.0"] + up[i : i + 1]  # columns lo..hi
        yield (f"{lead}[\n{inner}  {zeros[: lo * w]}{sep.join(band)}"
               f"{zeros[3 : 3 + (n - 1 - hi) * w]}\n{inner}]")
        lead = ",\n" + inner
    yield f"\n{indent}]"


def _emit(args, payload: dict, header=None, rows=None):
    """Print payload as JSON, or under --output csv the rows() table."""
    if args.seed is not None:
        payload = dict(payload)
        payload["seed"] = args.seed
    if args.output == "csv" and rows is not None:
        import csv

        w = csv.writer(sys.stdout)
        w.writerow(header)
        for row in rows():
            w.writerow([_jsonable(v) for v in row])
    else:
        # a dense rate matrix can run to tens of MB, so write it in blocks; a
        # document under a block is one write, as print() made it
        block, size = [], 0
        for chunk in _chunks(_jsonable(payload)):
            block.append(chunk)
            size += len(chunk)
            if size >= _BLOCK:
                sys.stdout.write("".join(block))
                block, size = [], 0
        sys.stdout.write("".join(block))
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


def _within_arrays(args, ci: ChainInput, n: int, label: str, reach: int) -> int:
    """Truncation level n, capped, and lowered until the rate arrays cover 0..n + reach.

    reach is how far past n the request reads.
    """
    n = _capped("--nmax", n)
    if ci.cap is not None and n + reach > ci.cap:
        n = ci.cap - reach
        _note(args, f"rate arrays end early; using {label} {n}")
    return n


def _bd_doc(spec: BirthDeathSpec, N: int, mp=None) -> dict:
    b, a, c = spec.rate_arrays(N)
    doc = {
        "type": "bd",
        "birth": b,
        "death": a,
        "killing": c,
        "N": N,
    }
    if mp is not None:
        doc["mu"] = mp.mu
        doc["nu_hat"] = mp.nu_hat
    return doc


def _qpair_doc(qp, mu=None) -> dict:
    doc = {
        "type": "qpair",
        # a BandSpec is written as its dense rate matrix
        "rates": qp if isinstance(qp, BandSpec) else qp.rates,
        "total": qp.total,
        "killing": qp.killing,
    }
    if mu is not None:
        doc["mu"] = mu
    return doc


# ---------------------------------------------------------------- handlers


def cmd_harmonic(args) -> int:
    from .harmonic import bd_harmonic_explicit, minimal_harmonic

    ci = load_chain(_load_json(args.chain))
    if args.method == "explicit":
        if ci.kind != "bd":
            raise SchemaError("--method explicit needs a bd chain")
        N = args.nmax if args.nmax is not None else ci.N
        if N is None:
            raise SchemaError("unbounded bd chain: pass --nmax")
        N = _within_arrays(args, ci, N, "N =", reach=0)
        hv = bd_harmonic_explicit(ci.bd, N)
    else:
        hv, trace = minimal_harmonic(ci.as_qpair(), args.theta, method=args.method,
                                     **_tol(args))
    payload = {
        "h": hv.values,
        "base_index": hv.base_index,
        "residual": hv.residual,
        "harmonic_set": list(hv.harmonic_set),
        "residuals": hv.residuals,
        "method": args.method,
    }
    if args.method != "explicit":
        payload.update(converged=trace.converged, n_iter=trace.n_iter,
                       final_delta=trace.final_delta)
    _emit(args, payload, header=("state", "h", "residual"),
          rows=lambda: zip(range(len(hv)), hv.values, hv.residuals))
    return 0


def cmd_transform(args) -> int:
    from .duality import (
        bd_h_transform,
        h_transform,
        h_transform_local,
        inverse_transform,
        measure_dual,
        transform_measure,
    )

    ci = load_chain(_load_json(args.chain))
    if args.direction == "measure":
        qp = ci.as_qpair(band=True)
        mu = ci.measure()
        out = measure_dual(qp, mu)
        _emit_qpair_transform(args, out, mu)
        return 0

    if args.h is None:
        raise SchemaError(f"--direction {args.direction} needs --h")
    hv = load_h(args.h)

    if args.direction == "forward" and ci.kind == "bd":
        N = hv.shape[0] - 2
        if ci.N is not None:
            N = min(N, ci.N)
        if N < 1:
            raise SchemaError("h must cover at least states 0..2")
        if ci.N is not None and N < ci.N:
            _note(args, f"h covers 0..{N + 1}; transforming up to N = {N}")
        spec_t, mp = bd_h_transform(ci.bd, hv, N)
        doc = _bd_doc(spec_t, N, mp)
        _emit(args, doc, header=("state", "birth", "death", "killing", "mu"),
              rows=lambda: zip(range(N + 1), doc["birth"], doc["death"], doc["killing"],
                               mp.mu))
        return 0

    qp = ci.as_qpair(band=True)
    n = qp.n_states
    if hv.shape[0] < n:
        raise SchemaError(f"h has {hv.shape[0]} values but the chain has {n} states")
    hv = hv[:n]

    if args.direction == "forward":
        out = h_transform(qp, hv, **_tol(args))
    elif args.direction == "inverse":
        out = inverse_transform(qp, hv)
    elif args.direction == "local":
        hset = None
        if args.set:
            hset = tuple(_integer("--set", s) for s in args.set.split(","))
            if not all(0 <= i < n for i in hset):
                raise SchemaError(f"--set indices must lie in 0..{n - 1}")
        out = h_transform_local(qp, hv, harmonic_set=hset, **_tol(args))
    else:
        raise SchemaError(f"unknown direction {args.direction!r}")
    inverse = args.direction == "inverse"
    mu = None if ci.mu is None else transform_measure(ci.mu, hv, inverse=inverse)
    _emit_qpair_transform(args, out, mu)
    return 0


def _emit_qpair_transform(args, qp, mu):
    def rows():
        ii, jj, vv = (x.tolist() for x in qp.nonzero())
        yield from (("rate", i, j, v) for i, j, v in zip(ii, jj, vv))
        yield from (("total", i, "", qp.total[i]) for i in range(qp.n_states))
        yield from (("killing", i, "", qp.killing[i]) for i in range(qp.n_states))

    _emit(args, _qpair_doc(qp, mu), header=("kind", "i", "j", "value"), rows=rows)


def cmd_verify(args) -> int:
    from .duality import transform_measure
    from .spectra import isospectral_check

    A = load_chain(_load_json(args.chain_a))
    B = load_chain(_load_json(args.chain_b))
    qpA = A.as_qpair()
    qpB = B.as_qpair()
    if qpA.n_states != qpB.n_states:
        raise SchemaError(
            f"state counts differ ({qpA.n_states} vs {qpB.n_states})"
        )
    muA = A.measure()
    if B.mu is not None:
        muB = B.mu
    elif args.h is not None:
        hv = load_h(args.h)
        if hv.shape[0] < qpA.n_states:
            raise SchemaError("h is shorter than the state space")
        muB = transform_measure(muA, hv[: qpA.n_states])
    elif B.kind == "bd":
        muB = B.measure()
    else:
        raise SchemaError("second chain needs a measure: give --h or embed \"mu\"")

    rep = isospectral_check(qpA, muA, qpB, muB, **_tol(args))
    a, b = rep.eigenvalues, rep.eigenvalues_other
    _emit(args, rep.to_dict(), header=("k", "lambda_a", "lambda_b", "gap"),
          rows=lambda: zip(range(len(a)), a, b, np.abs(a - b)))
    return _verdict(args, rep.passed)


def cmd_bounds(args) -> int:
    from .eigenbounds import bounds_report

    ci = load_chain(_load_json(args.chain))
    if ci.kind != "bd":
        raise SchemaError("bounds needs a bd chain")
    # the harmonic h of the Hardy weights runs one state past nmax
    nmax = _within_arrays(args, ci, args.nmax, "--nmax", reach=1)
    rep = bounds_report(ci.bd, N_max=nmax, tail_tol=args.tail_tol)
    payload = rep.to_dict()
    payload["n_max"] = nmax
    _emit(args, payload, header=("n", "partial_sup"),
          rows=lambda: enumerate(rep.delta_detail.partial))
    return _verdict(args, rep.containment)


def cmd_diffop(args) -> int:
    from .diffops import discretize, forward_transform, riccati_dual, verify_lh_eigen

    op = load_operator(_load_json(args.op))
    if args.check in ("eigen", "transform"):
        if args.h is None:
            raise SchemaError(f"--check {args.check} needs --h")
        h = load_smooth(args.h)

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
            "boundary": list(ot.boundary),
        }
        _emit(args, payload, header=("x", "b_tilde"), rows=lambda: zip(x, bt))
        return 0

    if args.check == "spectrum":
        disc = discretize(op)
        vals = disc.lowest(args.k)
        payload = {
            "eigenvalues": vals,
            "n_nodes": disc.n_nodes,
            "boundary": list(disc.boundary),
        }
        _emit(args, payload, header=("k", "lambda"), rows=lambda: enumerate(vals))
        return 0

    if args.check == "riccati":
        rr = riccati_dual(op, args.phi0)
        payload = {
            "x": rr.grid,
            "phi": rr.phi,
            "psi": rr.psi,
            "b_tilde": rr.b_tilde,
        }
        _emit(args, payload, header=("x", "phi", "psi", "b_tilde"),
              rows=lambda: zip(rr.grid, rr.phi, rr.psi, rr.b_tilde))
        return 0

    raise SchemaError(f"unknown check {args.check!r}")


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Reject the command line through main's exit-2 clause."""
        raise SchemaError(message, self.prog)


def _tolerance(text: str) -> float:
    """A --tol or --tail-tol value, which must be finite and positive."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return v


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

    p = command("harmonic", cmd_harmonic, "harmonic vector of a chain")
    p.add_argument("chain", help="chain JSON file (- for stdin)")
    p.add_argument("--theta", type=int, default=0,
                   help="anchor state for the minimal solution")
    p.add_argument("--method", choices=("iterate", "solve", "explicit"),
                   default="iterate")
    p.add_argument("--nmax", type=int, default=None,
                   help="truncation level for --method explicit")

    p = command("transform", cmd_transform, "conjugate a chain by h",
                CHAIN_SCHEMA + "\n\n" + H_SCHEMA)
    p.add_argument("chain", help="chain JSON file (- for stdin)")
    p.add_argument("--h", help="h JSON file")
    p.add_argument("--direction",
                   choices=("forward", "inverse", "local", "measure"),
                   default="forward")
    p.add_argument("--set", default=None,
                   help="comma-separated harmonic set for --direction local")

    p = command("verify", cmd_verify, "compare two chains' spectra",
                CHAIN_SCHEMA + "\n\n" + H_SCHEMA)
    p.add_argument("chain_a", help="first chain JSON file")
    p.add_argument("chain_b", help="second chain JSON file")
    p.add_argument("--h", help="h JSON file; second measure becomes h^2 mu")

    p = command("bounds", cmd_bounds,
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
    p.add_argument("--phi0", type=float, default=0.0,
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


def run():
    """Entry point of the isospec script and python -m isospec.cli: exit with main()."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # e.g. a closed pipe: let teardown report it
        sys.exit(code)
    # everything is written, so skip the interpreter's teardown
    os._exit(code)


if __name__ == "__main__":
    run()
