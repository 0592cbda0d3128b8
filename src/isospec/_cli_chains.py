"""The chain subcommands of the command line: harmonic, transform, verify, bounds.

main imports this module when it dispatches one of them, so a diffop
request never compiles it nor loads the chain modules.  It imports neither
numpy nor the chain modules itself: load_chain checks a document's structure
before it reads a number, and each handler imports what it computes with
after its documents are loaded.

_rates_fault is a second copy of three of validate_qpair's rules (shape,
finiteness, sign), so that a malformed q-pair rate matrix is refused before
numpy loads.  They are exact predicates with no tolerance; the copy cannot
live in chains, which imports numpy, and validate_qpair stays the rule for
library callers and the oracle the tests hold the copy to.
"""
from __future__ import annotations

import math
from functools import partial

from ._cli_io import (MAX_DENSE_BYTES, SchemaError, _capped, _emit, _encode, _finite,
                      _floats, _integer, _load_json, _note, _schema_errors, _tol, _verdict)

# ---------------------------------------------------------------- loading


def _rate_field(doc: dict, key: str):
    """Number, array, or poly-formula entry of a bd chain document, which has key."""
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


def _rates_fault(node) -> str | None:
    """validate_qpair's refusal of a rates matrix of JSON numbers, or None if it has none.

    It decides only for a list of equal-length lists of numbers (bools read
    as 0 and 1, as numpy reads them); anything else, ragged rows, text,
    null or an integer past float range among them, is left to numpy's
    reading, and None is returned.  The rules keep validate_qpair's order:
    shape, then finiteness, then the first negative entry in row-major
    order, with the diagonal ignored.  Each row costs one sum and one min;
    only a row whose sum is not finite or whose min is negative is re-read
    without its diagonal.
    """
    if not isinstance(node, list) or not all(isinstance(row, list) for row in node):
        return None
    if len({len(row) for row in node}) > 1:
        return None
    try:
        # raises on an entry that is not a number in float range; a finite
        # sum means finite entries
        sums = [sum(row, 0.0) for row in node]
    except (TypeError, OverflowError):
        return None
    n = len(node)
    if n == 0 or len(node[0]) != n:
        return "rates must be a square matrix with n >= 1"
    for i, s in enumerate(sums):  # an infinite sum of finite entries is re-read
        if not math.isfinite(s) and not all(map(math.isfinite, _off_diagonal(node, i))):
            return "rates has a NaN or infinite entry"
    for i, row in enumerate(node):
        # min skips a NaN on the diagonal, or returns it when it comes first
        # and then fails the test
        if min(row) >= 0:
            continue
        if min(_off_diagonal(node, i), default=0.0) < 0:  # not only the diagonal
            j = next(j for j, v in enumerate(row) if v < 0 and j != i)
            return f"rate[{i}][{j}] = {float(row[j])} is negative"
    return None


def _off_diagonal(node: list, i: int) -> list:
    """Row i of the list of rows node, without its diagonal entry."""
    return node[i][:i] + node[i][i + 1:]


class ChainInput:
    """A loaded chain document: a bd spec or a q-pair, its "N", and its "mu" if given.

    cap is the largest state index the array fields of a bd chain cover.
    """

    def __init__(self, kind: str, bd=None, qp=None, N: int | None = None,
                 cap: int | None = None, mu=None):
        self.kind, self.bd, self.qp, self.N, self.cap, self.mu = kind, bd, qp, N, cap, mu
        self._band = None  # a bd chain's truncation, built once

    def as_qpair(self, band: bool = False):
        """The chain as a QPairSpec; a bd chain as a BandSpec when band is true."""
        from .chains import _dense_view, bd_to_band

        if self.kind == "qpair":
            return self.qp
        N = self.N
        if N is None:
            raise SchemaError('bd chain with formula rates needs "N"')
        if not band and 8 * (N + 1) ** 2 > MAX_DENSE_BYTES:
            raise SchemaError(f"a dense rate matrix of {N + 1} states exceeds the cap "
                              f"of {MAX_DENSE_BYTES} bytes")
        with _schema_errors():
            self._band = self._band or bd_to_band(self.bd, N)
        return self._band if band else _dense_view(self._band)

    def measure(self):
        if self.mu is not None:
            return self.mu
        if self.kind == "bd":
            from ._checks import _in_float_range
            from .chains import _bd_mu

            band = self.as_qpair(band=True)
            return _in_float_range("mu", _bd_mu(band.up, band.down))
        raise SchemaError('qpair chain needs an explicit "mu" array here')


def load_chain(doc) -> ChainInput:
    """The chain of a document whose structure is checked before any number is read.

    In order: an object with a known "type"; "birth" and "death" in a bd
    document; "N", if given, an integer in 1..MAX_STATES; "rates" in a qpair
    document, and a "rates" matrix of numbers square, finite and nonnegative
    off the diagonal (_rates_fault).  Only then are "mu" and the rate
    fields read, with numpy.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError('chain JSON must be an object with a "type" field')
    kind = doc["type"]
    if kind not in ("bd", "qpair"):
        raise SchemaError(f'unknown chain type {kind!r} (want "bd" or "qpair")')
    N = None
    if kind == "bd":
        for key in ("birth", "death"):
            if key not in doc:
                raise SchemaError(f"bd chain is missing the {key!r} field")
        if "N" in doc:
            N = _capped('"N"', _integer("N", doc["N"]))
            if N < 1:
                raise SchemaError('"N" must be at least 1')
    elif "rates" not in doc:
        raise SchemaError('qpair chain is missing the "rates" matrix')
    elif fault := _rates_fault(doc["rates"]):
        raise SchemaError(fault)

    from ._checks import _positive_mu
    from .chains import BirthDeathSpec, validate_qpair

    mu = _finite("mu", _floats("mu", doc["mu"])) if "mu" in doc else None
    if kind == "bd":
        birth, nb = _rate_field(doc, "birth")
        death, na = _rate_field(doc, "death")
        killing, nc = _rate_field(doc, "killing") if "killing" in doc else (0.0, None)
        lens = [n for n in (nb, na, nc) if n is not None]
        cap = min(lens) - 1 if lens else None
        if N is None:
            N = cap
        elif cap is not None and N > cap:
            raise SchemaError(f'"N" = {N} exceeds the rate arrays (largest state {cap})')
        if mu is not None:
            with _schema_errors():  # an N that is not known yet takes mu's length
                mu = _positive_mu(mu, mu.size if N is None else N + 1)
        spec = BirthDeathSpec(birth=birth, death=death, killing=killing)
        return ChainInput(kind="bd", bd=spec, N=N, cap=cap, mu=mu)

    rates = _floats("rates", doc["rates"])
    total = _floats("total", doc["total"]) if "total" in doc else None
    killing = _floats("killing", doc["killing"]) if "killing" in doc else None
    with _schema_errors():
        qp = validate_qpair(rates, total, killing)
        mu = None if mu is None else _positive_mu(mu, qp.n_states)
    return ChainInput(kind="qpair", qp=qp, mu=mu)


def load_h(path: str):
    """The h of the document at path: a flat array of at least two finite values."""
    doc = _load_json(path)
    if isinstance(doc, dict):
        if "values" not in doc:
            raise SchemaError('h JSON object needs a "values" array')
        doc = doc["values"]
    arr = _floats("values", doc)
    if arr.ndim != 1 or arr.size < 2:
        raise SchemaError("h must be a flat array of at least two values")
    return _finite("values", arr)


def _within_arrays(args, ci: ChainInput, n: int, label: str) -> int:
    """Truncation level n, capped, and lowered to the last state the rate arrays cover."""
    n = _capped("--nmax", n)
    if ci.cap is not None and n > ci.cap:
        n = ci.cap
        _note(args, f"rate arrays end early; using {label} {n}")
    return n


# ---------------------------------------------------------------- output


def _qpair_doc(qp, mu=None) -> dict:
    from .chains import BandSpec

    doc = {
        "type": "qpair",
        # a BandSpec is written as its dense rate matrix, row by row
        "rates": partial(_band_rows, qp) if isinstance(qp, BandSpec) else qp.rates,
        "total": qp.total,
        "killing": qp.killing,
    }
    if mu is not None:
        doc["mu"] = mu
    return doc


def _band_rows(qp, indent: str):
    """Pieces of the dense rate matrix of qp, as _chunks writes a list of rows, at indent.

    qp is a BandSpec.  Only the band goes through repr; each run of zeros
    is a slice of one string of zeros and separators.
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


# ---------------------------------------------------------------- handlers


def cmd_harmonic(args) -> int:
    ci = load_chain(_load_json(args.chain))
    from .harmonic import bd_harmonic_explicit, minimal_harmonic

    if args.method == "explicit":
        if ci.kind != "bd":
            raise SchemaError("--method explicit needs a bd chain")
        N = args.nmax if args.nmax is not None else ci.N
        if N is None:
            raise SchemaError("unbounded bd chain: pass --nmax")
        N = _within_arrays(args, ci, N, "N =")
        hv = bd_harmonic_explicit(ci.bd, N)
    else:
        hv, trace = minimal_harmonic(ci.as_qpair(), args.theta, method=args.method,
                                     **_tol(args))
    payload = {
        "h": hv.values,
        "base_index": hv.base_index,
        "residual": hv.residual,
        "harmonic_set": hv.harmonic_set,
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
    ci = load_chain(_load_json(args.chain))
    from .duality import (
        bd_h_transform,
        h_transform,
        h_transform_local,
        inverse_transform,
        measure_dual,
        transform_measure,
    )

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
        spec_t, mp = bd_h_transform(ci.bd, hv, N, **_tol(args))
        b, a, c = spec_t.birth, spec_t.death, spec_t.killing
        doc = {"type": "bd", "birth": b, "death": a, "killing": c, "N": N,
               "mu": mp.mu, "nu_hat": mp.nu_hat}
        _emit(args, doc, header=("state", "birth", "death", "killing", "mu"),
              rows=lambda: zip(range(N + 1), b, a, c, mp.mu))
        return 0

    qp = ci.as_qpair(band=True)
    hv = hv[: qp.n_states]

    if args.direction == "forward":
        out = h_transform(qp, hv, **_tol(args))
    elif args.direction == "inverse":
        out = inverse_transform(qp, hv)
    else:  # local; the library checks the --set indices
        try:
            hset = tuple(map(int, args.set.split(","))) if args.set else None
        except ValueError:
            raise SchemaError("'--set' must be an integer") from None
        out = h_transform_local(qp, hv, harmonic_set=hset, **_tol(args))
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
    A = load_chain(_load_json(args.chain_a))
    B = load_chain(_load_json(args.chain_b))
    from .duality import transform_measure
    from .spectra import isospectral_check

    qpA = A.as_qpair()
    qpB = B.as_qpair()
    muA = A.measure()
    if B.mu is not None:
        muB = B.mu
    elif args.h is not None:
        muB = transform_measure(muA, load_h(args.h)[: qpA.n_states])
    elif B.kind == "bd":
        muB = B.measure()
    else:
        raise SchemaError("second chain needs a measure: give --h or embed \"mu\"")

    rep = isospectral_check(qpA, muA, qpB, muB, **_tol(args))
    a, b = rep.eigenvalues, rep.eigenvalues_other
    _emit(args, rep.to_dict(), header=("k", "lambda_a", "lambda_b", "gap"),
          rows=lambda: zip(range(len(a)), a, b, abs(a - b)))
    return _verdict(args, rep.passed)


def cmd_bounds(args) -> int:
    ci = load_chain(_load_json(args.chain))
    if ci.kind != "bd":
        raise SchemaError("bounds needs a bd chain")
    from .eigenbounds import bounds_report

    nmax = _within_arrays(args, ci, args.nmax, "--nmax")
    rep = bounds_report(ci.bd, N_max=nmax, tail_tol=args.tail_tol)
    payload = rep.to_dict()
    payload["n_max"] = nmax
    _emit(args, payload, header=("n", "partial_sup"),
          rows=lambda: enumerate(rep.delta_detail.partial))
    return _verdict(args, rep.containment)
