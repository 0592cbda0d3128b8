"""The diffop subcommand of the command line, which main imports when it dispatches it.

It imports neither numpy nor the operator modules itself: load_operator
checks a document's keys before it reads a number.
"""
from __future__ import annotations

from ._cli_io import (SchemaError, _capped, _emit, _finite, _floats, _integer, _load_json,
                      _schema_errors, _tol, _verdict)


def _coeff_node(doc: dict, key: str, default=None):
    """Entry key of an operator or h document, a number or an expression string."""
    if key not in doc:
        if default is None:
            raise SchemaError(f"operator JSON is missing {key!r}")
        return default
    node = doc[key]
    if isinstance(node, str) or isinstance(node, (int, float)) and not isinstance(node, bool):
        return node
    raise SchemaError(f"{key!r} must be a number or an expression string")


def _coeff(key: str, node):
    """An entry checked by _coeff_node as a float, or the function of its expression."""
    if isinstance(node, str):
        from .expressions import compile_expression

        return compile_expression(node).fn
    return float(_finite(key, _floats(key, node)))


def load_operator(doc):
    """The operator of a document whose keys, "M" and "bc" are checked first."""
    if not isinstance(doc, dict):
        raise SchemaError("operator JSON must be an object")
    nodes = [_coeff_node(doc, "a"), _coeff_node(doc, "b"), _coeff_node(doc, "c", default=0.0)]
    M = _capped('"M"', _integer("M", doc.get("M", 400)))
    if M < 2:
        raise SchemaError('"M" must be at least 2')
    bc = doc.get("bc", ["neumann", "neumann"])
    if not (isinstance(bc, list) and len(bc) == 2):
        raise SchemaError('"bc" must name two boundary conditions')
    from .diffops import Operator1D

    a, b, c = (_coeff(k, node) for k, node in zip("abc", nodes))
    iv = _floats("interval", doc.get("interval"))
    if iv.shape != (2,):
        raise SchemaError('"interval" must be [lo, hi]')
    lo, hi = _finite("interval", iv).tolist()
    if not lo < hi:
        raise SchemaError('"interval" must have lo < hi')
    with _schema_errors():
        return Operator1D.on_interval(a, b, c, lo, hi, M, boundary=tuple(bc))


def load_smooth(path: str, x):
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
        return SmoothFunction(*(_coeff(k, _coeff_node(doc, k)) for k in ("h", "h1", "h2")))
    expr = doc["h"]
    if not isinstance(expr, str):
        raise SchemaError('"h" must be an expression string')
    return SmoothFunction.from_expression(expr)


def cmd_diffop(args) -> int:
    op = load_operator(_load_json(args.op))
    if args.check in ("eigen", "transform"):
        if args.h is None:
            raise SchemaError(f"--check {args.check} needs --h")
        h = load_smooth(args.h, op.grid)

    from .diffops import discretize, forward_transform, riccati_dual, verify_lh_eigen

    if args.check == "eigen":
        checks = [ch._asdict() for ch in verify_lh_eigen(h, n_max=args.nmax, grid=op.grid)]
        ok = all(ch["passed"] for ch in checks)
        payload = {"checks": checks, "all_passed": ok}
        _emit(args, payload, header=("n", "residual", "bound", "passed"),
              rows=lambda: (ch.values() for ch in checks))
        return _verdict(args, ok)

    if args.check == "transform":
        ot = forward_transform(op, h, **_tol(args))
        x = op.grid
        bt = ot.b(x)
        payload = {"x": x, "b_tilde": bt, "a": ot.a(x), "boundary": ot.boundary}
        _emit(args, payload, header=("x", "b_tilde"), rows=lambda: zip(x, bt))
        return 0

    if args.check == "spectrum":
        disc = discretize(op)
        vals = disc.lowest(args.k)
        payload = {"eigenvalues": vals, "n_nodes": disc.n_nodes, "boundary": disc.boundary}
        _emit(args, payload, header=("k", "lambda"), rows=lambda: enumerate(vals))
        return 0

    rr = riccati_dual(op, args.phi0)  # --check riccati
    payload = {"x": rr.grid, "phi": rr.phi, "psi": rr.psi, "b_tilde": rr.b_tilde}
    _emit(args, payload, header=("x", "phi", "psi", "b_tilde"),
          rows=lambda: zip(rr.grid, rr.phi, rr.psi, rr.b_tilde))
    return 0
