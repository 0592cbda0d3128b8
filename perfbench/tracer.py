"""Run one isospec CLI request with a span around every public function.

Usage::

    python -X importtime perfbench/tracer.py SPANS.json REQUEST_ID ARG...

behaves like ``python -m isospec.cli ARG...``: the same stdout, stderr
diagnoses and exit status.  Before the CLI runs, every public function of
every isospec module, plus ``BirthDeathSpec.rate_arrays`` and
``CompiledExpr.diff``, is replaced by a wrapper in each ``isospec.*``
namespace that binds it, so calls through names imported with ``from ...
import`` are seen too.  Spans stay in memory and are written to SPANS.json
when the request ends, as rows ``[id, parent, name, start_ns, end_ns,
error, extra, request_id]`` on the system-wide monotonic clock.  Span 0 is
the whole request and span 1 the import of the package.
"""
import time

_CLOCK = time.CLOCK_MONOTONIC


def now() -> int:
    return time.clock_gettime_ns(_CLOCK)


# taken before the remaining imports, which thus count as the tracer's time
T_START = now()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

MODULES = ("cli", "chains", "harmonic", "duality", "spectra", "eigenbounds",
           "expressions", "diffops")
METHODS = (("chains", "BirthDeathSpec", "rate_arrays"),
           ("expressions", "CompiledExpr", "diff"))


def _shape0(x):
    import numpy as np

    return int(np.shape(x)[0])


def _eig_path(args):
    import numpy as np

    if args.get("method"):
        return args["method"]
    S = np.asarray(args["S"])
    return "tridiagonal_ql" if not np.any(np.triu(S, 2)) else "jacobi"


# Sizes and counts recorded next to a span, from bound arguments and result.
EXTRAS = {
    "chains.validate_qpair": lambda a, r: {"n": _shape0(a["rates"])},
    "chains.bd_to_qpair": lambda a, r: {"n": int(a["N"]) + 1},
    "harmonic.bd_harmonic_explicit": lambda a, r: {"n": int(a["N"])},
    "harmonic.minimal_harmonic": lambda a, r: {"iterations": int(r[1].n_iter)},
    "spectra.eig_sym": lambda a, r: {"n": _shape0(a["S"]), "path": _eig_path(a)},
    "spectra.eig_tridiag": lambda a, r: {"n": _shape0(a["d"])},
    "spectra.smallest_eig_tridiag": lambda a, r: {"eigs": 1},
    "spectra.lowest_eigs_tridiag": lambda a, r: {"eigs": int(a["k"])},
    "eigenbounds.delta_tilde": lambda a, r: {"terms": int(r.n_terms)},
}


class Recorder:
    """Span stack of one single-threaded request."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = [[0, -1, "request", T_START, 0, 0, None, request_id]]
        self.stack = [0]
        self.raised = []  # exceptions already charged to an inner span

    def open(self, name):
        span = [len(self.spans), self.stack[-1], name, now(), 0, 0, None, self.request_id]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span):
        span[4] = now()
        self.stack.pop()

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span)
                if not any(e is exc for e in self.raised):
                    self.raised.append(exc)
                    span[5] = 1
                raise
            self.close(span)
            if extra:
                # the request must behave as untraced even if a signature changed
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[6] = extra(bound.arguments, result)
                except Exception as exc:
                    span[6] = {"extra_error": repr(exc)}
            return result

        return traced


def install(rec: Recorder):
    """Wrap the public functions and patch every namespace that binds them."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"isospec.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = rec.wrap(f"{short}.{name}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "isospec" or modname.startswith("isospec."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    for short, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"isospec.{short}"), cls_name)
        setattr(cls, meth, rec.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))


def main(spans_path, request_id, argv):
    rec = Recorder(request_id)
    span = rec.open("import")
    import isospec.cli

    rec.close(span)
    install(rec)
    try:
        return isospec.cli.main(argv)
    finally:
        rec.spans[0][4] = now()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
