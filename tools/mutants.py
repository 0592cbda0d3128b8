"""Mutation runner: which one-line changes to the library does tier-1 notice?

Each row of MUTANTS names a file under src/isospec, an exact text in it and
the text that replaces it.  For each row the runner copies src/, tests/ and
pyproject.toml of a tree into a temporary directory, makes that one edit,
runs tier-1 there with -x and prints "killed" when a test fails or
"survives" when every test passes.  A run that outlasts TIMEOUT_S is
stopped and prints "killed (timeout)": a mutant that never ends fails too.
A row whose text the tree does not hold prints "absent": the code it
mutates is gone.  tests/test_mutants.py, which checks that each row's text
occurs once in the unmutated tree, is left out of these runs.

A survivor is a term no test constrains: delete it, or pin it with a test
against a truth.  Each survivor costs a full tier-1 run, so this is a review
tool, run by hand; neither tier-1 nor CI runs it.  Standard library only:

    python3 tools/mutants.py             # every row, on this checkout
    python3 tools/mutants.py --tree DIR  # every row, on another checkout
"""
import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# seconds a mutant's tier-1 run may take; tier-1 itself takes under a minute
TIMEOUT_S = 300

# (name, file under src/isospec, old text, new text)
MUTANTS = [
    # duality: the tilt, the residual scale and the transforms' preconditions and outputs
    ("tilt ratios swapped", "duality.py",
     "fwd, bwd = w[1:] / w[:-1], w[:-1] / w[1:]", "fwd, bwd = w[:-1] / w[1:], w[1:] / w[:-1]"),
    ("band flow overwrites", "duality.py",
     "flow[1:] = np.maximum(flow[1:], qp.down * hv[:-1])", "flow[1:] = qp.down * hv[:-1]"),
    ("NaN residual passes", "duality.py",
     "    rel[np.isnan(rel)] = np.inf  # terms past float range fail every tolerance\n", ""),
    ("inverse without conservative check", "duality.py",
     "    if not qt.conservative:", "    if False:"),
    ("inverse zero-potential scale", "duality.py",
     "_CONS_RTOL * np.maximum(1.0, qt.total)", "_CONS_RTOL"),
    ("local set ignores h's own", "duality.py",
     'harmonic_set = getattr(h, "harmonic_set", None) or range(n - 1)',
     "harmonic_set = range(n - 1)"),
    ("bd forward keeps death[0] = 1", "duality.py",
     "    a_t[0] = 0.0  # a placeholder, as in rate_arrays; the 1.0 kept indices on states\n",
     ""),
    # chains: the h recurrence, the running-product measure and the checks of a q-pair
    ("h_1 sign", "chains.py",
     "h = [1.0, 1.0 - c[0] / b[0]]", "h = [1.0, 1.0 + c[0] / b[0]]"),
    ("mu ratio inverted", "chains.py",
     "np.cumprod(up / down)", "np.cumprod(down / up)"),
    ("negative rate admitted", "chains.py",
     "    if np.any(r < 0.0):", "    if np.any(r < -1.0):"),
    ("potential slack dropped", "chains.py",
     "excess = diag - _CONS_RTOL * np.maximum(1.0, np.abs(q))", "excess = diag"),
    ("rates writable", "chains.py", "    r.flags.writeable = False\n", ""),
    ("totals and potential writable", "chains.py",
     "    q.flags.writeable = False\n    c.flags.writeable = False\n", ""),
    ("band rates writable", "chains.py",
     "    u.flags.writeable = False\n    d.flags.writeable = False\n", ""),
    # _checks: the record constructor
    ("field by position and keyword", "_checks.py",
     "len(args) > len(names) or kwargs.keys() & names[:len(args)]", "len(args) > len(names)"),
    # spectra: the Sturm count, bisection, its bracket and symmetrisation
    ("Sturm count drops the last pivot", "spectra.py",
     "return count + int(q < 0.0)", "return count"),
    ("bisection without its step cap", "spectra.py", "for _ in range(4096):", "while True:"),
    ("bracket past float range admitted", "spectra.py",
     "    if not np.isfinite(2.0 * max(top, -bot)):", "    if False:"),
    ("bisection tolerance unchecked", "spectra.py",
     '    rel_tol = _tolerance("rel_tol", rel_tol)\n', ""),
    ("reversibility unchecked", "spectra.py",
     "    if np.max(viol) > _REVERSIBLE_RTOL:", "    if False:"),
    # harmonic: the anchored iteration and the direct solve
    ("iteration without its source", "harmonic.py",
     "new = K @ hm + s  #", "new = K @ hm  #"),
    ("negative solve admitted", "harmonic.py",
     "bad = np.flatnonzero(~np.isfinite(hm) | (hm < -tol * np.max(np.abs(hm), initial=1.0)))",
     "bad = np.flatnonzero(~np.isfinite(hm))"),
    # diffops: tolerances, the Riccati anchor, the scaling of e^psi and the chain's rates
    ("inverse zero potential exact", "diffops.py",
     "if np.any(np.abs(opt.c(x)) > 1e-12):", "if np.any(np.abs(opt.c(x)) > 0.0):"),
    ("anchor off-grid test absolute", "diffops.py",
     "> 1e-9 * max(1.0, x[-1] - x[0]):", "> 1e-9:"),
    ("default anchor nearest 0 outside", "diffops.py",
     "i0 = int(np.argmin(np.abs(x))) if x[0] <= 0.0 <= x[-1] else 0",
     "i0 = int(np.argmin(np.abs(x)))"),
    ("smooth h unscaled", "diffops.py",
     "hv = np.exp(self.psi - np.max(self.psi))", "hv = np.exp(self.psi)"),
    ("rates over the wrong mass", "diffops.py",
     "np.exp(C[1::2] - lm[:-1]) / dx, np.exp(C[1::2] - lm[1:]) / dx",
     "np.exp(C[1::2] - lm[1:]) / dx, np.exp(C[1::2] - lm[:-1]) / dx"),
    ("eigen bound without 1 +", "diffops.py",
     "bound = 1e-8 * (1.0 + float(np.max(np.abs(g))))",
     "bound = 1e-8 * float(np.max(np.abs(g)))"),
    # expressions: folding, scalar evaluation and the product-rule budget
    ("x^1 not folded", "expressions.py", "    if p == 1.0:\n        return base\n", ""),
    ("scalar reciprocal by power", "expressions.py",
     "        if p == -1.0:\n            return 1.0 / base\n", ""),
    ("scalar square root by power", "expressions.py",
     "        if p == 0.5:\n            return np.sqrt(base)\n", ""),
    ("product-rule budget uncounted", "expressions.py", "                spent += len(fs)\n", ""),
    # the command line's chain documents
    ("bool rate read as a number", "_cli_chains.py",
     "if isinstance(node, (int, float)) and not isinstance(node, bool):",
     "if isinstance(node, (int, float)):"),
    ("bd forward on N = 0", "_cli_chains.py",
     '        if N < 1:\n            raise SchemaError("h must cover at least states 0..2")',
     '        if N < 0:\n            raise SchemaError("h must cover at least states 0..2")'),
    # eigenbounds: the enclosure, the truncation level bounds reports, the finite terms
    ("lower bound 1/(3 delta)", "eigenbounds.py",
     "lower = 1.0 / (4.0 * delta.value)", "lower = 1.0 / (3.0 * delta.value)"),
    ("eps floor 1e-6", "eigenbounds.py",
     "eps = 1e-8 + trunc_slack", "eps = 1e-6 + trunc_slack"),
    ("lambda0 from N/2", "eigenbounds.py",
     "    lambda0 = lam[-1][1]", "    lambda0 = lam[-2][1]"),
    ("one finite term admitted", "eigenbounds.py", "if kk < 2:", "if kk < 1:"),
    # eigenbounds: the exact rule for constant rates, the only lambda0 = 0 verdict
    ("exact rule without the killing test", "eigenbounds.py", "c[0] == 0.0 and ", ""),
    ("exact rule births below deaths only", "eigenbounds.py", "b[0] <= a[1]", "b[0] < a[1]"),
    # eigenbounds: the tail certificate, the unread tail sum and the relative acceptance
    ("tail sum R = 0", "eigenbounds.py",
     "R = float(t[-1]) * r_hat / (1.0 - r_hat)", "R = 0.0"),
    ("acceptance with an absolute floor", "eigenbounds.py",
     "slack <= tail_tol * sup", "slack <= tail_tol * max(1.0, sup)"),
]


def run(tree: Path, file: str, old: str, new: str) -> str:
    """The outcome of tier-1 on tree with old replaced by new in src/isospec/file."""
    text = (tree / "src" / "isospec" / file).read_text()
    if text.count(old) != 1:
        return "absent" if old not in text else f"ambiguous ({text.count(old)} matches)"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(tree / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(tree / "pyproject.toml", tmp)
        Path(tmp, "src", "isospec", file).write_text(text.replace(old, new))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--ignore", "tests/test_mutants.py"]
        try:
            code = subprocess.run(argv, cwd=tmp, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    return {0: "survives", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/, tests/ and pyproject.toml are mutated")
    args = parser.parse_args()
    tally = {}
    for name, file, old, new in MUTANTS:
        t0 = time.perf_counter()
        result = run(args.tree, file, old, new)
        tally[result] = tally.get(result, 0) + 1
        print(f"{name:<36} {file:<15} {result:<16} {time.perf_counter() - t0:6.1f} s", flush=True)
    print(", ".join(f"{result}: {n}" for result, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
