"""Mutation runner: which one-line changes to the library does tier-1 notice?

Each row of MUTANTS names a file under src/isospec, an exact text in it and
the text that replaces it.  For each row the runner copies src/, tests/ and
pyproject.toml of a tree into a temporary directory, makes that one edit,
runs tier-1 there with -x and prints "killed" when a test fails or
"survives" when every test passes.  A row whose text the tree does not hold
prints "absent": the code it mutates is gone.

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

# (name, file under src/isospec, old text, new text)
MUTANTS = [
    # duality: the tilt, the residual scale and the inverse transform's preconditions
    ("tilt ratios swapped", "duality.py",
     "fwd, bwd = w[1:] / w[:-1], w[:-1] / w[1:]", "fwd, bwd = w[:-1] / w[1:], w[1:] / w[:-1]"),
    ("band flow overwrites", "duality.py",
     "flow[1:] = np.maximum(flow[1:], qp.down * hv[:-1])", "flow[1:] = qp.down * hv[:-1]"),
    ("NaN residual passes", "duality.py",
     "    rel[np.isnan(rel)] = np.inf  # terms past float range fail every tolerance\n", ""),
    ("inverse without conservative check", "duality.py",
     "    if not qt.conservative:", "    if False:"),
    ("inverse zero-potential scale", "duality.py",
     "1e-12 * np.maximum(1.0, qt.total)", "1e-12"),
    # chains: the h recurrence, the running-product measure and the checks of a q-pair
    ("h_1 sign", "chains.py",
     "h = [1.0, 1.0 - c[0] / b[0]]", "h = [1.0, 1.0 + c[0] / b[0]]"),
    ("mu ratio inverted", "chains.py",
     "np.cumprod(up / down)", "np.cumprod(down / up)"),
    ("negative rate admitted", "chains.py",
     "    if np.any(r < 0.0):", "    if np.any(r < -1.0):"),
    ("totals scale without row", "chains.py",
     "scale = np.maximum(1.0, np.maximum(np.abs(q), row))", "scale = np.maximum(1.0, np.abs(q))"),
    ("potential slack dropped", "chains.py",
     "excess = diag - _CONS_RTOL * np.maximum(1.0, np.abs(q))", "excess = diag"),
    # spectra: the Sturm count, bisection and symmetrisation
    ("Sturm count drops the last pivot", "spectra.py",
     "return count + int(q < 0.0)", "return count"),
    ("bisection without its float stop", "spectra.py",
     "        if mid == lo or mid == hi:\n            break\n", ""),
    ("reversibility unchecked", "spectra.py",
     "    if np.max(viol) > _REVERSIBLE_RTOL:", "    if False:"),
    ("symmetrize zero-scale line", "spectra.py",
     "    viol[scale == 0.0] = 0.0\n", ""),
    # harmonic: the anchored iteration and the direct solve
    ("iteration without its source", "harmonic.py",
     "new = K @ hm + s  #", "new = K @ hm  #"),
    ("negative solve admitted", "harmonic.py",
     "bad = np.flatnonzero(~np.isfinite(hm) | (hm < -tol * np.max(np.abs(hm), initial=1.0)))",
     "bad = np.flatnonzero(~np.isfinite(hm))"),
    ("solve without the slice fast path", "harmonic.py",
     "r = slice(None) if np.all(reach) else np.flatnonzero(reach)", "r = np.flatnonzero(reach)"),
    # eigenbounds: the enclosure and the truncation level bounds reports
    ("lower bound 1/(3 delta)", "eigenbounds.py",
     "lower = 1.0 / (4.0 * delta.value)", "lower = 1.0 / (3.0 * delta.value)"),
    ("eps floor 1e-6", "eigenbounds.py",
     "eps = 1e-8 + trunc_slack", "eps = 1e-6 + trunc_slack"),
    ("lambda0 from N/2", "eigenbounds.py",
     "    lambda0 = lam[-1][1]", "    lambda0 = lam[-2][1]"),
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
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        code = subprocess.run(argv, cwd=tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
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
        print(f"{name:<36} {file:<15} {result:<9} {time.perf_counter() - t0:6.1f} s", flush=True)
    print(", ".join(f"{result}: {n}" for result, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
