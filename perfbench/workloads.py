"""Seeded request sequences for the three benchmark workloads.

``build(workload, seed, workdir)`` writes every JSON input the program will
read into ``workdir`` and returns the request list.  Each request carries the
CLI arguments and a checker that compares the response with references the
benchmark computes itself, in numpy, from the same generated numbers.  The
mix of request kinds and sizes is fixed per workload; the seed draws the
rates, coefficients and the order of the requests, so runs on different
seeds do the same amount of work on different inputs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Which request kinds and sizes make up one pass of each workload.  Sizes
# of one kind span a factor of two to four, so the traced run can fit how
# the time of the kernel behind it scales with N.
MIX = {
    "bd_chain": [
        ("harmonic_explicit", 250), ("harmonic_explicit", 500),
        ("harmonic_explicit", 1000),
        ("harmonic_solve", 300),
        ("transform_local", 300), ("transform_local", 600),
        ("verify", 150), ("verify", 300), ("verify", 600),
        ("bounds", 1000), ("bounds", 4000),
        ("bad_missing_death", 50), ("bad_zero_n", 50),
    ],
    "dense_chain": [
        ("harmonic_iterate", 10), ("harmonic_iterate", 30),
        ("harmonic_iterate", 60), ("harmonic_iterate", 120),
        ("harmonic_solve", 20), ("harmonic_solve", 120),
        ("transform_forward", 20), ("transform_forward", 80),
        ("transform_inverse", 20), ("transform_inverse", 80),
        ("transform_local", 30), ("transform_local", 120),
        ("transform_measure", 30), ("transform_measure", 120),
        ("verify", 30), ("verify", 60), ("verify", 120),
        ("bad_nonsquare_rates", 3), ("bad_negative_rate", 3),
    ],
    "diffop": [
        ("spectrum", 500), ("spectrum", 1000), ("spectrum", 2000),
        ("eigen_one", 800), ("eigen_gaussian", 1600), ("eigen_pendulum", 1600),
        ("transform", 500), ("transform", 1000), ("transform", 2000),
        ("riccati", 1000), ("riccati", 2000),
    ],
}


@dataclass
class Request:
    """One CLI invocation: ``python -m isospec.cli *argv``."""

    rid: int
    kind: str
    size: int
    argv: list
    check: Callable  # (exit code, stdout bytes, stderr text) -> failure reason or None


# ---------------------------------------------------------------- references


def bd_forward_h(b, a, c, N):
    """h on 0..N with h_0 = 1, harmonic at 0..N-1 (forward substitution)."""
    h = np.empty(N + 1)
    h[0] = 1.0
    h[1] = 1.0 - c[0] / b[0]
    for n in range(1, N):
        h[n + 1] = h[n] + (a[n] * (h[n] - h[n - 1]) - c[n] * h[n]) / b[n]
    return h


def bd_residual(b, a, c, h, N):
    """Scaled |A h| at states 0..N-1 of the birth-death equation."""
    n = np.arange(N)
    r = b[n] * (h[n + 1] - h[n]) + c[n] * h[n]
    r[1:] += a[n[1:]] * (h[n[1:] - 1] - h[n[1:]])
    scale = np.maximum(1.0, np.abs(b[n] * h[n + 1]))
    return np.abs(r) / scale


def bd_minimal_h(b, a, c, N):
    """Minimal solution anchored at 0 on the reflecting truncation 0..N.

    Backward substitution from the boundary equation at N, which makes the
    decaying solution the dominant one, then normalised to h_0 = 1.
    """
    u = np.empty(N + 1)
    u[N] = 1.0
    u[N - 1] = (a[N] - c[N]) / a[N]
    for x in range(N - 1, 0, -1):
        u[x - 1] = ((a[x] + b[x] - c[x]) * u[x] - b[x] * u[x + 1]) / a[x]
    return u / u[0]


def bd_dense(b, a, c, N):
    """Off-diagonal rates, totals and killing of the reflecting truncation."""
    rates = np.zeros((N + 1, N + 1))
    idx = np.arange(N)
    rates[idx, idx + 1] = b[:N]
    rates[idx + 1, idx] = a[1 : N + 1]
    total = rates.sum(axis=1)
    return rates, total, np.array(c[: N + 1], dtype=float)


def tilt(rates, h):
    """Off-diagonal rates of the chain conjugated by h: q_ij h_j / h_i."""
    return rates * (h[None, :] / h[:, None])


def anchored_minimal(rates, total, killing, theta):
    """Minimal harmonic solution anchored at theta, by one dense solve."""
    n = rates.shape[0]
    mask = np.arange(n) != theta
    denom = total[mask] - killing[mask]
    K = rates[np.ix_(mask, mask)] / denom[:, None]
    s = rates[mask, theta] / denom
    h = np.empty(n)
    h[mask] = np.linalg.solve(np.eye(n - 1) - K, s)
    h[theta] = 1.0
    return h


def dense_apply(rates, total, killing, h):
    return rates @ h + (killing - total) * h


def reversible_spectrum(rates, total, killing):
    """Eigenvalues of a reversible generator, ascending, by LAPACK.

    mu_i q_ij = mu_j q_ji makes D A D^-1 (D = diag(sqrt(mu))) the symmetric
    matrix with off-diagonals sqrt(q_ij q_ji), so mu is not needed.
    """
    S = np.sqrt(rates * rates.T)
    S[np.diag_indices_from(S)] = killing - total
    return np.linalg.eigvalsh(S)


def _spectrum_test(rates, total, killing):
    """Checker of a verify report: PASS, and the spectrum of the first chain."""

    def test(doc):
        if doc["passed"] is not True:
            return "verify report is not PASS"
        ref = reversible_spectrum(rates, total, killing)
        if not _close(doc["eigenvalues"], ref, 0.0, 1e-8 * max(1.0, np.max(np.abs(ref)))):
            return "eigenvalues differ from the LAPACK reference"
        return None

    return test


# ---------------------------------------------------------------- chains


def bd_rates(rng, N, birth, death):
    """Seeded bounded rates on 0..N+1 (one spare state for the h files)."""
    return rng.uniform(*birth, N + 2), rng.uniform(*death, N + 2)


def reversible_killed(rng, n, kill=(0.1, 1.0)):
    """Conductance-model chain, mu_i q_ij = w_ij with w symmetric.

    A spanning path keeps every state connected, as in the test fixtures.
    """
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = rng.uniform(0.5, 2.0)
    extra = np.triu(rng.random((n, n)) < 0.3, 2)
    w[extra] = rng.uniform(0.1, 1.0, int(extra.sum()))
    w = w + w.T
    mu = rng.uniform(0.5, 2.0, n)
    rates = w / mu[:, None]
    return rates, rates.sum(axis=1), -rng.uniform(*kill, n), mu


def conservative(rng, n):
    rates = np.zeros((n, n))
    for i in range(n - 1):
        rates[i, i + 1] = rng.uniform(0.5, 2.0)
        rates[i + 1, i] = rng.uniform(0.5, 2.0)
    extra = (rng.random((n, n)) < 0.2) & ~np.eye(n, dtype=bool)
    rates[extra] += rng.uniform(0.1, 1.0, int(extra.sum()))
    np.fill_diagonal(rates, 0.0)
    return rates


# ---------------------------------------------------------------- checks


def _close(got, ref, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= atol + rtol * np.abs(ref))
    )


def _json_check(test):
    """Checker for a request that must exit 0 with a JSON report on stdout."""

    def check(code, out, err):
        if "Traceback" in err:
            return "traceback on stderr"
        if code != 0:
            return f"exit {code}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if not isinstance(doc, dict):
            return "stdout is not a JSON object"
        try:
            return test(doc)
        except (KeyError, TypeError, ValueError) as exc:
            return f"report lacks the expected fields ({exc})"

    return check


def malformed_check(code, out, err):
    """What the CLI promises for bad input: exit 2, one diagnosis, no traceback.

    The diagnosis is the single stderr line starting with ``isospec: ``; a
    following hint that points at ``--help`` is allowed.
    """
    if "Traceback" in err:
        return "traceback on stderr"
    if code != 2:
        return f"exit {code}, want 2"
    diag = [ln for ln in err.splitlines() if ln.startswith("isospec: ")]
    if len(diag) != 1:
        return f"{len(diag)} diagnosis lines on stderr, want 1"
    return None


def _dense_qpair_test(rates, total, killing, rtol=1e-10):
    def test(doc):
        if doc.get("type") != "qpair":
            return "output is not a qpair chain"
        scale = max(1.0, float(np.max(np.abs(rates))))
        for key, ref in (("rates", rates), ("total", total), ("killing", killing)):
            if not _close(doc[key], ref, rtol, rtol * scale):
                return f"{key} differ from the reference transform"
        return None

    return test


# ---------------------------------------------------------------- requests


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def __call__(self, doc) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _bd_doc(b, a, c, N):
    return {"type": "bd", "birth": b.tolist(), "death": a.tolist(),
            "killing": c.tolist(), "N": N}


def _moderate_bd(rng, N):
    """Births outpace deaths and killing is summable, so h stays moderate."""
    b, a = bd_rates(rng, N, (1.0, 2.0), (0.5, 1.5))
    c = -rng.uniform(0.2, 1.0) * rng.uniform(0.5, 0.9) ** np.arange(N + 2)
    return b, a, c


def _bd_request(kind, N, rng, write):
    if kind == "harmonic_explicit":
        b, a, c = _moderate_bd(rng, N)
        ref = bd_forward_h(b, a, c, N)

        def test(doc):
            h = np.asarray(doc["h"], dtype=float)
            if not _close(h, ref, 1e-9):
                return "h differs from the forward recurrence"
            if np.max(bd_residual(b, a, c, h, N)) > 1e-9:
                return "h is not harmonic on 0..N-1"
            return None

        return ["harmonic", write(_bd_doc(b, a, c, N)), "--method", "explicit"], test

    if kind == "harmonic_solve":
        # deaths outpace births and killing is bounded away from zero, so
        # the anchored system is well conditioned
        b, a = bd_rates(rng, N, (0.5, 1.5), (1.0, 2.0))
        c = np.full(N + 2, -rng.uniform(0.02, 0.1))
        ref = bd_minimal_h(b, a, c, N)

        def test(doc):
            if not _close(doc["h"], ref, 0.0, 1e-9):
                return "h differs from the backward recurrence"
            res = np.asarray(doc["residuals"], dtype=float)[1:]
            if np.max(np.abs(res)) > 1e-9:
                return "residual above 1e-9 off the anchor"
            return None

        return ["harmonic", write(_bd_doc(b, a, c, N)), "--method", "solve"], test

    if kind == "transform_local":
        b, a, c = _moderate_bd(rng, N)
        h = bd_forward_h(b, a, c, N)
        rates, total, killing = bd_dense(b, a, c, N)
        rt = tilt(rates, h)
        tot = rt.sum(axis=1)
        kt = np.zeros(N + 1)
        kt[N] = killing[N] - total[N] + tot[N]
        argv = ["transform", write(_bd_doc(b, a, c, N)), "--h",
                write({"values": h.tolist()}), "--direction", "local"]
        return argv, _dense_qpair_test(rt, tot, kt)

    if kind == "verify":
        b, a, c = _moderate_bd(rng, N)
        h = bd_forward_h(b, a, c, N)
        # the h-transformed chain is again birth-death, killed only at N
        bt = b.copy()
        bt[:N] = b[:N] * h[1:] / h[:N]
        at = a.copy()
        at[1 : N + 1] = a[1 : N + 1] * h[:N] / h[1:]
        kt = np.zeros(N + 2)
        kt[N] = c[N] - a[N] + at[N]
        argv = ["verify", write(_bd_doc(b, a, c, N)), write(_bd_doc(bt, at, kt, N)),
                "--h", write({"values": h.tolist()})]
        return argv, _spectrum_test(*bd_dense(b, a, c, N))

    if kind == "bounds":
        # deaths outpace births under uniform killing: a finite Hardy constant
        b, a = bd_rates(rng, N, (0.5, 1.0), (1.0, 1.5))
        c = np.full(N + 2, -rng.uniform(0.5, 1.0))
        doc = {"type": "bd", "birth": b.tolist(), "death": a.tolist(),
               "killing": float(c[0]), "N": N}

        def test(rep):
            lam = rep["lambda0_numeric"]
            if not rep["lower"] <= lam <= rep["upper"]:
                return f"lambda0 {lam} outside [{rep['lower']}, {rep['upper']}]"
            return None

        return ["bounds", write(doc), "--nmax", str(N)], test

    b, a, c = _moderate_bd(rng, N)
    doc = _bd_doc(b, a, c, N)
    if kind == "bad_missing_death":
        del doc["death"]
    elif kind == "bad_zero_n":
        doc["N"] = 0
    else:
        raise ValueError(f"unknown bd_chain request kind {kind!r}")
    return ["harmonic", write(doc), "--method", "explicit"], None


def _qpair_doc(rates, killing, mu=None):
    doc = {"type": "qpair", "rates": rates.tolist(), "killing": killing.tolist()}
    if mu is not None:
        doc["mu"] = mu.tolist()
    return doc


def _dense_request(kind, n, rng, write):
    if kind in ("harmonic_iterate", "harmonic_solve"):
        rates, total, killing, _ = reversible_killed(rng, n)
        ref = anchored_minimal(rates, total, killing, 0)

        def test(doc):
            h = np.asarray(doc["h"], dtype=float)
            if not _close(h, ref, 1e-8):
                return "h differs from the dense reference solve"
            res = dense_apply(rates, total, killing, h)[1:]
            if np.max(np.abs(res)) > 1e-9:
                return "h is not harmonic off the anchor"
            return None

        method = kind.split("_")[1]
        return ["harmonic", write(_qpair_doc(rates, killing)), "--method", method], test

    if kind == "transform_forward":
        rates = conservative(rng, n)
        total = rates.sum(axis=1)
        h = np.exp(rng.uniform(-1.0, 1.0, n))
        killing = total - (rates @ h) / h
        rt = tilt(rates, h)
        argv = ["transform", write(_qpair_doc(rates, killing)), "--h",
                write(h.tolist()), "--direction", "forward"]
        return argv, _dense_qpair_test(rt, rt.sum(axis=1), np.zeros(n))

    if kind == "transform_inverse":
        rates = conservative(rng, n)
        h = np.exp(rng.uniform(-1.0, 1.0, n))
        rt = rates * (h[:, None] / h[None, :])
        tot = rt.sum(axis=1)
        argv = ["transform", write(_qpair_doc(rates, np.zeros(n))), "--h",
                write(h.tolist()), "--direction", "inverse"]
        return argv, _dense_qpair_test(rt, tot, tot - rates.sum(axis=1))

    if kind in ("transform_local", "verify"):
        rates, total, killing, mu = reversible_killed(rng, n)
        # anchored at the last state, so the default harmonic set fits
        h = anchored_minimal(rates, total, killing, n - 1)
        rt = tilt(rates, h)
        tot = rt.sum(axis=1)
        kt = np.zeros(n)
        kt[-1] = killing[-1] - total[-1] + tot[-1]
        h_path = write({"values": h.tolist()})
        if kind == "transform_local":
            argv = ["transform", write(_qpair_doc(rates, killing, mu)), "--h", h_path,
                    "--direction", "local"]
            test = _dense_qpair_test(rt, tot, kt)

            def check_with_mu(doc, _t=test):
                if not _close(doc["mu"], mu * h * h, 1e-12):
                    return "mu is not h^2 mu"
                return _t(doc)

            return argv, check_with_mu
        argv = ["verify", write(_qpair_doc(rates, killing, mu)),
                write(_qpair_doc(rt, kt)), "--h", h_path]
        return argv, _spectrum_test(rates, total, killing)

    if kind == "transform_measure":
        rates, total, killing, mu = reversible_killed(rng, n)
        argv = ["transform", write(_qpair_doc(rates, killing, mu)),
                "--direction", "measure"]
        # mu symmetrises the chain, so its measure dual is the chain itself
        return argv, _dense_qpair_test(rates, total, killing, rtol=1e-12)

    if kind == "bad_nonsquare_rates":
        doc = {"type": "qpair", "rates": [[0, 1, 2], [1, 0, 1]]}
    elif kind == "bad_negative_rate":
        doc = {"type": "qpair", "rates": [[0, 1, 2], [1, 0, -1], [2, 1, 0]]}
    else:
        raise ValueError(f"unknown dense_chain request kind {kind!r}")
    return ["harmonic", write(doc), "--method", "solve"], None


def _diffop_request(kind, M, rng, write):
    if kind == "spectrum":
        # OU generator a f'' - theta x f' on +-6 standard deviations; its
        # spectrum is 0, -theta, -2 theta, ...
        theta = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.25, 1.0)
        half = 6.0 * np.sqrt(a / theta)
        op = {"a": a, "b": f"-{theta!r}*x", "interval": [-half, half], "M": M}
        ref = -theta * np.arange(5.0)
        # the error comes from the truncated interval, not from the grid
        tol = 1e-3 * theta

        def test(doc):
            if not _close(doc["eigenvalues"], ref, 0.0, tol):
                return f"eigenvalues off 0, -theta, ... by more than {tol:.1e}"
            return None

        return ["diffop", write(op), "--check", "spectrum", "--k", "5"], test

    if kind.startswith("eigen_"):
        half = rng.uniform(6.0, 8.0)
        op = {"a": 0.5, "b": "-x", "interval": [-half, half], "M": M}
        h = {"eigen_one": "1", "eigen_gaussian": "exp(-x^2/2)",
             "eigen_pendulum": "exp(1 - cos(x) - x^2/2)"}[kind]

        def test(doc):
            if doc["all_passed"] is not True:
                return "eigenfunction report is not PASS"
            if len(doc["checks"]) != 11:
                return "wrong number of eigenfunction checks"
            return None

        return ["diffop", write(op), "--h", write({"h": h}), "--check", "eigen"], test

    if kind in ("transform", "riccati"):
        # killed oscillator (1/2) f'' + (theta - theta^2 x^2)/2 f, harmonic
        # h = exp(-theta x^2/2); both routes give the drift -theta x
        theta = rng.uniform(0.5, 2.0)
        t = repr(theta)
        half = 3.0 / np.sqrt(theta)
        op = {"a": 0.5, "b": 0, "c": f"({t} - {t}^2*x^2)/2",
              "interval": [-half, half], "M": M}
        if kind == "transform":
            argv = ["diffop", write(op), "--h", write({"h": f"exp(-{t}*x^2/2)"}),
                    "--check", "transform"]
        else:
            argv = ["diffop", write(op), "--check", "riccati", "--phi0", "0"]

        def test(doc):
            x = np.asarray(doc["x"], dtype=float)
            if x.shape != (M + 1,):
                return "wrong grid"
            if not _close(doc["b_tilde"], -theta * x, 0.0, 1e-8):
                return "drift differs from -theta x by more than 1e-8"
            return None

        return argv, test

    raise ValueError(f"unknown diffop request kind {kind!r}")


_GENERATORS = {"bd_chain": _bd_request, "dense_chain": _dense_request,
             "diffop": _diffop_request}


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of one pass into workdir and return its requests."""
    if workload not in MIX:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, sorted(MIX).index(workload)])
    os.makedirs(workdir, exist_ok=True)
    write = _Writer(workdir)
    order = rng.permutation(len(MIX[workload]))
    requests = []
    for rid, i in enumerate(order):
        kind, size = MIX[workload][i]
        argv, test = _GENERATORS[workload](kind, size, rng, write)
        check = malformed_check if test is None else _json_check(test)
        requests.append(Request(rid=rid, kind=kind, size=size, argv=argv, check=check))
    return requests
