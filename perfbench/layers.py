"""Per-layer metrics from the spans of traced requests.

A layer is one isospec module.  A span's self time is its duration minus
the durations of its direct children; summed per module it gives
``<module>.self_s``.  Function-level ``*_s`` metrics are inclusive times of
calls to that function.  A traced request's time splits without remainder
into ``startup.interp_s`` (process start to the tracer's first line), the
import span, the module self times, ``trace.self_s`` (the tracer's own work
inside the request) and ``shutdown.exit_s`` (end of the request to process
exit).  Every sum is divided by the number of traced passes, so the
figures are per pass of the workload's request sequence.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

MODULES = ("cli", "chains", "harmonic", "duality", "spectra", "eigenbounds",
           "expressions", "diffops")

# inclusive-time metrics: metric name -> span names whose durations it sums
TIMED = {
    "chains.rate_arrays_s": ("chains.BirthDeathSpec.rate_arrays",),
    "chains.bd_to_qpair_s": ("chains.bd_to_qpair",),
    "chains.validate_qpair_s": ("chains.validate_qpair",),
    "harmonic.bd_harmonic_explicit_s": ("harmonic.bd_harmonic_explicit",),
    "harmonic.minimal_harmonic_s": ("harmonic.minimal_harmonic",),
    "harmonic.residual_s": ("harmonic.harmonic_residual",),
    "spectra.symmetrize_s": ("spectra.symmetrize",),
    "spectra.sturm_s": ("spectra.smallest_eig_tridiag", "spectra.lowest_eigs_tridiag"),
    "eigenbounds.delta_tilde_s": ("eigenbounds.delta_tilde",),
    "eigenbounds.lambda0_s": ("eigenbounds.lambda0_variational",),
    "expressions.compile_s": ("expressions.compile_expression",
                              "expressions.CompiledExpr.diff"),
    "diffops.discretize_s": ("diffops.discretize",),
    "diffops.riccati_s": ("diffops.riccati_dual",),
    "diffops.eigen_check_s": ("diffops.verify_lh_eigen",),
}

# (metric, unit) in report order; BENCHMARK.json lists the same names.
# The end-to-end metric each group should move, and where it should not:
#   startup.*             latency_p50_s, peak_rss_mb on the chain workloads; flat on diffop
#   cli.json_*_bytes      latency_tail_s on bd_chain (dense transform output)
#   chains.*              latency_tail_s, peak_rss_mb on bd_chain; flat on diffop
#   harmonic explicit     latency_tail_s, wall_s on bd_chain; flat elsewhere
#   harmonic iterative    wall_s on dense_chain; flat on diffop
#   spectra QL            latency_tail_s on bd_chain; flat on diffop
#   spectra.eig_dense_s   latency_tail_s on dense_chain; flat elsewhere
#   spectra Sturm         wall_s on diffop and on bd_chain (bounds); flat on dense_chain
#   eigenbounds.*         wall_s on bd_chain; flat elsewhere
#   expressions.*         latency_p50_s on diffop; flat on the chain workloads
#   diffops.*             wall_s on diffop; flat on the chain workloads
#   trace.*               the cost of tracing only
METRICS = (
    [(f"{m}.{k}", u) for m in MODULES
     for k, u in (("self_s", "s"), ("calls", "count"), ("errors", "count"))]
    + [("startup.interp_s", "s"), ("startup.import_s", "s"),
       ("startup.numpy_import_s", "s"), ("startup.sympy_import_s", "s"),
       ("cli.json_in_bytes", "bytes"), ("cli.json_out_bytes", "bytes"),
       ("chains.rate_arrays_s", "s"), ("chains.bd_to_qpair_s", "s"),
       ("chains.validate_qpair_s", "s"), ("chains.dense_bytes", "bytes"),
       ("harmonic.bd_harmonic_explicit_s", "s"), ("harmonic.explicit_exponent", "ratio"),
       ("harmonic.minimal_harmonic_s", "s"), ("harmonic.iterations", "count"),
       ("harmonic.residual_s", "s"),
       ("spectra.symmetrize_s", "s"), ("spectra.eig_tridiag_s", "s"),
       ("spectra.eig_tridiag_exponent", "ratio"), ("spectra.eig_dense_s", "s"),
       ("spectra.sturm_s", "s"), ("spectra.sturm_calls", "count"),
       ("spectra.sturm_calls_per_eig", "ratio"),
       ("eigenbounds.delta_tilde_s", "s"), ("eigenbounds.lambda0_s", "s"),
       ("eigenbounds.delta_terms", "count"),
       ("expressions.compile_s", "s"),
       ("diffops.discretize_s", "s"), ("diffops.riccati_s", "s"),
       ("diffops.eigen_check_s", "s"),
       ("shutdown.exit_s", "s"), ("trace.self_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")]
)


def parse_importtime(stderr: str):
    """Split ``-X importtime`` lines off stderr.

    Returns the remaining stderr and the cumulative import time in seconds
    of each module, first occurrence.
    """
    rest, cumulative = [], {}
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return "".join(rest), cumulative


def self_times(spans):
    """Self time in seconds of each span, indexed like spans."""
    child = [0] * len(spans)
    for s in spans[1:]:
        child[s[1]] += s[4] - s[3]
    return [((s[4] - s[3]) - child[i]) * 1e-9 for i, s in enumerate(spans)]


def fit_exponent(sizes_times):
    """Least-squares slope of log(mean time) against log(size)."""
    by_size = defaultdict(list)
    for n, t in sizes_times:
        by_size[n].append(t)
    if len(by_size) < 2:
        return 0.0
    n = np.array(sorted(by_size), dtype=float)
    t = np.array([np.mean(by_size[k]) for k in sorted(by_size)])
    return float(np.polyfit(np.log(n), np.log(t), 1)[0])


class TraceSummary:
    """Accumulates traced requests and turns them into per-layer metrics."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.explicit = []  # (N, seconds) of explicit harmonics in explicit requests
        self.ql = []  # (n, seconds) of QL eigensolves in verify requests
        self.eigs = 0
        self.untraced_s = 0.0

    def add(self, kind, spans, imports, wall_s, untraced_s, spawn_ns, exit_ns,
            in_bytes, out_bytes):
        """One traced request: spans as written by tracer.py, times in seconds."""
        S = self.sums
        own = self_times(spans)
        for span, self_s in zip(spans, own):
            name, extra = span[2], span[6] or {}
            dur = (span[4] - span[3]) * 1e-9
            module = name.split(".")[0]
            if module in MODULES:
                S[f"{module}.self_s"] += self_s
                S[f"{module}.calls"] += 1
                S[f"{module}.errors"] += span[5]
            for metric, names in TIMED.items():
                if name in names:
                    S[metric] += dur
            if name == "chains.validate_qpair":
                S["chains.dense_bytes"] += 8 * extra.get("n", 0) ** 2
            elif name == "harmonic.minimal_harmonic":
                S["harmonic.iterations"] += extra.get("iterations", 0)
            elif name == "harmonic.bd_harmonic_explicit":
                if kind == "harmonic_explicit" and "n" in extra:
                    self.explicit.append((extra["n"], dur))
            elif name == "spectra.eig_tridiag" or (
                    name == "spectra.eig_sym" and extra.get("path") == "tridiagonal_ql"):
                S["spectra.eig_tridiag_s"] += dur
                if kind == "verify" and "n" in extra:
                    self.ql.append((extra["n"], dur))
            elif name == "spectra.eig_sym" and "path" in extra:
                S["spectra.eig_dense_s"] += dur
            elif name == "spectra.sturm_count":
                S["spectra.sturm_calls"] += 1
            elif name in ("spectra.smallest_eig_tridiag", "spectra.lowest_eigs_tridiag"):
                self.eigs += extra.get("eigs", 0)
            elif name == "eigenbounds.delta_tilde":
                S["eigenbounds.delta_terms"] += extra.get("terms", 0)
        request = spans[0]
        S["startup.interp_s"] += (request[3] - spawn_ns) * 1e-9
        S["startup.import_s"] += imports.get("isospec.cli", 0.0)
        S["startup.numpy_import_s"] += imports.get("numpy", 0.0)
        S["startup.sympy_import_s"] += imports.get("sympy", 0.0)
        S["cli.json_in_bytes"] += in_bytes
        S["cli.json_out_bytes"] += out_bytes
        S["shutdown.exit_s"] += (exit_ns - request[4]) * 1e-9
        S["trace.self_s"] += own[0]
        S["trace.wall_s"] += wall_s
        self.untraced_s += untraced_s

    def metrics(self, passes: int) -> dict:
        S = self.sums
        out = {name: S.get(name, 0.0) / passes for name, _ in METRICS}
        out["harmonic.explicit_exponent"] = fit_exponent(self.explicit)
        out["spectra.eig_tridiag_exponent"] = fit_exponent(self.ql)
        calls = S.get("spectra.sturm_calls", 0.0)
        out["spectra.sturm_calls_per_eig"] = calls / self.eigs if self.eigs else 0.0
        wall = S.get("trace.wall_s", 0.0)
        out["trace.overhead_frac"] = wall / self.untraced_s - 1.0 if self.untraced_s else 0.0
        return out
