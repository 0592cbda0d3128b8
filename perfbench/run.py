"""Benchmark of the isospec command-line pipeline.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bd_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every request is one ``python -m isospec.cli ...`` child process importing
the package from the checkout's ``src``.  One client sends the requests in a
closed loop: the next one starts when the previous one has exited, and only
one child runs at a time.  Inputs are generated from the seed during set-up
(``workloads.py``); every response is checked against the benchmark's own
references, and a failed check, a timeout or a traceback counts as failed.

A run makes a fixed number of passes over the workload's request sequence,
``round(seconds / PASS_SECONDS[workload])``, at least one, so that the
amount of work per run depends only on ``--seconds`` and not on the speed
of the code under test.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` each request runs untraced and then through
``tracer.py``; the two stdouts must be byte-identical, and the last line
carries the per-layer metrics of ``layers.py`` from the traced runs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Seconds one untraced pass takes on the seed code (2-core x86-64 VM,
# Python 3.11) when the machine is in its slower phases; a traced pass takes
# TRACE_COST times as long.
PASS_SECONDS = {"bd_chain": 13.0, "dense_chain": 15.5, "diffop": 11.0}
TRACE_COST = 2.2
SETUPS = 5  # set-ups per run; setup_s is their median
REQUEST_TIMEOUT_S = 30.0
# No request starts later than this after the run began, so that a run
# ends within 180 s even when the last request (traced: two) times out.
RUN_DEADLINE_S = 110.0
WORK_ROOT = ".perfbench_work"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Result:
    code: int
    latency_s: float
    rss_mb: float
    out: bytes
    err: str
    spawn_ns: int
    exit_ns: int


def run_child(cmd, env, workdir) -> Result:
    """Run one request; latency is from process start to exit."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        lock = threading.Lock()
        exited = []

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        latency = time.perf_counter() - t0
        exit_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        with lock:
            exited.append(True)
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    if latency >= REQUEST_TIMEOUT_S:
        stderr += f"\nrequest killed after {REQUEST_TIMEOUT_S:g} s\n"
    return Result(proc.returncode, latency, usage.ru_maxrss / 1024.0, stdout, stderr,
                  spawn_ns, exit_ns)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def percentile(values, q):
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = os.path.abspath(os.path.join(
            WORK_ROOT, f"{workload}-{seed}-{os.getpid()}"))
        src = os.path.abspath("src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.cli = [sys.executable, "-m", "isospec.cli"]
        self.traced = [sys.executable, "-X", "importtime",
                       os.path.join(HERE, "tracer.py")]

    def setup(self):
        """Generate the inputs and warm the interpreter and file caches."""
        requests = workloads.build(self.workload, self.seed, self.workdir)
        warm = min(requests, key=lambda r: r.size)
        run_child(self.cli + warm.argv, self.env, self.workdir)
        return requests

    def run(self):
        start = time.perf_counter()
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            requests = self.setup()
            setup_times.append(time.perf_counter() - t0)
        cost = PASS_SECONDS[self.workload] * (TRACE_COST if self.trace else 1.0)
        passes = max(1, math.floor(self.seconds / cost + 0.5))

        latencies, pass_walls, rss, failures = [], [], [], Counter()
        summary = layers.TraceSummary()
        for pass_no in range(passes):
            wall = 0.0
            for req in requests:
                if time.perf_counter() - start > RUN_DEADLINE_S:
                    failures[f"{req.kind}/{req.size}: not started before the deadline"] += 1
                    continue
                # in trace mode, alternate which of the pair runs first, so
                # that warm caches favour neither side of trace.overhead_frac
                traced_first = self.trace and (pass_no + req.rid) % 2 == 1
                if traced_first:
                    traced = self.run_traced(req, f"{pass_no}.{req.rid}")
                res = run_child(self.cli + req.argv, self.env, self.workdir)
                if self.trace and not traced_first:
                    traced = self.run_traced(req, f"{pass_no}.{req.rid}")
                why = req.check(res.code, res.out, res.err)
                if self.trace:
                    why = self.add_trace(req, res, *traced, summary) or why
                if why:
                    failures[f"{req.kind}/{req.size}: {why}"] += 1
                latencies.append(res.latency_s)
                rss.append(res.rss_mb)
                wall += res.latency_s
            pass_walls.append(wall)

        report = {
            "workload": self.workload, "seed": self.seed, "passes": passes,
            "requests": len(requests), "attempted": passes * len(requests),
            "failed": sum(failures.values()), "failures": dict(failures),
        }
        if self.trace:
            metrics = summary.metrics(passes)
            units = dict(layers.METRICS)
        else:
            q = tail_percentile(len(latencies))
            report["tail"] = f"p{q} of {len(latencies)} requests"
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(pass_walls),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": percentile(latencies, q),
                "peak_rss_mb": max(rss),
            }
            units = dict(END_TO_END)
        report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        return report

    def run_traced(self, req, request_id):
        """Run req through tracer.py; returns its result and spans (or None)."""
        spans_path = os.path.join(self.workdir, "spans.json")
        res = run_child(self.traced + [spans_path, request_id] + req.argv,
                        self.env, self.workdir)
        try:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
        except (OSError, ValueError):
            spans = None
        finally:
            if os.path.exists(spans_path):
                os.remove(spans_path)
        return res, spans

    def add_trace(self, req, plain, traced, spans, summary):
        """Add a traced request to summary; returns a failure or None."""
        if traced.out != plain.out or traced.code != plain.code:
            return "traced stdout or exit status differs from the untraced run"
        if spans is None:
            return "tracer wrote no spans"
        _, imports = layers.parse_importtime(traced.err)
        in_bytes = sum(os.path.getsize(a) for a in req.argv if os.path.isfile(a))
        summary.add(req.kind, spans, imports, traced.latency_s, plain.latency_s,
                    traced.spawn_ns, traced.exit_ns, in_bytes, len(traced.out))
        return None


def print_report(report):
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['passes']} passes of {report['requests']} requests, "
          f"{report['attempted']} attempted, {report['failed']} failed "
          f"(failed_frac {report['failed'] / max(1, report['attempted']):.4f})")
    for what, count in sorted(report["failures"].items()):
        print(f"  FAILED x{count}: {what}")
    for name, m in report["metrics"].items():
        note = f"  ({report['tail']})" if name == "latency_tail_s" else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.MIX)}, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.MIX) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.MIX]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}")
    if not os.path.isfile(os.path.join("src", "isospec", "cli.py")):
        print("perfbench: run from the root of a checkout with src/isospec",
              file=sys.stderr)
        return 1

    benches = [Bench(name, args.seed, args.seconds, args.trace) for name in names]
    reports = []
    try:
        for bench in benches:
            reports.append(bench.run())
            print_report(reports[-1])
    finally:
        for bench in benches:
            shutil.rmtree(bench.workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in r["metrics"].items()}
    # correct: every request ran and passed its check against the references
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
