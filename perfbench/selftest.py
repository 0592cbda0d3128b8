"""Tests of the benchmark itself.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

They start a handful of small CLI requests and take about fifteen seconds.
"""
import json
import os
import shutil
import tempfile
import unittest

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class BenchCase(unittest.TestCase):
    def setUp(self):
        self.cwd = os.getcwd()
        os.chdir(ROOT)
        self.tmp = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_test")
        self.bench = run.Bench("bd_chain", 0, 1, 1)
        self.bench.workdir = self.tmp

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.chdir(self.cwd)

    def build(self, workload, seed, sub="a"):
        return workloads.build(workload, seed, os.path.join(self.tmp, sub))

    def request(self, workload, kind, size=None, seed=0):
        for req in self.build(workload, seed):
            if req.kind == kind and size in (None, req.size):
                return req
        raise LookupError(kind)

    def plain(self, req):
        return run.run_child(self.bench.cli + req.argv, self.bench.env, self.tmp)

    def traced(self, req):
        return self.bench.run_traced(req, "r1")


class GeneratorTest(BenchCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.MIX:
            a = self.build(workload, 5, "a")
            b = self.build(workload, 5, "b")
            self.assertEqual([r.kind for r in a], [r.kind for r in b])
            self.assertEqual(_files(os.path.join(self.tmp, "a")),
                             _files(os.path.join(self.tmp, "b")))
            self.build(workload, 6, "c")
            self.assertNotEqual(_files(os.path.join(self.tmp, "a")),
                                _files(os.path.join(self.tmp, "c")))
            for sub in "abc":
                shutil.rmtree(os.path.join(self.tmp, sub))

    def test_every_seed_runs_the_same_mix(self):
        for workload, mix in workloads.MIX.items():
            got = sorted((r.kind, r.size) for r in self.build(workload, 9))
            self.assertEqual(got, sorted(mix))


class CheckerTest(BenchCase):
    def test_rejects_a_perturbed_eigenvalue(self):
        req = self.request("diffop", "spectrum", 500)
        res = self.plain(req)
        self.assertIsNone(req.check(res.code, res.out, res.err))
        doc = json.loads(res.out)
        doc["eigenvalues"][3] += 2e-3 * abs(doc["eigenvalues"][1])
        self.assertIsNotNone(req.check(res.code, json.dumps(doc).encode(), res.err))

    def test_rejects_a_failed_or_wrong_verify_report(self):
        for workload, size in (("dense_chain", 30), ("bd_chain", 150)):
            req = self.request(workload, "verify", size)
            res = self.plain(req)
            self.assertIsNone(req.check(res.code, res.out, res.err))
            doc = json.loads(res.out)
            doc["passed"] = False
            self.assertIsNotNone(req.check(res.code, json.dumps(doc).encode(), res.err))
            # both spectra off by the same amount still pass the CLI's own test
            doc = json.loads(res.out)
            for key in ("eigenvalues", "eigenvalues_other"):
                doc[key][2] *= 1.0 + 1e-6
            self.assertIsNotNone(req.check(res.code, json.dumps(doc).encode(), res.err))

    def test_rejects_a_traceback(self):
        req = self.request("bd_chain", "harmonic_explicit", 250)
        res = self.plain(req)
        self.assertIsNone(req.check(res.code, res.out, res.err))
        tb = "Traceback (most recent call last):\n  ...\nValueError: x\n"
        self.assertIsNotNone(req.check(res.code, res.out, res.err + tb))
        self.assertIsNotNone(workloads.malformed_check(1, b"", tb))
        self.assertIsNotNone(workloads.malformed_check(2, b"", "isospec: x\n" + tb))
        self.assertIsNone(workloads.malformed_check(2, b"", "isospec: bad N\n"))

    def test_malformed_documents_get_one_diagnosis(self):
        req = self.request("dense_chain", "bad_negative_rate")
        res = self.plain(req)
        self.assertEqual(res.code, 2)
        self.assertIsNone(req.check(res.code, res.out, res.err))


class TracerTest(BenchCase):
    KINDS = (("bd_chain", "verify", 150), ("bd_chain", "bad_zero_n", None),
             ("dense_chain", "harmonic_iterate", 30), ("diffop", "eigen_one", None))

    def test_traced_stdout_matches_untraced(self):
        for workload, kind, size in self.KINDS:
            req = self.request(workload, kind, size)
            plain = self.plain(req)
            traced, _ = self.traced(req)
            self.assertEqual(traced.out, plain.out, kind)
            self.assertEqual(traced.code, plain.code, kind)
            stderr, imports = layers.parse_importtime(traced.err)
            self.assertEqual(stderr, plain.err, kind)
            self.assertIn("numpy", imports)

    def test_self_times_sum_to_the_request_span(self):
        req = self.request("bd_chain", "verify", 150)
        res, spans = self.traced(req)
        own = layers.self_times(spans)
        request_s = (spans[0][4] - spans[0][3]) * 1e-9
        self.assertAlmostEqual(sum(own), request_s, delta=1e-9 * len(spans))
        # start-up, the request span and shutdown cover the process lifetime
        parts = (spans[0][3] - res.spawn_ns, spans[0][4] - spans[0][3],
                 res.exit_ns - spans[0][4])
        self.assertTrue(all(p > 0 for p in parts))
        self.assertAlmostEqual(sum(parts) * 1e-9, res.latency_s, delta=2e-3)
        self.assertEqual({s[7] for s in spans}, {"r1"})
        modules = {s[2].split(".")[0] for s in spans[2:]}
        self.assertTrue({"cli", "chains", "spectra"} <= modules)
        summary = layers.TraceSummary()
        summary.add(req.kind, spans, {}, res.latency_s, res.latency_s, res.spawn_ns,
                    res.exit_ns, 0, len(res.out))
        metrics = summary.metrics(1)
        self.assertEqual([n for n, _ in layers.METRICS], list(metrics))
        self.assertGreater(metrics["spectra.eig_tridiag_s"], 0.0)
        self.assertGreater(metrics["chains.dense_bytes"], 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(layers.METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.MIX))


if __name__ == "__main__":
    unittest.main()
