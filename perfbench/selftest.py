"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py [-v]

Runs one pass of each workload untraced and twice traced (about a minute on
two cores) and checks that the tracer leaves stdout byte-identical, that call
and work counts repeat exactly, that the input generator is deterministic per
seed, that the output checks reject corrupted outputs, that the metric names
agree with BENCHMARK.json, and that the benchmark refuses to run without the
package source.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import checks
import inputs
import run

SEED = 7


def _work_dir():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)


def _read(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


def tearDownModule():
    if os.path.isdir(run.WORK_ROOT) and not os.listdir(run.WORK_ROOT):
        os.rmdir(run.WORK_ROOT)


class TracedPasses(unittest.TestCase):
    "One untraced and two traced passes per workload, shared by the tests."

    @classmethod
    def setUpClass(cls):
        cls.workdir = _work_dir()
        env = run.child_env()
        cls.passes = {}
        for workload in run.WORKLOADS:
            cls.passes[workload] = [
                run.run_pass(workload, SEED, 0, cls.workdir, env, trace)
                for trace in (False, True, True)]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_passes_are_correct(self):
        for workload, passes in self.passes.items():
            for p in passes:
                self.assertEqual(p["failures"], [], workload)
                self.assertGreater(p["attempted"], 0)

    def test_tracer_keeps_stdout_identical(self):
        for workload, (plain, traced, _) in self.passes.items():
            self.assertEqual(plain["stdout"], traced["stdout"], workload)

    def test_counts_repeat_exactly(self):
        for workload, (_, first, second) in self.passes.items():
            for a, b in zip(first["summaries"], second["summaries"]):
                self.assertEqual(a["calls"], b["calls"], workload)
                self.assertEqual(a["work"], b["work"], workload)
                self.assertEqual(a["under"], b["under"], workload)

    def test_layer_split(self):
        "The workloads load the layers the benchmark documents."
        catalog = run.layer_values(self.passes["catalog"][1]["summaries"])
        certificate = run.layer_values(self.passes["certificate"][1]["summaries"])
        tower = self.passes["tower"][1]["summaries"]
        self.assertEqual(catalog["modarith.morder.calls"], 0)
        self.assertEqual(catalog["lattice.self_s"], 0)
        self.assertGreater(catalog["modcurves.genus_XG.calls"], 0)
        self.assertEqual(certificate["modcurves.genus_XG.calls"], 0)
        self.assertEqual(certificate["orbits.self_s"], 0)
        self.assertGreater(certificate["modarith.morder.calls"], 0)
        self.assertGreater(certificate["lattice.join_yield"], 0)
        self_s = {}
        for s in tower:
            for layer, t in s["self"].items():
                self_s[layer] = self_s.get(layer, 0.0) + t
        self.assertGreater(self_s["orbits"] + self_s["modcurves"], sum(self_s.values()) / 2)

    def test_checks_reject_corrupted_output(self):
        labels = [l for l, _, _ in inputs.read_catalog() if l != inputs.SPECIAL_LABEL]
        items, check = checks.batch("gamma1", labels)
        out = self.passes["catalog"][0]["stdout"][0]
        self.assertEqual(check(0, out), {})
        flipped = out.replace("RESULT\t17.72.1.2\tgamma1\t17:4", "RESULT\t17.72.1.2\tgamma1\tempty")
        self.assertNotEqual(flipped, out)
        self.assertEqual(set(check(0, flipped)), {"17.72.1.2"})
        no_summary = "".join(l for l in out.splitlines(True) if not l.startswith("SUMMARY"))
        self.assertEqual(len(check(0, no_summary)), items)
        injected = out + "# error 3.4.0.1: EnumerationCapError: closure exceeded cap\n"
        self.assertEqual(set(check(0, injected)), {"3.4.0.1"})
        self.assertEqual(len(check(1, out)), items)

        _, cert = checks.certificate("49.196.9.1")
        out = self.passes["certificate"][0]["stdout"][0]
        self.assertEqual(cert(0, out), {})
        self.assertTrue(cert(0, out.replace("RESULT\tcertified", "RESULT\tFAILED\tbudget")))
        self.assertTrue(cert(0, out.replace("rigid=true", "rigid=false")))
        self.assertTrue(cert(0, out.replace("conjugate-to-49.9604.694.1\ttrue",
                                            "conjugate-to-49.9604.694.1\tfalse")))

        _, filt = checks.filter_empty("gamma0")
        out = self.passes["tower"][0]["stdout"][0]
        self.assertEqual(filt(0, out), {})
        self.assertTrue(filt(10, out))
        self.assertTrue(filt(0, out.replace("gamma0\tempty", "gamma0\t17:1")))


class Inputs(unittest.TestCase):
    def test_deterministic_per_seed(self):
        workdir = _work_dir()
        try:
            for workload in run.WORKLOADS:
                texts = []
                for seed in (SEED, SEED, SEED + 1):
                    paths = inputs.write_inputs(workload, seed, 0, workdir)
                    texts.append({k: _read(p) for k, p in sorted(paths.items())})
                self.assertEqual(texts[0], texts[1], workload)
                self.assertNotEqual(texts[0], texts[2], workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_conjugates_keep_labels(self):
        rng = inputs.rng_for("catalog", SEED, 0)
        catalog = inputs.read_catalog()
        lines = inputs.render(catalog, rng).splitlines()
        self.assertEqual(sorted(l.split("|")[0] for l in lines),
                         sorted(label for label, _, _ in catalog))
        self.assertNotEqual([l.split("|")[0] for l in lines], [r[0] for r in catalog])


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [m[0] for m in run.LAYER_METRICS])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"wall_scaled_s", "items_per_scaled_s", "setup_s", "peak_rss_mb"})

    def test_refuses_to_run_without_source(self):
        bare = _work_dir()
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
