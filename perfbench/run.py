"""Benchmark of the `ellimage` command line, end to end and per layer.

    python3 perfbench/run.py --workload catalog|certificate|tower \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each CLI invocation runs in a fresh interpreter, one at a
time (a closed loop with one client), with `--threads 1` and with
ELLIMAGE_THREADS and ELLIMAGE_MAX_ENUM removed from its environment.  A pass
is one run of a workload's invocations on generator files drawn from
(workload, seed, pass number); passes repeat until S seconds have gone by
(at least MIN_PASSES of them).  Every output is checked.

--trace 0 reports the end-to-end metrics; --trace 1 runs each pass untraced
and then traced (perfbench/tracer.py wraps the package's public functions
from outside) and reports the per-layer metrics.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1 if any output check failed and 2 on a usage or checkout error.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")     # inputs and outputs of a run

MIN_PASSES = 3
SETUP_PER_PASS = 3
INVOCATION_TIMEOUT_S = 120
# The host's speed drifts by tens of percent over minutes.  The *_scaled_*
# metrics divide that out: each pass time is multiplied by REF_S / (mean of
# the reference kernel's median times measured, in a fresh interpreter, just
# before and just after the pass).  They read as seconds on a machine that
# runs the kernel in REF_S, its typical time on the 2-CPU container the
# benchmark was written on.
REF_S = 0.040
REF_REPS = 5


def _workload(name, paths):
    """[(argv, (items, check))] of one pass."""
    catalog = inputs.read_catalog()
    labels = [label for label, _, _ in catalog if label != inputs.SPECIAL_LABEL]
    if name == "catalog":
        return [
            (["batch", "--family", "gamma1", "--gens-file", paths["images"]],
             checks.batch("gamma1", labels)),
            (["batch", "--family", "gamma0", "--gens-file", paths["images"]],
             checks.batch("gamma0", labels)),
            (["validate", "--gens-file", paths["validate"]],
             checks.validate([label for label, _, _ in catalog])),
        ]
    if name == "certificate":
        return [(["lattice-check", "--label", label, "--gens-file", paths["images"]],
                 checks.certificate(label)) for label in ("49.196.9.1", "5.6.0.1")]
    if name == "tower":
        return [
            (["filter", "--family", "gamma0", "--label", inputs.NS_LABEL,
              "--gens-file", paths["tower"]], checks.filter_empty("gamma0")),
            (["filter", "--family", "gamma1", "--label", inputs.NS_LABEL,
              "--gens-file", paths["tower"]], checks.filter_empty("gamma1")),
            (["info", "--label", inputs.BOREL_LABEL, "--gens-file", paths["tower"]],
             checks.borel_info()),
        ]
    raise ValueError(name)


WORKLOADS = ("catalog", "certificate", "tower")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("ELLIMAGE_THREADS", "ELLIMAGE_MAX_ENUM")}
    env["PYTHONPATH"] = SRC
    return env


class Child:
    "One finished child process: exit code, output, wall time and own peak RSS."

    def __init__(self, argv, workdir, env, timeout=INVOCATION_TIMEOUT_S):
        out_path = os.path.join(workdir, "stdout")
        err_path = os.path.join(workdir, "stderr")
        start = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, CHILD] + argv, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=env, cwd=ROOT)
        self.rc, rusage, self.timed_out = _reap(proc, timeout)
        self.end = time.perf_counter()
        self.start = start
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0     # ru_maxrss is in KiB
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()


def _reap(proc, timeout):
    """Wait for `proc` and return (exit code, its own rusage, timed out).

    os.wait4 gives this child's ru_maxrss alone; RUSAGE_CHILDREN would give
    the maximum over every child so far.  The child is first waited for
    without being reaped, so the timeout kill can never hit a reused pid.
    """
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:           # interrupted: do not leave the child behind
        timer.cancel()
        timer.join()
        os.kill(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, timed_out.is_set()


def run_pass(workload, seed, pass_no, workdir, env, trace):
    """One pass; returns a dict with wall time, item counts, peak RSS and,
    when traced, the per-invocation span summaries."""
    paths = inputs.write_inputs(workload, seed, pass_no, workdir)
    plan = _workload(workload, paths)
    children = []
    for i, (argv, _) in enumerate(plan):
        args = ["--"] + argv + ["--threads", "1"]
        if trace:
            spans_path = os.path.join(workdir, "spans%d.json" % i)
            if os.path.exists(spans_path):
                os.remove(spans_path)
            request = "%s/%d/%d" % (workload, pass_no, i)
            args = ["--trace", spans_path, request] + args
        children.append(Child(args, workdir, env))
    wall = children[-1].end - children[0].start
    attempted, failed, failures, summaries = 0, 0, [], []
    for i, ((argv, (items, check)), child) in enumerate(zip(plan, children)):
        attempted += items
        if child.timed_out:
            bad = {"all %d items" % items: "timeout"}
            failed += items
        else:
            bad = check(child.rc, child.stdout)
            failed += len(bad)
        failures += ["%s %s: %s" % (" ".join(argv[:3]), item, reason)
                     for item, reason in sorted(bad.items())]
        if bad and child.stderr:
            failures.append("stderr: " + child.stderr.strip()[-500:])
        if trace:
            spans_path = os.path.join(workdir, "spans%d.json" % i)
            spans = tracer.load(spans_path)["spans"] if os.path.exists(spans_path) else []
            summaries.append(tracer.summarize(spans))
    return {"wall_s": wall, "attempted": attempted, "failed": failed,
            "failures": failures, "peak_rss_mb": max(c.peak_rss_mb for c in children),
            "stdout": [c.stdout for c in children], "summaries": summaries}


def _child_output(argv, workdir, env):
    child = Child(argv, workdir, env)
    if child.rc != 0:
        raise RuntimeError("%s child failed: %s" % (argv[0], child.stderr.strip()[-500:]))
    return child


def setup_times(workdir, env, repeats=SETUP_PER_PASS):
    "Wall times of fresh interpreters that import ellimage.cli and parse the data."
    return [c.end - c.start for c in
            (_child_output(["--setup"], workdir, env) for _ in range(repeats))]


def reference_times(workdir, env):
    "Times of REF_REPS runs of the reference kernel in a fresh interpreter."
    return [float(x) for x in
            _child_output(["--reference", str(REF_REPS)], workdir, env).stdout.split()]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def _total(summaries, key, name):
    return sum(s[key].get(name, 0) for s in summaries)


def _layer_metrics():
    """[(metric, unit, better, kind, span)]; kind names the field of
    tracer.summarize the metric sums, or a metric computed in layer_values."""
    out = [("%s.self_s" % layer, "s", "lower", "self", layer) for layer in tracer.LAYERS]
    for span, fields in (
            ("modarith.morder", ("calls", "s")),
            ("gl2.mulclose", ("calls", "s", "elements")),
            ("gl2.MatrixGroup.elements", ("s",)),
            ("gl2.MatrixGroup.order", ("s",)),
            ("gl2.MatrixGroup.level", ("s",)),
            ("gl2.is_conjugate", ("calls", "s")),
            ("gl2.conjugate_into", ("calls", "s")),
            ("orbits.gamma0_orbits", ("s",)),
            ("orbits.gamma1_orbits", ("s",)),
            ("orbits.orbit_degree_tower", ("s",)),
            ("modcurves.genus_XG", ("calls", "s", "mu")),
            ("modcurves.sl2_elements", ("s", "elements")),
            ("lattice.all_subgroups", ("s", "subgroups")),
            ("lattice.proper_detsurjective_subgroups", ("s",)),
            ("lattice.split_cartan_membership", ("s",)),
            ("lattice.preimage_rigidity", ("s", "checked")),
            ("isolated.analyze", ("calls", "s")),
            ("isolated.candidate_pairs", ("s",)),
            ("isolated.filter_genus_zero", ("s",)),
            ("labelio.read_generators_text", ("calls", "s")),
            ("labelio.validate_record", ("s",))):
        for field in fields:
            kind = {"calls": "calls", "s": "time"}.get(field, "work")
            out.append(("%s.%s" % (span, field), "s" if field == "s" else "count",
                        "lower", kind, span))
    return out + [
        ("gl2.errors", "count", "lower", "errors", "gl2"),
        ("orbits.points", "count", "lower", "points", None),
        ("lattice.join_yield", "ratio", "higher", "join_yield", None),
        ("trace.overhead_s", "s", "lower", "overhead", None),
    ]


LAYER_METRICS = _layer_metrics()


def layer_values(summaries):
    "{metric: value} of one traced pass (trace.overhead_s is filled in later)."
    out = {}
    for name, _, _, kind, span in LAYER_METRICS:
        if kind in ("self", "calls", "time", "work", "errors"):
            out[name] = _total(summaries, kind, span)
    out["orbits.points"] = (_total(summaries, "work", "orbits.gamma0_orbits")
                            + _total(summaries, "work", "orbits.gamma1_orbits"))
    joins = sum(s["under"].get(("lattice.all_subgroups", "gl2.mulclose"), 0)
                for s in summaries)
    found = _total(summaries, "work", "lattice.all_subgroups")
    out["lattice.join_yield"] = found / joins if joins else 0.0
    return out


# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _timing_line(name, unit, values):
    q1, med, q3 = _quartiles(values)
    return "%-22s median=%.4f q1=%.4f q3=%.4f n=%d %s" % (name, med, q1, q3, len(values), unit)


def run(workload, seed, seconds, trace, workdir):
    env = child_env()
    # An untimed first start writes the bytecode cache, as an install does.
    _child_output(["--setup"], workdir, env)
    passes, pairs, refs, setup = [], [], [], []
    start = time.perf_counter()
    pass_no = 0
    while pass_no < (1 if trace else MIN_PASSES) or time.perf_counter() - start < seconds:
        if trace:
            plain = run_pass(workload, seed, pass_no, workdir, env, trace=False)
            traced = run_pass(workload, seed, pass_no, workdir, env, trace=True)
            pairs.append((plain, traced))
            passes += [plain, traced]
        else:
            refs.append(statistics.median(reference_times(workdir, env)))
            setup += setup_times(workdir, env)
            passes.append(run_pass(workload, seed, pass_no, workdir, env, trace=False))
        pass_no += 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"]:
            print("FAIL " + line)
    lines, metrics = [], {}
    if trace:
        per_pass = []
        for plain, traced in pairs:
            values = layer_values(traced["summaries"])
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            per_pass.append(values)
        for name, unit, _, _, _ in LAYER_METRICS:
            values = [v[name] for v in per_pass]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(_timing_line(name, unit, values))
    else:
        refs.append(statistics.median(reference_times(workdir, env)))
        walls = [p["wall_s"] for p in passes]
        scaled = [w * 2 * REF_S / (before + after)
                  for w, before, after in zip(walls, refs, refs[1:])]
        ok = [p["attempted"] - p["failed"] for p in passes]
        series = (
            ("wall_s", "s", walls, False),
            ("items_per_s", "items/s", [n / w for n, w in zip(ok, walls)], False),
            ("wall_scaled_s", "s", scaled, True),
            ("items_per_scaled_s", "items/s", [n / w for n, w in zip(ok, scaled)], True),
            ("setup_s", "s", setup, True),
            ("peak_rss_mb", "MB", [p["peak_rss_mb"] for p in passes], True),
            ("reference_s", "s", refs, False),
        )
        for name, unit, values, reported in series:
            if reported:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(_timing_line(name, unit, values))
        lines.append("%-22s %.4f ratio (%d of %d items)" % ("failed_frac", failed / attempted,
                                                           failed, attempted))
    print("workload %s seed %d passes %d%s" % (workload, seed, pass_no,
                                                " (each untraced, then traced)" if trace else ""))
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ellimage", "cli.py")):
        sys.stderr.write("perfbench: no package source at %s; run from a source checkout\n"
                         % os.path.join(SRC, "ellimage"))
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
