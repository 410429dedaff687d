"""locsys benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload master --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; the package is imported from
`src/`.  `--workload all` runs each workload in turn.  With `--trace 0` the
last line of stdout is the end-to-end result,
with `--trace 1` the per-layer result of a traced run (see DESIGN.md).  The
line before it is a report with the environment stamp, per-group latency
percentiles and sample counts.  Exit code 0 when the run completed, 1 without
a result when the package is missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("master", "evaluate", "verify")

# The machine this runs on changes speed by up to 1.6x within a second (other
# tenants share its cores), and the mix drifts over minutes.  Every time the
# benchmark reports is therefore rescaled to a nominal machine speed: a fixed
# pure-Python probe is timed right before and after each call and every
# PROBE_PERIOD_S during it, and the call's time t becomes
# t * PROBE_NOMINAL_S / (mean probe time).  Wall times are in the report line.
# The probe allocates no collector-tracked objects, so collections of the
# program's objects do not land in it.
PROBE_SRC = """
def probe():
    table = {}
    x = 0x9E3779B97F4A7C15
    for i in range(400):
        x = (x * 6364136223846793005 + 1442695040888963407) % 18446744073709551616
        k = x >> 54
        table[k] = table.get(k, 0) + (x & 0xFFFF) * i
    return len(table)
"""
PROBE_NOMINAL_S = 2.0e-4
PROBE_PERIOD_S = 0.02
PROBE_AROUND_S = 0.002
PROBES_AROUND = 3
SETUP_CODE = PROBE_SRC + """
import time
def probes(n=40):
    out = []
    for _ in range(n):
        t0 = time.perf_counter(); probe(); out.append(time.perf_counter() - t0)
    return out
before = probes()
t0 = time.perf_counter()
import locsys.cli
locsys.cli.build_parser()
setup = time.perf_counter() - t0
after = probes()
print(setup, sum(before + after) / len(before + after))
"""
_probe_ns = {}
exec(PROBE_SRC, _probe_ns)
probe = _probe_ns["probe"]


class SpeedProbe:
    """Times `probe()` from a SIGALRM handler every PROBE_PERIOD_S of wall
    time while running, and on demand around each call.  `spent` is the time
    the handler took, which callers subtract from what they time."""

    def __init__(self):
        self.stamps = []
        self.samples = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def around(self):
        for _ in range(PROBES_AROUND):
            self.sample()

    def scale(self, t0, t1):
        """Factor that turns a wall time spent in [t0, t1] into nominal time,
        from the probes taken in that interval and right around it."""
        lo = bisect.bisect_left(self.stamps, t0 - PROBE_AROUND_S)
        hi = bisect.bisect_right(self.stamps, t1 + PROBE_AROUND_S)
        return PROBE_NOMINAL_S / statistics.mean(self.samples[lo:hi])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "locsys", "cli.py")):
        sys.exit(f"error: no locsys package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import locsys

    if not os.path.abspath(locsys.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported locsys from {locsys.__file__}, not from {SRC}")


def measure_setup():
    """Median of fresh-interpreter `import locsys.cli` plus parser build."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        setup, probe_s = (float(x) for x in done.stdout.split())
        raw.append(setup)
        scaled.append(setup * PROBE_NOMINAL_S / probe_s)
    return statistics.median(scaled), raw


def environment():
    import mpmath
    import mpmath.libmp

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


class Call:
    """One timed call: wall seconds, nominal seconds and whether its output
    was ok (it did not raise and equals the op's first output)."""

    __slots__ = ("op", "wall", "nominal", "op_id", "ok")

    def __init__(self, op, wall, nominal, op_id, ok):
        self.op = op
        self.wall = wall
        self.nominal = nominal
        self.op_id = op_id
        self.ok = ok


def run_loop(workload, ops, seconds, tracer=None, min_passes=3):
    """Closed loop, one client: whole passes over `ops`, at least `min_passes`,
    and more while another pass fits in `seconds`.  Returns one list of
    Calls per pass.  With three passes or more, the median time of a call
    leaves out the first pass, which pays for the process's lazy set-up
    (about a quarter of a `verify all` call)."""
    passes = []
    start = time.perf_counter()
    op_id = 0
    last = 0.0
    with SpeedProbe() as speed:
        while len(passes) < min_passes or time.perf_counter() - start + last <= seconds:
            begin = time.perf_counter()
            # objects the benchmark holds on to (first outputs) are not the
            # program's: keep them out of the collector's scans
            gc.freeze()
            calls = []
            for op in ops:
                speed.around()
                if tracer is not None:
                    tracer.op_id = op_id
                spent = speed.spent
                t0 = time.perf_counter()
                try:
                    output = op.run()
                    error = False
                except Exception as exc:  # a crashing call is a failed operation
                    output, error = f"{type(exc).__name__}: {exc}", True
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.op_id = -1
                speed.around()
                wall = t1 - t0 - (speed.spent - spent)
                ok = workload.record(op, output) and not error
                calls.append(Call(op, wall, wall * speed.scale(t0, t1), op_id, ok))
                op_id += 1
            passes.append(calls)
            last = time.perf_counter() - begin
    gc.unfreeze()
    return passes


def failed_calls(passes, workload):
    """Names of the calls that failed in the loop or whose op fails its oracle."""
    bad = set(workload.check())
    return [c.op.name for calls in passes for c in calls if not c.ok or c.op.name in bad]


def percentiles(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 11:
        idx = len(values) - 11
        out[f"p{100 * (idx + 1) // len(values)}"] = values[idx]
    return out


def summarize(passes):
    """Per-op median nominal times, and per group the pass time and the
    latency percentiles, nominal and wall."""
    per_op = {}
    for calls in passes:
        for c in calls:
            per_op.setdefault(c.op.name, (c.op.group, [], []))
            per_op[c.op.name][1].append(c.wall)
            per_op[c.op.name][2].append(c.nominal)
    medians = {name: statistics.median(nominal) for name, (_, _, nominal) in per_op.items()}
    groups = {}
    for name, (group, wall, nominal) in per_op.items():
        g = groups.setdefault(group, {"pass_s": 0.0, "wall_pass_s": 0.0, "nominal": [],
                                      "wall": []})
        g["pass_s"] += medians[name]
        g["wall_pass_s"] += statistics.median(wall)
        g["nominal"] += nominal
        g["wall"] += wall
    return medians, {group: {"pass_s": g["pass_s"], "wall_pass_s": g["wall_pass_s"],
                             "latency_s": percentiles(g["nominal"]),
                             "wall_latency_s": percentiles(g["wall"])}
                     for group, g in groups.items()}


def traced_metrics(workload, ops, seconds):
    """Untraced passes, then traced passes for `seconds`; per-layer metrics.
    The last untraced pass, warm like the traced ones, is the baseline of
    the tracing overhead."""
    from tracer import TIME_METRICS, Tracer

    untraced = run_loop(workload, ops, 0, min_passes=2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, ops, seconds, tracer, min_passes=1)
    finally:
        tracer.uninstall()
    per_pass = []
    for calls in traced:
        layer = tracer.summarize(c.op_id for c in calls)
        scale = sum(c.nominal for c in calls) / sum(c.wall for c in calls)
        per_pass.append({k: v * scale if k in TIME_METRICS else v for k, v in layer.items()})
    # counts repeat exactly, so they come from the first traced pass; times
    # are medians over the traced passes
    metrics = {key: statistics.median(p[key] for p in per_pass)
               if key in TIME_METRICS else per_pass[0][key] for key in per_pass[0]}
    untraced_s = sum(c.nominal for c in untraced[-1])
    metrics["trace.overhead_s"] = (statistics.median(sum(c.nominal for c in calls)
                                                     for calls in traced) - untraced_s)
    metrics.update(workload.exact_counts())
    spans_file = os.path.join(OUT, f"spans-{workload.name}-seed{workload.seed}.csv.gz")
    tracer.write(spans_file, {c.op_id: c.op.name for calls in traced for c in calls})
    info = {"traced_passes": len(traced), "spans_file": os.path.relpath(spans_file, ROOT),
            "untraced_pass_s": untraced_s}
    return metrics, untraced + traced, info


def run_all(args):
    """Every workload in a process of its own; prints each one's report and
    result, then one result line with the metrics named <workload>.<metric>."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import COUNT_METRICS, RATIO_METRICS, TIME_METRICS
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        report = {"workload": args.workload, "seed": args.seed, "env": environment()}
        if not args.trace:
            setup_s, report["setup_wall_s"] = measure_setup()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.operations()
        report["ops_per_pass"] = len(ops)
        if args.trace:
            metrics, passes, info = traced_metrics(workload, ops, args.seconds)
            report.update(info)
        else:
            passes = run_loop(workload, ops, args.seconds)
            medians, report["groups"] = summarize(passes)
            report["passes"] = len(passes)
        failures = failed_calls(passes, workload)
        failed = len(failures)
        attempted = sum(len(calls) for calls in passes)
        report["failed_ops"] = sorted(set(failures))
        report["fail_ratio"] = failed / attempted

        if args.trace:
            units = {**{k: "count" for k in COUNT_METRICS}, **{k: "ratio" for k in RATIO_METRICS},
                     **{k: "s" for k in TIME_METRICS}}
            result = {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()}
        else:
            result = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pass_s": {"value": sum(medians.values()), "unit": "s"},
                "op_gmean_ms": {"value": 1000 * statistics.geometric_mean(medians.values()), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": result}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
