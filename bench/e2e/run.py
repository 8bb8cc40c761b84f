#!/usr/bin/env python3
"""End-to-end benchmark: `snoc run` campaigns timed from outside.

Builds the `snoc` CLI, the layer tracer (trace_driver.cc) and the
process timer (timer.cc) from the checkout, generates each workload's
plan from the seed (workloads.py), times `snoc run <plan> --threads N
-f json` (journal and manifest on, as shipped) from outside with wait4,
checks its output, and prints every metric by name and unit. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

    python3 bench/e2e/run.py --workload synth_sparse --seed 1 \\
        --seconds 15 --trace 0       # end-to-end metrics
    python3 bench/e2e/run.py --workload reactive --seed 1 --trace 1
                                     # per-layer metrics (traced replay)
    python3 bench/e2e/run.py --repeat 5 --seed 1
                                     # stability report, all workloads
    python3 bench/e2e/run.py --self-test
    python3 bench/e2e/run.py --record-digests

See README.md for the metrics, the workloads and how to read them.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

THREADS = min(4, os.cpu_count() or 1)
# The only workload that uses the shard layer; one simulation at a
# time, stepped by THREADS shard threads.
WORKLOAD_ENV = {"large_sharded": {"SNOC_SIM_SHARDS": str(THREADS)}}
# Runs twice against a fresh result store: a cold pass that writes,
# then a warm pass that reads.
STORE_PASSES = {"store_roundtrip": 2}
MIN_REPS = 3
SETUP_SECONDS = 1.0
CHILD_TIMEOUT_S = 40
DIGEST_SEEDS = (1, 2, 3)
DIGESTS = HERE / "digests.json"

# Metric names and units come from the benchmark's declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base).resolve() / "e2e"


def build():
    """Configure once, then (re)build the CLI, the tracer and the timer."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"error: {ROOT} holds no snoc sources to build "
                 "(CMakeLists.txt and src/ are missing)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "snoc_cli", "e2e_trace_driver", "e2e_timer"])
    with open(out / "build.log", "ab") as logf:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT)
            if done.returncode:
                sys.exit(f"error: build failed: {' '.join(cmd)} "
                         f"(see {out / 'build.log'})")
    return out / "snoc" / "snoc", out / "e2e_trace_driver", out / "e2e_timer"


# --- child processes --------------------------------------------------------

def child_env(extra=None):
    """The caller's environment minus every SNOC_* knob, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SNOC_")}
    env.update(extra or {})
    return env


# --- output checks ----------------------------------------------------------

def expected_points(plan):
    """Points a plan evaluates (searches count as one: their probe count
    is only known after the run)."""
    n = 0
    for job in plan["jobs"]:
        sweep = job.get("sweep")
        n += len(sweep["loads"]) if sweep else 1
    return n


def score_output(data, code, plan):
    """(points attempted, points failed) for one `snoc run` output.

    A crash, a timeout or an exit code other than 0 (ok) or 3 (some
    jobs failed) counts every point as failed.
    """
    if code not in (0, 3):
        n = expected_points(plan)
        return n, n
    try:
        rows = json.loads(data)[0]["rows"]
    except (ValueError, LookupError, TypeError):
        n = expected_points(plan)
        return n, n
    failed = sum(1 for r in rows if r.get("status") == "failed")
    if code == 3 and failed == 0:
        failed = len(rows)
    return len(rows), failed


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def recorded_digest(workload, seed):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


# --- one workload run -------------------------------------------------------

class Workload:
    """One (workload, seed) in its own scratch directory."""

    def __init__(self, name, seed, bins):
        self.name, self.seed = name, seed
        self.snoc, self.driver, self.timer = bins
        self.dir = build_dir() / "work" / f"{name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.plan = workloads.WORKLOADS[name](seed)
        self.plan_path = self.dir / "plan.json"
        self.plan_path.write_text(workloads.plan_text(name, seed))
        self.env = child_env(WORKLOAD_ENV.get(name))
        self.passes = STORE_PASSES.get(name, 1)
        self.attempted = 0
        self.failed = 0
        self.outputs = set()  # digests of every output seen

    def run(self, argv, stdout_path):
        """Run a program under e2e_timer (killed after CHILD_TIMEOUT_S).

        Returns (exit code or None on timeout, wall s, user+sys s, peak
        RSS MiB), all of the program alone, as wait4 reports them.
        """
        with open(self.dir / "stderr.log", "ab") as err:
            p = subprocess.run([str(self.timer), str(CHILD_TIMEOUT_S),
                                str(stdout_path), *argv],
                               cwd=self.dir, env=self.env, stderr=err,
                               stdout=subprocess.PIPE, check=True)
        r = json.loads(p.stdout)
        code = None if r["timed_out"] else r["exit"]
        return code, r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024.0

    def setup_s(self):
        """In-process set-up time: the median of repeated set-ups.

        The repeats run in one process per CPU, pinned there, and the
        fastest CPU's median is reported: on a shared host single CPUs
        run up to ~1.6x slower while a neighbour keeps their core
        busy, and an unpinned process would report whichever CPU it
        happened to land on.
        """
        cpus = sorted(os.sched_getaffinity(0))
        medians = []
        for cpu in cpus:
            p = subprocess.run(
                [str(self.driver), "setup", str(self.plan_path),
                 str(SETUP_SECONDS / len(cpus))],
                cwd=self.dir, env=self.env, capture_output=True,
                timeout=CHILD_TIMEOUT_S,
                preexec_fn=lambda c=cpu: os.sched_setaffinity(0, {c}))
            if p.returncode != 0:
                sys.exit(f"error: set-up measurement failed: {p.stderr}")
            medians.append(statistics.median(json.loads(p.stdout)["setup_s"]))
        return min(medians)

    def cli(self):
        """One untraced `snoc run` of the campaign (both store passes).

        Returns (wall s, cpu s, peak RSS MiB, Σ manifest job wall ms).
        """
        store = self.dir / "store"
        shutil.rmtree(store, ignore_errors=True)
        wall = cpu = rss = busy_ms = 0.0
        for p in range(self.passes):
            argv = [str(self.snoc), "run", str(self.plan_path),
                    "--threads", str(THREADS), "-f", "json"]
            if self.passes > 1:
                argv += ["--store", str(store)]
            out = self.dir / f"out{p}.json"
            manifest = self.dir / "snoc_manifest.json"
            manifest.unlink(missing_ok=True)
            code, w, c, r = self.run(argv, out)
            data = out.read_bytes()
            points, failed = score_output(data, code, self.plan)
            self.attempted += points
            self.failed += failed
            self.outputs.add(sha256(data))
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if manifest.exists():
                busy_ms += sum(j["wallMs"] for j in
                               json.loads(manifest.read_text())["jobStats"])
        return wall, cpu, rss, busy_ms

    def replay(self):
        """The traced replay: (wall s, driver report, rendered digest)."""
        tdir = self.dir / "trace"
        shutil.rmtree(tdir, ignore_errors=True)
        tdir.mkdir()
        argv = [str(self.driver), "replay", str(self.plan_path), str(tdir),
                "--threads", str(THREADS), "--passes", str(self.passes)]
        if self.passes > 1:
            argv += ["--store", str(tdir / "store")]
        code, wall, _, _ = self.run(argv, tdir / "layers.json")
        if code != 0:
            log(f"traced replay failed (exit {code}); see {self.dir}")
            return wall, None, None
        report = json.loads((tdir / "layers.json").read_text().splitlines()[-1])
        return wall, report, sha256((tdir / "render.json").read_bytes())

    def warm_up(self):
        """One untimed execution that warms caches and returns the
        digest every output must have: the committed one for seeds 1-3
        (the warm-up is then a checked `snoc run`), else the traced
        replay's byte-identical re-render."""
        ref = recorded_digest(self.name, self.seed)
        if ref is None:
            _, _, ref = self.replay()
        else:
            self.cli()
        return ref


def another(t0, seconds, done, minimum):
    """Whether one more repetition fits the time budget (judged by the
    mean repetition so far), or is needed to reach `minimum`."""
    elapsed = time.perf_counter() - t0
    return done < minimum or elapsed + elapsed / done <= seconds


def run_untraced(w, seconds):
    setup = w.setup_s()
    ref = w.warm_up()
    reps = []
    t0 = time.perf_counter()
    # After a failure one repetition is enough to report, and more
    # would only stretch a run past its time limit.
    while not reps or (w.failed == 0 and
                       another(t0, seconds, len(reps), MIN_REPS)):
        reps.append(w.cli())
    output_ok = ref is not None and w.outputs == {ref}
    med = lambda i: statistics.median(r[i] for r in reps)  # noqa: E731
    metrics = {"wall_s": med(0), "cpu_s": med(1), "setup_s": setup,
               "peak_rss_mb": med(2)}
    print(f"{w.name} seed {w.seed}: {len(reps)} `snoc run` repetitions in "
          f"{time.perf_counter() - t0:.1f} s, {THREADS} threads; wall_s "
          f"per repetition: {' '.join(f'{r[0]:.3f}' for r in reps)}")
    return metrics, output_ok


def run_traced(w, seconds):
    pairs = []
    t0 = time.perf_counter()
    traced_digests = set()
    coverage = 1.0
    while another(t0, seconds, len(pairs), 1):
        wall, _, _, busy_ms = w.cli()
        twall, report, digest = w.replay()
        traced_digests.add(digest)
        if report is None or w.failed:
            break
        coverage = min(coverage, report["min_point_coverage"])
        layers = dict(report["layers"])
        layers["exp.worker_busy_frac"] = busy_ms / 1e3 / (THREADS * wall)
        layers["bench.trace_overhead"] = twall / wall - 1.0
        pairs.append(layers)
    ref = recorded_digest(w.name, w.seed)
    # The replay must re-render the CLI's exact bytes; with a recorded
    # digest both must also match it.
    expect = {ref} if ref else traced_digests
    output_ok = (len(pairs) > 0 and w.outputs == expect
                 and traced_digests == w.outputs and coverage >= 0.9)
    metrics = {m: statistics.median(p[m] for p in pairs) for m in PER_LAYER} \
        if pairs else {m: 0.0 for m in PER_LAYER}
    print(f"{w.name} seed {w.seed}: {len(pairs)} untraced/traced pairs; "
          f"layer spans cover >= {coverage:.1%} of every point span; "
          f"trace written to {w.dir / 'trace' / 'trace.json'}")
    return metrics, output_ok


def run_workload(name, seed, seconds, trace, bins):
    """One benchmark run; returns the result object."""
    w = Workload(name, seed, bins)
    metrics, output_ok = (run_traced if trace else run_untraced)(w, seconds)
    fail_frac = w.failed / w.attempted if w.attempted else 1.0
    units = PER_LAYER if trace else END_TO_END
    for m, v in metrics.items():
        print(f"  {m:26s} {v:14.6g} {units[m]}")
    print(f"  {'fail_frac':26s} {fail_frac:14.6g} ratio "
          f"({w.failed} of {w.attempted} points)")
    print(f"  {'output_ok':26s} {int(output_ok):14d} bool")
    return {
        "correct": bool(output_ok and w.failed == 0),
        "attempted": max(1, w.attempted),
        "failed": w.failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }


# --- extra modes ------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(names, seed, seconds, n, bins):
    """--repeat: n untraced runs plus one traced run per workload."""
    summary = {"host": host_info(), "seed": seed, "repeat": n,
               "run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = [run_workload(name, seed, seconds, 0, bins) for _ in range(n)]
        traced = run_workload(name, seed, seconds, 1, bins)
        e2e = {}
        for m, unit in END_TO_END.items():
            vals = [r["metrics"][m]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            e2e[m] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                      "spread": (q3 - q1) / med if med else 0.0}
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    print(f"\n{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s}")
    for name, s in summary["workloads"].items():
        for m, v in s["end_to_end"].items():
            print(f"{name:16s} {m:12s} {v['median']:10.4f} {v['q1']:11.4f} "
                  f"{v['q3']:11.4f} {v['spread']:7.2%}")
    print(json.dumps(summary))
    return all(s["correct"] for s in summary["workloads"].values())


def host_info():
    cache = (build_dir() / "CMakeCache.txt").read_text()
    def field(key):
        return re.search(rf"^{key}:\w+=(.*)$", cache, re.M).group(1)

    cxx = field("CMAKE_CXX_COMPILER")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "machine": platform.machine(), "compiler": version,
            "build_type": field("CMAKE_BUILD_TYPE")}


def record_digests(bins):
    """Digest each workload's output for seeds 1-3, after checking the
    CLI's bytes against the traced replay's re-render."""
    table = {}
    for name in workloads.WORKLOADS:
        for seed in DIGEST_SEEDS:
            w = Workload(name, seed, bins)
            w.cli()
            _, _, digest = w.replay()
            if w.failed or w.outputs != {digest}:
                sys.exit(f"error: {name} seed {seed}: CLI output and "
                         "traced re-render differ")
            table.setdefault(name, {})[str(seed)] = digest
            log(f"{name} seed {seed}: {digest}")
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")


def self_test(bins):
    """Prove the checks fire: a failing point and a wrong digest must
    be caught, and a clean plan must pass."""
    w = Workload("store_roundtrip", 0, bins)
    w.passes = 1
    jobs = w.plan["jobs"][:6]
    clean = {"name": "e2e self-test", "jobs": jobs}
    failing = {"name": "e2e self-test",
               "jobs": jobs + [{"scenario": dict(jobs[0]["scenario"],
                                                 label="__test_fail__")}]}

    def check(plan, env, ref):
        w.plan = plan
        w.plan_path.write_text(json.dumps(plan, indent=1) + "\n")
        w.env = child_env(env)
        w.attempted = w.failed = 0
        w.outputs = set()
        w.cli()
        if ref is None:
            _, _, ref = w.replay()
        return w.failed / w.attempted, int(w.outputs == {ref})

    results = [
        ("hooked __test_fail__ point",
         *check(failing, {"SNOC_EXP_TEST_HOOK": "1"}, "0" * 64),
         lambda f, o: f > 0),
        ("wrong digest", *check(clean, {}, "0" * 64), lambda f, o: o == 0),
        ("clean plan", *check(clean, {}, None), lambda f, o: f == 0 and o == 1),
    ]
    ok = True
    for label, fail_frac, output_ok, expect in results:
        passed = expect(fail_frac, output_ok)
        ok = ok and passed
        print(f"self-test {label:28s} fail_frac={fail_frac:.3f} "
              f"output_ok={output_ok}  {'ok' if passed else 'FAILED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS),
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15,
                    help="measured time per run (default 15)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics")
    ap.add_argument("--repeat", type=int, metavar="N",
                    help="stability report over N runs per workload")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    bins = build()
    if args.self_test:
        return 0 if self_test(bins) else 1
    if args.record_digests:
        record_digests(bins)
        return 0
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.repeat:
        return 0 if repeat(names, args.seed, args.seconds, args.repeat,
                           bins) else 1
    results = [run_workload(n, args.seed, args.seconds, args.trace, bins)
               for n in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({n: r for n, r in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
