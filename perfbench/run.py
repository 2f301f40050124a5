#!/usr/bin/env python3
"""papar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the shipped `papar` CLI and the in-process probe from this checkout's
sources (CMake, into .bench_build/), generates the workload's input from the
seed, and then for --seconds seconds alternates, one at a time:

  * a `papar` run: a closed loop, the next run launched only after the
    previous one exited and its partition files were checked; wall time
    from launch to exit, CPU and peak RSS from wait4;
  * a probe run: set-up repeated 100 times (setup_s), then one untraced
    in-process WorkflowEngine::run (makespan_s), checked too.

Both run the virtual ranks as fibers over one OS worker thread per CPU this
process may use (nproc), so the program never has more threads than cores.

Alternating lets both halves sample the same stretch of time on a host
whose speed drifts. With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it adds one traced in-process run plus direct layer calls and
reports the per-layer metrics, writing the span/StageReport artifact under
.bench_build/trace/. Human-readable lines go to stdout prefixed with '#';
the last stdout line is the JSON result. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
PAPAR = BUILD_DIR / "papar"
PROBE = BUILD_DIR / "perfbench_probe"

WORKLOADS = ("blast-cyclic", "hybrid-cut", "hybrid-cut-wide", "blast-cyclic-wide")
# Fewest rounds (one `papar` run + one probe run each), however short
# --seconds is.
MIN_ROUNDS = 3
RUN_TIMEOUT_S = 60.0
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

# Per-layer metrics (--trace 1) and their units, in report order.
JOB_UNITS = {".s": "s", ".skew": "ratio", ".shuffle_mb": "MB", ".msgs": "count"}
PER_LAYER_UNITS = {
    "setup.config_s": "s",
    "setup.runtime_s": "s",
    "schema.read_s": "s",
    "schema.mrec_per_s": "Mrec/s",
    "core.run_wall_s": "s",
    **{f"job.{job}{suffix}": unit for job in ("sort", "group", "split", "distr")
       for suffix, unit in JOB_UNITS.items()},
    "core.output_s": "s",
    "core.output_share": "ratio",
    "mr.wire_mb": "MB",
    "mr.bytes_per_input_byte": "ratio",
    "mr.sorted_per_input": "ratio",
    "sortlib.rank_sort_s": "s",
    "sortlib.radix_calls": "count",
    "sortlib.merge_calls": "count",
    "sortlib.radix_passes": "count",
    "mpsim.messages": "count",
    "mpsim.remote_mb": "MB",
    "mpsim.cpu_us_per_msg": "us",
    "mpsim.cp.compute_share": "ratio",
    "mpsim.cp.comm_share": "ratio",
    "mpsim.cp.barrier_share": "ratio",
    "mpsim.blocked_s": "s",
    "cli.io_s": "s",
    "obs.trace_overhead": "ratio",
}

# OS worker threads for the fiber scheduler: `nproc`.
WORKERS = len(os.sched_getaffinity(0))

_child = None  # the one process in flight, killed on timeout or SIGTERM/SIGINT


def log(msg):
    print(f"# {msg}", flush=True)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def _kill_child():
    """Kills the process in flight together with everything it started (each
    child leads its own process group, so a build's compilers die too)."""
    if _child is not None and _child.returncode is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _on_alarm(signum, frame):
    _kill_child()  # the interrupted wait reaps it


def _on_term(signum, frame):
    _kill_child()
    # Reap with os.waitpid, not Popen.wait: the interrupted frame may hold
    # the Popen's wait lock, and waiting on it here would deadlock.
    try:
        if _child is not None:
            os.waitpid(_child.pid, 0)
    except ChildProcessError:
        pass
    sys.exit(128 + signum)


def spawn(argv, **kwargs):
    global _child
    _child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, process_group=0, **kwargs)
    return _child


def build():
    for needed in ("src/CMakeLists.txt", "tools/papar_cli.cpp", "configs"):
        if not (ROOT / needed).exists():
            fail(f"papar sources missing ({needed}); run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(WORKERS),
                  "--target", "papar_cli", "perfbench_probe"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        if spawn(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).wait() != 0:
            fail("build failed: " + " ".join(cmd))


def cmake_cache():
    values = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            values[key.split(":")[0]] = value
    return values


def probe(*args, check=True):
    proc = spawn([str(PROBE), *args], stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
    out, _ = proc.communicate()
    signal.setitimer(signal.ITIMER_REAL, 0)
    if check and proc.returncode != 0:
        fail(f"perfbench_probe {args[0]} exited {proc.returncode}")
    lines = out.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def source_commit():
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    return "none (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    files = [p for d in ("src", "configs") for p in (ROOT / d).rglob("*") if p.is_file()]
    files.append(ROOT / "tools" / "papar_cli.cpp")
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp_and_guard():
    """Prints the environment stamp; refuses builds and settings that would
    time something other than the shipped optimized program."""
    if "PAPAR_FORCE_SCALAR" in os.environ:
        fail("PAPAR_FORCE_SCALAR is set; unset it to time the SIMD build", 3)
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    _, env = probe("env")
    if build_type not in ("Release", "RelWithDebInfo") or "-fsanitize" in flags \
            or env["sanitizer"]:
        fail(f"refusing to time a {build_type or 'unoptimized'} or sanitizer build", 3)
    log(f"env: nproc={WORKERS} workers={WORKERS} scheduler=fibers "
        f"build={build_type} compiler={cache.get('CMAKE_CXX_COMPILER', '?')} "
        f"{env['compiler']} simd={env['simd']} commit={source_commit()} "
        f"sources={source_digest()}")


class Runs:
    """Alternates checked `papar` runs and probe runs; keeps their samples."""

    def __init__(self, workload, work_dir, papar_args):
        self.workload = workload
        self.work_dir = work_dir
        self.argv = [str(PAPAR), *papar_args]
        self.cli = []  # (wall_s, cpu_s, peak_rss_mb) of passing papar runs
        self.engine = []  # results of passing probe `run`s
        self.attempted = 0
        self.failed = 0

    def failure(self, what, detail):
        self.failed += 1
        log(f"FAILED {what} (attempt {self.attempted}): {detail}")

    def papar_once(self):
        shutil.rmtree(self.work_dir / "out", ignore_errors=True)
        log_path = self.work_dir / "papar.log"
        self.attempted += 1
        with open(log_path, "wb") as log_file:
            t0 = time.perf_counter()
            proc = spawn(self.argv, stdout=log_file, stderr=log_file)
            signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if wall >= RUN_TIMEOUT_S:
            return self.failure("papar run", f"timed out after {RUN_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
            return self.failure("papar run", f"exit {proc.returncode}: {' '.join(tail)}")
        rc, verdict = probe("check", "--workload", self.workload,
                            "--dir", str(self.work_dir), check=False)
        if rc != 0 or not verdict.get("ok"):
            return self.failure("papar run", "partitions differ from the reference: "
                                + verdict.get("detail", f"checker exit {rc}"))
        self.cli.append((wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0))

    def engine_once(self):
        self.attempted += 1
        rc, res = probe("run", "--workload", self.workload, "--dir", str(self.work_dir),
                        "--root", str(ROOT), "--workers", str(WORKERS), check=False)
        if rc != 0 or not res.get("ok"):
            return self.failure("in-process run", res.get("detail") or f"probe exit {rc}")
        self.engine.append(res)

    def pooled(self, key):
        """Every set-up sample of one kind across all probe runs."""
        return [v for res in self.engine for v in res[key]]

    def job_median(self, job, field):
        values = [res["jobs"][job][field] for res in self.engine if job in res["jobs"]]
        return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples
    above it, floored at the upper median (so it never reads below wall_s).
    Returns (value, percentile, samples beyond it)."""
    xs = sorted(values)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)

    build()
    stamp_and_guard()

    work_dir = BUILD_DIR / "work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    _, meta = probe("gen", "--workload", args.workload, "--seed", str(args.seed),
                    "--dir", str(work_dir), "--root", str(ROOT), "--workers", str(WORKERS))
    records = meta["records"]
    shape = ""
    if "high_degree_edge_share" in meta:
        shape = (f", {meta['vertices']} vertices, high-degree edge share "
                 f"{meta['high_degree_edge_share']:.4f} on "
                 f"{meta['high_degree_vertices']} vertices (>= threshold)")
    log(f"input: {args.workload} seed={args.seed} {meta['input_bytes']} bytes, "
        f"{records} records, digest {meta['input_digest']}, {meta['ranks']} ranks, "
        f"{meta['partitions']} partitions{shape}")

    runs = Runs(args.workload, work_dir, meta["papar_args"])
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        runs.papar_once()
        runs.engine_once()
        rounds += 1
        if rounds >= 4 * MIN_ROUNDS and not (runs.cli and runs.engine):
            break  # every run of one kind fails; the result says so

    traced = None
    if args.trace:
        trace_path = BUILD_DIR / "trace" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
        runs.attempted += 1
        _, traced = probe("trace", "--workload", args.workload, "--dir", str(work_dir),
                          "--root", str(ROOT), "--workers", str(WORKERS),
                          "--out", str(trace_path), "--run-id", run_id)
        if not traced["ok"]:
            runs.failure("traced run", traced["detail"])

    attempted, failed = runs.attempted, runs.failed
    log(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f} "
        f"({len(runs.cli)} papar + {len(runs.engine)} in-process runs passed; every "
        f"run is checked against the reference)")

    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        log(f"{name} = {value:.6g} {unit}{note}")

    def med(values):
        return statistics.median(values) if values else float("nan")

    n = len(runs.cli)
    wall_s = med([s[0] for s in runs.cli])
    cpu_s = med([s[1] for s in runs.cli])
    setup_s = med(runs.pooled("setup_s"))
    run_wall_s = med([r["run_wall_s"] for r in runs.engine])
    makespan_s = med([r["makespan_s"] for r in runs.engine])
    if args.trace == 0:
        tail, pct, beyond = tail_percentile([s[0] for s in runs.cli] or [wall_s])
        put("wall_s", wall_s, "s", f" (median of {n} papar runs)")
        put("wall_s.tail", tail, "s", f" (p{pct:.1f} of {n} runs, {beyond} beyond it)")
        put("cpu_s", cpu_s, "s", " (median user+sys, wait4)")
        put("peak_rss_mb", med([s[2] for s in runs.cli]), "MB", " (median ru_maxrss)")
        put("records_per_s", records / wall_s, "rec/s", f" ({records} records / wall_s)")
        put("makespan_s", makespan_s, "s",
            f" (median RunStats::makespan of {len(runs.engine)} untraced in-process "
            f"runs; output excluded)")
        put("setup_s", setup_s, "s",
            f" (median of {len(runs.pooled('setup_s'))} set-ups over {len(runs.engine)} "
            f"probe runs)")
    else:
        layer = dict(traced)
        layer["setup.config_s"] = med(runs.pooled("setup.config_s"))
        layer["setup.runtime_s"] = med(runs.pooled("setup.runtime_s"))
        layer["core.run_wall_s"] = run_wall_s
        for job in ("sort", "group", "split", "distr"):
            layer[f"job.{job}.s"] = runs.job_median(job, "s")
            layer[f"job.{job}.skew"] = runs.job_median(job, "skew")
        layer["cli.io_s"] = wall_s - (setup_s + run_wall_s)
        layer["mpsim.cpu_us_per_msg"] = cpu_s * 1e6 / max(traced["mpsim.messages"], 1)
        layer["obs.trace_overhead"] = traced["traced_run_wall_s"] / run_wall_s
        for name, unit in PER_LAYER_UNITS.items():
            put(name, layer[name], unit)
        log(f"derived: cli.io_s = wall_s {wall_s:.4f} - setup_s - core.run_wall_s; "
            f"mpsim.cpu_us_per_msg = cpu_s {cpu_s:.4f} / "
            f"{traced['mpsim.messages']:.0f} messages")
        log(f"obs.trace_overhead base: untraced core.run_wall_s = {run_wall_s:.4f} s "
            f"(median of {len(runs.engine)}); traced = {traced['traced_run_wall_s']:.4f} s")
        log(f"critical path (output included) = {traced['mpsim.cp.total_s']:.4f} s; "
            f"RunStats::makespan (output excluded) = {makespan_s:.4f} s")
        log(f"trace artifact: {trace_path.relative_to(ROOT)}")

    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
