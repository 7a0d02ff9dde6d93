"""Seeded benchmark for exact curve enumeration.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep_d2,extremal,basis_d3,all}
                             [--seed N] [--seconds S] [--trace 0|1]

A run sets up `SETUP_REPS` times (fresh import of `src/ordcurves`, inputs built
from the seed, expected outputs loaded), then runs whole passes over the
workload's fixed job list, then checks every job's output.  The pass count is
`--seconds` divided by the workload's nominal pass time (at least enough
passes for eleven job samples), so every commit runs the same jobs.  With
`--workload all` the three workloads run in turn in one process, and
peak_rss_mb is then the peak since the process started.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json.  Their
times are host-scaled, so a slow phase of a shared host does not read as a
slower program.  While a set-up or a job is timed, a `Reference` interpreter
pinned to the same CPU runs a short stdlib-Fraction elimination every
PROBE_INTERVAL_S; the time, less the CPU time those probes took, is
multiplied by REFERENCE_S over the mean probe.  A serial workload runs
pinned to one CPU and is probed there; the pooled one is probed on every
CPU.  The probing interpreters never import ordcurves, so process-wide
settings the package makes (gc thresholds, say) move the program's times and
not the reference.  Each timed block starts after a gc.collect().  wall_s is
the sum of each job's median over the passes, job_s_p50 the median of those
job medians, job_s_tail a percentile of all job times (see `tail`).  The
unscaled seconds are printed beside them.  peak_rss_mb is the benchmark
process's peak RSS plus the peak of its largest pool child; a forked child's
pages shared with the parent count twice, and the second concurrent worker
is not added.

With `--trace 1` untraced and traced passes alternate, and it reports
per-layer self times (unscaled), call counts and work counts of the traced
passes, the unattributed time and the tracing overhead; spans go to
perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 7
TAIL_BEYOND = 10
# a fixed constant near the mean probe on the reference host (2-vCPU Xeon VM,
# Python 3.11) in a fast phase, so scaled times read roughly as seconds there
REFERENCE_S = 0.0025
# A probe is the Gauss-Jordan rank of PROBE_MATRICES fixed 6x10 integer
# matrices over Fraction: the kind of work linalg.rank does, so the host slows
# it about as much as the program.  One runs every PROBE_INTERVAL_S seconds
# while code is timed, taking about a tenth of the CPU.
PROBE_MATRICES = 3
PROBE_INTERVAL_S = 0.02
REFERENCE_LOOP = """
import os, select, sys, time
from fractions import Fraction

K, INTERVAL = int(sys.argv[1]), float(sys.argv[2])
MATRICES = [[[Fraction((7 * m + 5 * r + 3 * c + r * c * m) % 19 - 9) for c in range(10)]
             for r in range(6)] for m in range(K)]

def rank(rows):
    rows, rk = [row[:] for row in rows], 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        rows[rk] = [v / rows[rk][c] for v in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk

def probe():
    start = time.thread_time()
    for m in MATRICES:
        rank(m)
    return time.thread_time() - start

# b"b" ... b"e": probe until b"e", then reply the mean probe and the CPU
# seconds the probes took
out = os.fdopen(1, "w")
while os.read(0, 1) == b"b":
    probes = [probe()]
    while not select.select([0], [], [], INTERVAL)[0]:
        probes.append(probe())
    os.read(0, 1)
    out.write(f"{sum(probes) / len(probes)!r} {sum(probes)!r}\\n")
    out.flush()
"""


def current_cpu():
    """The CPU this process runs on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Reference:
    """A fixed stdlib-Fraction computation that probes one CPU's speed.

    The shared host this benchmark was built on runs up to twice as slow for
    seconds to minutes at a time, changes speed within a second, and slows one
    CPU without the other.  On that host the ratio of adjacent 12 ms Fraction
    loops on one CPU varied by 0.3% over 10 s windows, on different CPUs by 3%.
    So while code is timed, the reference runs short eliminations on the same
    CPU every PROBE_INTERVAL_S; that cut the spread of single 2 s sweep jobs
    from 0.2 (unscaled, or scaled by samples before and after) to 0.02.
    The child runs isolated (`-I`) and shares no code or state with ordcurves.
    """

    def __init__(self, cpu=None):
        self.cpu = cpu  # None: the CPU this process is on when probing starts
        self.pinned_to = None
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-c", REFERENCE_LOOP,
             str(PROBE_MATRICES), str(PROBE_INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        for _ in range(3):  # warm up
            self.start()
            self.end()

    def start(self) -> None:
        cpu = current_cpu() if self.cpu is None else self.cpu
        if cpu is not None and cpu != self.pinned_to and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.pinned_to = cpu
        self.proc.stdin.write(b"b")

    def end(self) -> tuple[float, float]:
        """The mean probe and the CPU seconds the probes took, since `start`."""
        self.proc.stdin.write(b"e")
        mean, taken = self.proc.stdout.readline().split()
        return float(mean), float(taken)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class Timer:
    """Times code while references probe its CPUs; keeps raw and host-scaled seconds.

    Raw seconds leave out the CPU time the probes took (the mean over the
    probed CPUs); scaled ones are raw times REFERENCE_S over the mean probe.
    Without references the scaled times equal the raw ones.
    """

    def __init__(self, references=()):
        self.references = references
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.speeds: list[float] = []

    @contextlib.contextmanager
    def __call__(self):
        gc.collect()  # every timed block starts from the same heap state
        for reference in self.references:
            reference.start()
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        if not self.references:
            self.raw.append(elapsed)
            self.scaled.append(elapsed)
            return
        probes = [reference.end() for reference in self.references]
        speed = statistics.fmean(mean for mean, _ in probes)
        elapsed -= statistics.fmean(taken for _, taken in probes)
        self.raw.append(elapsed)
        self.speeds.append(speed)
        self.scaled.append(elapsed * REFERENCE_S / speed)


def set_up(name: str, seed: int, references=()):
    timer = Timer(references)
    for _ in range(SETUP_REPS):
        with timer():
            mods = workloads.import_package(ROOT / "src")
            expected = workloads.load_expected()
            workload = workloads.WORKLOADS[name](mods, seed, ROOT, expected)
    return mods, workload, timer


def run_pass(mods, workload, outputs, timer, trace=None):
    """One pass over the job list; returns its raw seconds."""
    first = len(timer.raw)
    for j, job in enumerate(workload.jobs):
        workloads.clear_caches(mods)
        out = None
        with timer():
            try:
                if trace is None:
                    out = job.run()
                else:
                    with trace.job(j):
                        out = job.run()
            except Exception:  # a failed job is counted, the run goes on
                traceback.print_exc()
        outputs[j].append(out)
    return sum(timer.raw[first:])


def tail(latencies):
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    """Own peak plus the largest reaped child's; the Reference children are not reaped yet."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def count_failures(workload, outputs) -> int:
    return sum(
        out is None or not job.check(out)
        for job, outs in zip(workload.jobs, outputs)
        for out in outs
    )


def environment(workload, passes: int, seed: int, ignored_env) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "workload": workload.name, "seed": seed, "input_seeds": workload.seeds,
        "workers": workload.workers, "passes": passes, "jobs_per_pass": len(workload.jobs),
        "ignored_ORDCURVES_WORKERS": ignored_env,
    }


def measure(mods, workload, passes, setup, references):
    outputs = [[] for _ in workload.jobs]
    timer = Timer(references)
    for _ in range(passes):
        run_pass(mods, workload, outputs, timer)
    rss = peak_rss_mb()
    failed = count_failures(workload, outputs)
    # each job's median over the passes; a pass is the sum of its jobs
    jobs = len(workload.jobs)
    scaled = [statistics.median(timer.scaled[j::jobs]) for j in range(jobs)]
    raw = [statistics.median(timer.raw[j::jobs]) for j in range(jobs)]
    value, pct, n = tail(timer.scaled)
    raw_value, _, _ = tail(timer.raw)
    metrics = {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "wall_s": (sum(scaled), "s"),
        "job_s_p50": (statistics.median(scaled), "s"),
        "job_s_tail": (value, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    note = (f"host-scaled; unscaled {{:.6g}} s; mean probe median "
            f"{statistics.median(setup.speeds + timer.speeds):.4g} s")
    notes = {
        "setup_s": note.format(statistics.median(setup.raw)) + f"; median of {SETUP_REPS} set-ups",
        "wall_s": note.format(sum(raw)) + f"; sum of each job's median over {passes} passes",
        "job_s_p50": note.format(statistics.median(raw)) + f"; median over {jobs} jobs of those",
        "job_s_tail": note.format(raw_value) + f"; p{pct:.1f} of {n} jobs, {TAIL_BEYOND} beyond",
        "peak_rss_mb": "benchmark process plus largest pool child, shared pages counted twice",
    }
    print(f"[{workload.name}] host-scaled job medians: "
          + ", ".join(f"{job.name} {v:.4g} s" for job, v in zip(workload.jobs, scaled)))
    return metrics, notes, n, failed, True


def measure_traced(mods, workload, passes, seed):
    """Per-layer metrics of traced passes; times here are not host-scaled."""
    outputs = [[] for _ in workload.jobs]
    timer = Timer()
    plain_walls, traced_walls, summaries, traces = [], [], [], []
    unchanged = True
    for p in range(max(passes, 2)):
        if p % 2 == 0:
            plain_walls.append(run_pass(mods, workload, outputs, timer))
            continue
        trace = tracer.Tracer(mods)
        before = tracer.package_state()
        trace.install()
        try:
            traced_walls.append(run_pass(mods, workload, outputs, timer, trace=trace))
        finally:
            trace.uninstall()
        unchanged &= tracer.package_state() == before
        summaries.append(trace.summary())
        traces.append(trace)
    failed = count_failures(workload, outputs)
    balanced = all(s["balanced"] for s in summaries)
    layer_names = tracer.per_layer_names()
    pinned = all(
        s["metrics"][name] == summaries[0]["metrics"][name]
        for s in summaries for name, unit, _ in layer_names if unit != "s"
    )
    metrics = {}
    for name, unit, _ in layer_names:
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif unit == "s":
            value = statistics.median(s["metrics"][name] for s in summaries)
        else:
            value = summaries[0]["metrics"][name]
        metrics[name] = (value, unit)
    traced_wall = statistics.median(s["job_wall_s"] for s in summaries)
    unattributed = metrics["trace.unattributed_s"][0]
    print(f"[{workload.name}] traced wall {traced_wall:.4f} s = layer self times + unattributed "
          f"{unattributed:.4f} s ({100 * unattributed / traced_wall:.2f}% unattributed); "
          f"balanced={balanced} counts_pinned={pinned} package_restored={unchanged}")
    by_module: dict[str, float] = {}
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s") and not name.startswith("trace."):
            by_module[name.split(".")[0]] = by_module.get(name.split(".")[0], 0.0) + value
    print(f"[{workload.name}] self time by module: " + ", ".join(
        f"{m} {v:.4f} s" for m, v in sorted(by_module.items(), key=lambda kv: -kv[1])))
    write_spans(workload.name, seed, traces)
    correct = balanced and pinned and unchanged
    return metrics, {}, len(timer.raw), failed, correct


def write_spans(name: str, seed: int, traces) -> None:
    """One tab-separated line per span; `parent` is an `id` in the same pass."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("pass\tid\tjob\tname\tstart\tend\tparent\n")
        for p, t in enumerate(traces):
            fh.writelines(
                f"{p}\t{i}\t{job}\t{n}\t{start!r}\t{end!r}\t{parent}\n"
                for i, (n, start, end, parent, job)
                in enumerate(zip(t.names, t.starts, t.ends, t.parents, t.jobs)))
    print(f"[{name}] spans written to {path.relative_to(ROOT)}")


@contextlib.contextmanager
def pinned(pin: bool = True):
    """Keep this process on its current CPU, where the reference probes too."""
    cpu = current_cpu()
    if not pin or cpu is None or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_workload(name: str, args, ignored_env, references):
    """Set up, measure and report one workload; None if it cannot be set up.

    `references` holds one Reference per allowed CPU, pinned to it, and one
    that follows this process.  Set-up and serial workloads run pinned and are
    probed on their CPU; a pooled workload is probed on every CPU, because its
    children may run on any (and would inherit a pin).
    """
    follow, per_cpu = (references[:1], references[1:]) if references else ((), ())
    try:
        with pinned():
            mods, workload, setup = set_up(name, args.seed, follow)
    except (ImportError, OSError) as exc:
        print(f"cannot set up {name}: {exc}", file=sys.stderr)
        return None
    # enough passes for a tail sample with TAIL_BEYOND jobs beyond it
    passes = max(math.ceil((TAIL_BEYOND + 1) / len(workload.jobs)),
                 round(args.seconds / workload.nominal_pass_s))
    if args.trace:
        metrics, notes, attempted, failed, correct = measure_traced(
            mods, workload, passes, args.seed)
    else:
        serial = workload.workers == 1
        with pinned(serial):
            metrics, notes, attempted, failed, correct = measure(
                mods, workload, passes, setup, follow if serial else per_cpu)
    print(f"[{name}] error_rate {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    for metric, (value, unit) in metrics.items():
        print(f"[{name}] {metric} {value:.6g} {unit}"
              + (f" ({notes[metric]})" if metric in notes else ""))
    print(f"[{name}] env " + json.dumps(
        environment(workload, passes, args.seed, ignored_env), sort_keys=True))
    return metrics, attempted, failed, correct and failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn in this process")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # every call passes workers explicitly; this keeps the environment out too
    ignored_env = os.environ.pop("ORDCURVES_WORKERS", None)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    references = []
    try:
        if not args.trace:
            references.append(Reference())
            references += [Reference(cpu) for cpu in sorted(os.sched_getaffinity(0))]
        results = {name: run_workload(name, args, ignored_env, references) for name in names}
    finally:
        for reference in references:
            reference.close()
    if any(r is None for r in results.values()):
        return 2
    prefix = len(names) > 1  # with "all", metric names carry their workload
    print(json.dumps({
        "correct": all(r[3] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": {(f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
                    for name, r in results.items() for metric, (value, unit) in r[0].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
