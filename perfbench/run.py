#!/usr/bin/env python3
"""Benchmark of the structured-iep solver.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Runs one workload of perfbench/workloads.py (bundled, corpus, sweep, cli)
against the package in the checkout's src/: one process and one closed-loop
client, pinned with its child processes to one CPU, BLAS to one thread.
Operations run in whole passes over the workload's instances for about
--seconds (at least one pass).  Every answer is checked; a wrong answer
makes the run incorrect (exit code 1).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
perfbench/layers.py over a fixed number of passes (so the counts repeat
exactly), with the tracing overhead.  The last stdout line is a JSON object
{correct, attempted, failed, metrics}; a table comes before it, and the full
record (raw times, reference kernel, environment) is written to
.perfbench/results/.

Timings are normalised: the speed of this kind of machine changes by up to
1.8x within seconds, so a fixed reference kernel (numpy eig of a 60x60
matrix plus a pure-Python loop, nothing from the package) runs after every
round, and a round's times are scaled by REF_KERNEL_MS / (mean kernel time
just before and just after it), i.e. reported in milliseconds on a machine
where the kernel takes REF_KERNEL_MS.  The raw values are kept alongside.
"""

import os

BLAS_THREADS = "1"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
              "MKL_NUM_THREADS": BLAS_THREADS, "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)  # before numpy loads its BLAS; child processes inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import ROOT, SCRATCH, CheckFailed  # noqa: E402

REF_KERNEL_MS = 10.0
KERNEL_REPEATS = 5
KERNEL_SHARE = 0.05
KERNEL_MATRIX = np.random.default_rng(12345).standard_normal((60, 60))
SETUP_REPEATS = 5
TRACE_PASSES = {"bundled": 10, "corpus": 1, "sweep": 2, "cli": 1}

END_TO_END = (
    ("success_rate", "share"), ("ok_ms.p50", "ms"), ("ok_ms.p90", "ms"),
    ("solves_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def kernel_ms() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.eig(KERNEL_MATRIX)
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


class Loop:
    """Closed-loop client: times and checks operations and runs the reference
    kernel after every round.  A round is normalised by the mean of the kernel
    times just before and just after it, since the machine's speed changes
    between rounds."""

    def __init__(self, tracer=None):
        kernel_ms()  # the first call pays numpy's lazy set-up
        self.kernel = [kernel_ms()]  # one (median) kernel time per round boundary
        self.ok, self.unsolved = [], []  # (raw s, normalised s) per operation
        self.failed = 0  # operations that raised a package error
        self.tracer = tracer

    def next_kernel(self, round_s: float) -> float:
        """Time the kernel after a round of ``round_s`` seconds and return the
        round's scale.  Longer rounds get more kernel runs (1 to
        KERNEL_REPEATS, about KERNEL_SHARE of the round), of which the median
        counts, so that a few long rounds are not scaled by a noisy sample."""
        times = [kernel_ms()]
        while len(times) < KERNEL_REPEATS and sum(times) < KERNEL_SHARE * round_s * 1e3:
            times.append(kernel_ms())
        self.kernel.append(statistics.median(times))
        return 2 * REF_KERNEL_MS / (self.kernel[-2] + self.kernel[-1])

    def run_pass(self, rounds):
        for ops in rounds:
            done = []
            for op in ops:
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except workloads.package_error() as exc:
                    done.append((time.perf_counter() - t0, False))
                    self.failed += 1
                    print(f"operation failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                dt = time.perf_counter() - t0
                if self.tracer is not None:
                    with self.tracer.pause():
                        solved = op.check(result)
                else:
                    solved = op.check(result)
                done.append((dt, solved))
            scale = self.next_kernel(sum(dt for dt, _ in done))
            for dt, solved in done:
                (self.ok if solved else self.unsolved).append((dt, dt * scale))

    @property
    def attempted(self):
        return len(self.ok) + len(self.unsolved)

    @property
    def busy_s(self):
        return sum(t for t, _ in self.ok + self.unsolved)

    @property
    def busy_ref_s(self):
        return sum(t for _, t in self.ok + self.unsolved)


def environment() -> dict:
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "pinned_env": {v: os.environ[v] for v in PINNED_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def time_setups(name, seed, loop) -> list[dict]:
    """Set the workload up SETUP_REPEATS times in fresh processes."""
    probes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, str(seed)],
                              cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckFailed(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        probes.append({"wall_s": wall, "ref_s": wall * loop.next_kernel(wall), **phases})
    return probes


def _pct(values, q):
    return float(np.percentile(values, q)) if values else None


def end_to_end(work, loop, probes) -> tuple[dict, dict]:
    ok_raw = [raw * 1e3 for raw, _ in loop.ok]
    ok_ref = [ref * 1e3 for _, ref in loop.ok]
    fail_raw = [raw * 1e3 for raw, _ in loop.unsolved]
    fail_ref = [ref * 1e3 for _, ref in loop.unsolved]
    values = {
        "success_rate": len(loop.ok) / loop.attempted,
        "ok_ms.p50": _pct(ok_ref, 50),
        "ok_ms.p90": _pct(ok_ref, 90),
        "solves_per_s": loop.attempted / loop.busy_ref_s,
        "setup_s": statistics.median(p["ref_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "ok_ms.p50": _pct(ok_raw, 50), "ok_ms.p90": _pct(ok_raw, 90), "fail_ms.p50": _pct(fail_raw, 50),
        "solves_per_s": loop.attempted / loop.busy_s, "setup_s": statistics.median(p["wall_s"] for p in probes),
    }
    extra = {
        "fail_ms.p50": _pct(fail_ref, 50), "ok_samples": len(ok_ref), "fail_samples": len(fail_ref),
        "raw": raw, "setup_probes": probes, "setup_in_process_s": work.setup,
    }
    return values, extra


def print_table(args, loop, values, extra):
    n_ok, n_fail = extra["ok_samples"], extra["fail_samples"]
    ks = loop.kernel
    print(f"workload {args.workload}  seed {args.seed}  attempted {loop.attempted}  "
          f"solved {n_ok}  unsolved {n_fail}  failed {loop.failed}")
    print(f"reference kernel: median {statistics.median(ks):.3f} ms, min {min(ks):.3f}, max {max(ks):.3f}, "
          f"n={len(ks)}; times below are scaled to a {REF_KERNEL_MS} ms kernel round by round")
    ok_name = "cli_ms" if args.workload == "cli" else "ok_ms"
    rows = [
        ("success_rate", values["success_rate"], "share", None, loop.attempted),
        (f"{ok_name}.p50", values["ok_ms.p50"], "ms", extra["raw"]["ok_ms.p50"], n_ok),
        (f"{ok_name}.p90", values["ok_ms.p90"], "ms", extra["raw"]["ok_ms.p90"], n_ok),
        ("fail_ms.p50", extra["fail_ms.p50"], "ms", extra["raw"]["fail_ms.p50"], n_fail),
        ("solves_per_s", values["solves_per_s"], "1/s", extra["raw"]["solves_per_s"], loop.attempted),
        ("setup_s", values["setup_s"], "s", extra["raw"]["setup_s"], len(extra["setup_probes"])),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", None, None),
    ]
    print(f"{'metric':<16}{'value':>14}  {'unit':<6}{'raw':>14}{'samples':>9}")
    for name, v, unit, raw, n in rows:
        shown = "n/a" if v is None else f"{v:.6g}"
        raw_shown = "" if raw is None else f"{raw:.6g}"
        print(f"{name:<16}{shown:>14}  {unit:<6}{raw_shown:>14}{'' if n is None else n:>9}")
    if args.workload == "cli":
        print("(on cli an operation is one CLI process; cli_ms is reported as ok_ms)")


def run_untraced(args):
    work = workloads.prepare(args.workload, args.seed)
    loop = Loop()
    probes = time_setups(args.workload, args.seed, loop)
    # whole passes, never starting one that would likely end after the deadline
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        loop.run_pass(work.passes())
        passes += 1
        now = time.perf_counter()
        if now + (now - t0) - start > args.seconds:
            break
    values, extra = end_to_end(work, loop, probes)
    print_table(args, loop, values, extra)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    extra["passes"] = passes
    return loop, metrics, extra


def _child_records(files) -> list[dict]:
    return [json.loads(pathlib.Path(f).read_text()) for f in files]


def run_traced(args):
    from layers import COUNTS, SECONDS, Tracer

    workloads.import_package()
    traced_cli = workloads.CliCalls(traced=True)
    setup_tracer = Tracer()
    with setup_tracer.active():
        work = workloads.prepare(args.workload, args.seed, traced_cli)
    passes = TRACE_PASSES[args.workload]

    traced_cli.traced = False
    plain = Loop()
    for _ in range(passes):
        plain.run_pass(work.passes())

    traced_cli.traced = True
    tracer = Tracer()
    loop = Loop(tracer)
    loop.kernel = plain.kernel
    with tracer.active():
        for _ in range(passes):
            loop.run_pass(work.passes())
    record = tracer.record()
    children = _child_records(traced_cli.layer_files)
    for child in children:
        for key in record:
            record[key] += child[key]
    if args.workload != "cli":
        # one traced CLI call, so that the CLI layer is measured on every workload
        probe = workloads.CliCalls(traced=True)
        proc = probe.run(["seed", str(ROOT / "problems" / "path4.json"),
                          "--out", str(SCRATCH / "tmp" / "trace-seed.json")])
        if proc.returncode != 0:
            raise CheckFailed(f"traced seed call exited with {proc.returncode}")
        children = _child_records(probe.layer_files)
    s = loop.busy_ref_s / loop.busy_s  # the traced passes' mean kernel scale
    values = {}
    for name in COUNTS:
        values[name] = record[name] / passes
    trials = record["solver.trials"]
    values["solver.trial_accept_ratio"] = record["solver.newton.accepted_steps"] / trials if trials else 0.0
    for name in SECONDS:
        if name.startswith("cli."):
            continue
        values[name] = record[name] * s / passes
    values["problems.load_problem.s"] += setup_tracer.total["problems.load_problem"] * s
    for key in ("cli.import_s", "cli.main.s"):  # per CLI process
        values[key] = statistics.median(child[key] for child in children) * s
    values["trace.overhead_s"] = (loop.busy_ref_s - plain.busy_ref_s) / passes
    units = {name: "count" for name in COUNTS}
    units.update({name: "s" for name in SECONDS})
    units.update({"solver.trial_accept_ratio": "ratio", "trace.overhead_s": "s"})
    order = [*COUNTS, "solver.trial_accept_ratio", *SECONDS, "trace.overhead_s"]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in order}

    print(f"workload {args.workload}  seed {args.seed}  traced passes {passes}  "
          f"untraced {plain.busy_ref_s:.4f} s  traced {loop.busy_ref_s:.4f} s (scaled)  "
          f"overhead {100 * (loop.busy_ref_s / plain.busy_ref_s - 1):.1f}%")
    print(f"per pass; times scaled to the {REF_KERNEL_MS} ms reference kernel (x{s:.4f})")
    for name in order:
        print(f"{name:<36}{values[name]:>16.6g}  {units[name]}")
    extra = {"passes": passes, "untraced_busy_s": plain.busy_s, "traced_busy_s": loop.busy_s,
             "untraced_busy_ref_s": plain.busy_ref_s, "traced_busy_ref_s": loop.busy_ref_s,
             "raw_record": record, "setup_in_process_s": work.setup}
    loop.failed += plain.failed
    return loop, metrics, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not workloads.repo_is_complete():
        print(f"error: {ROOT} is not a structured-iep checkout (src/, problems/ or tests/ missing)",
              file=sys.stderr)
        return 2
    # the kernel must run on the CPU that runs the work, child processes included
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (SCRATCH / "results").mkdir(parents=True, exist_ok=True)
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)

    correct, error = True, None
    try:
        loop, metrics, extra = (run_traced if args.trace else run_untraced)(args)
    except CheckFailed as exc:
        correct, error = False, str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
        loop, metrics, extra = None, {}, {}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "error": error, "metrics": metrics,
        "kernel_ms": loop.kernel if loop else None, "ref_kernel_ms": REF_KERNEL_MS,
        "environment": environment(), **extra,
    }
    out = SCRATCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"record: {out.relative_to(ROOT)}  commit {detail['environment']['commit'][:12]}  "
          f"nproc {detail['environment']['nproc']}  BLAS threads {BLAS_THREADS}  "
          f"python {detail['environment']['python']}  numpy {detail['environment']['numpy']}  "
          f"scipy {detail['environment']['scipy']}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted if loop else 1,
        "failed": loop.failed if loop else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
