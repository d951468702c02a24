"""Benchmark of the prodfree CLI: one workload per run, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke --workload NAME --seed N --seconds 1 --trace 0

One process, one caller, no threads: each job is one `prodfree.cli.main`
call with stdout captured, and the next job starts when the last one ends.
The workload's job list runs as a pass, repeated until the next pass would
end after --seconds.  Every job's output is checked once, outside the timed
section, and later passes must reproduce it byte for byte.

Times are reported in reference seconds: each job's wall time is scaled by
the host's speed around it, measured with a fixed calibration kernel that a
timer runs every SAMPLE_EVERY_S seconds, inside the jobs too (see
`SpeedProbe`).  Raw wall times are printed above the result line.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the run spends half its time untraced and half with every public
prodfree function wrapped, and reports the per-module metrics.  The program
is imported from src/ next to this directory; without it the run fails
before measuring anything.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("search", "limits", "automata", "explicit")
SETUPS = 7          # set-ups timed per run; setup_s is their median
MIN_PASSES = 3      # repeats of each job, at the least
SAMPLE_EVERY_S = 0.05  # period of the speed probe's timer
MIN_WINDOW_S = 1.0  # least span of probe samples that scales one job
SETUP_SAMPLES = 10  # kernel runs around each timed set-up
# Seconds the calibration kernel takes at reference speed: its time in the
# slow phase of the 2-vCPU host the baseline was recorded on (0.65 ms in
# the fast phase).
REFERENCE_KERNEL_S = 0.0011


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, same jobs and checks")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _kernel() -> int:
    """A fixed mix of the interpreter work prodfree does: small-int list
    updates, big-integer fractions, string parsing.  It builds no sets or
    dicts: timed inside long jobs, their allocation made the samples spread
    twice as much as the jobs' own times, and the scaled times followed."""
    cells = [0] * 64
    acc = 0
    for i in range(3000):
        cells[i & 63] += i
        acc += cells[(i * 7) & 63] & 1023
    f = Fraction(0)
    for n in range(1, 60):
        f += Fraction(n, 3**n)
    text = ",".join(str(i) for i in range(800))
    acc += sum(int(t) for t in text.split(","))
    return acc + f.denominator % 7


def speed_sample() -> float:
    """Reference seconds per wall second right now: the reference kernel
    time over the mean of SETUP_SAMPLES kernel runs."""
    took = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        _kernel()
        took.append(time.perf_counter() - start)
    return REFERENCE_KERNEL_S / statistics.fmean(took)


class SpeedProbe:
    """The host's speed, sampled on a timer while the jobs run.

    The shared hosts this runs on switch between a fast and a slow speed
    every 10-100 ms (the kernel takes 1.6 times as long in the slow one),
    and the share of slow time drifts over seconds and minutes, so the same
    job measured twice differs by more than any useful bound.  A SIGALRM
    handler runs the calibration kernel every SAMPLE_EVERY_S seconds, in
    the middle of a job as well as between jobs, so the mean of the samples
    taken during a job tracks the slow share that job saw.  The time spent
    in the handler is kept, to be taken out of job times."""

    def __init__(self) -> None:
        self.at: list[float] = []     # when each kernel run started
        self.took: list[float] = []   # how long it took
        self.spent = 0.0

    def tick(self, *_) -> None:
        start = time.perf_counter()
        _kernel()
        self.took.append(time.perf_counter() - start)
        self.at.append(start)
        self.spent += time.perf_counter() - start

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per wall second from start to end, over the
        samples in that span widened evenly to at least MIN_WINDOW_S."""
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        lo = bisect.bisect_left(self.at, start - pad)
        hi = max(bisect.bisect_right(self.at, end + pad), lo + 1)
        lo = min(lo, hi - 1)
        return REFERENCE_KERNEL_S / statistics.fmean(self.took[lo:hi])

    def __enter__(self) -> "SpeedProbe":
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()


def import_program():
    src = ROOT / "src"
    if not (src / "prodfree" / "__init__.py").is_file():
        sys.exit(f"error: no prodfree sources under {src}")
    sys.path.insert(0, str(src))
    import prodfree
    if Path(prodfree.__file__).resolve().parent != src / "prodfree":
        sys.exit(f"error: imported prodfree from {prodfree.__file__}, not {src}")


def build(args, workdir: Path):
    """Set-up: import the program and write the seed-derived inputs."""
    import_program()
    import workloads
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    return workloads.WORKLOADS[args.workload](args.workload, args.seed, scale).jobs()


def time_setups(args, count: int) -> tuple[list[float], list[float]]:
    """(reference, raw) seconds from process start to ready-for-the-first-
    job, per fresh interpreter running the set-up alone."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    ref, raw = [], []
    for _ in range(count):
        before = speed_sample()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line != "ready\n":
            sys.exit("error: set-up failed")
        ref.append(raw[-1] * (before + speed_sample()) / 2)
    return ref, raw


class Runner:
    """Runs passes over the job list and checks each job's first output."""

    def __init__(self, jobs, run_cli, check_error):
        if len({job.id for job in jobs}) != len(jobs):
            raise ValueError("job ids must be unique")
        self.jobs = jobs
        self.run_cli = run_cli
        self.check_error = check_error
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, probe: SpeedProbe, tracer=None, tag="") -> dict:
        """(start, end, seconds without the probe's time) per job id, for
        one pass over the job list."""
        times = {}
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{tag}{job.id}"
            before = probe.spent
            start = time.perf_counter()
            rc, out, err = self.run_cli(job.argv)
            end = time.perf_counter()
            if tracer is not None:
                tracer.job = None
            times[job.id] = (start, end, end - start - (probe.spent - before))
            self.attempted += 1
            self._verify(job, rc, out, err)
        return times

    def _verify(self, job, rc: int, out: str, err: str) -> None:
        h = hashlib.sha256(f"{rc}\0{out}".encode())
        for name in job.outputs:
            h.update(b"\0" + Path(name).read_bytes())
        digest = h.hexdigest()
        if job.id not in self.digests:
            self.digests[job.id] = digest
            try:
                job.check(rc, out)
                self.verdicts[job.id] = None
            except self.check_error as exc:
                self.verdicts[job.id] = str(exc)
            except Exception as exc:  # malformed output: record, keep running
                self.verdicts[job.id] = f"{type(exc).__name__}: {exc}"
            if self.verdicts[job.id] is not None and err:
                self.verdicts[job.id] += f" (stderr: {err.strip()[:200]})"
            problem = self.verdicts[job.id]
        elif digest != self.digests[job.id]:
            problem = "output differs from this job's first run"
        else:
            problem = self.verdicts[job.id]
        if problem is not None:
            self.failures.append(f"{job.id}: {problem}")

    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(f"{job.id} {self.digests[job.id]}\n".encode())
        return h.hexdigest()


class Passes:
    """Per-pass job times: raw wall seconds and reference seconds."""

    def __init__(self) -> None:
        self.raw: list[dict[str, float]] = []
        self.ref: list[dict[str, float]] = []
        self.reports: list = []

    def walls(self, ref: bool = True) -> list[float]:
        return [sum(p.values()) for p in (self.ref if ref else self.raw)]

    def job_medians(self) -> list[float]:
        """Each job's median reference time over the passes."""
        return [statistics.median(p[j] for p in self.ref) for j in self.ref[0]]


def measure(runner: Runner, budget: float, tracer=None, min_passes: int = 1) -> Passes:
    """Whole passes until the next one would end after the budget.  Each
    job's time is scaled by the probe's samples around it once all passes
    have run, so that the window of the last job of a pass can reach into
    the next."""
    out = Passes()
    runs, traces = [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            gc.collect()
            began = time.perf_counter()
            tag = f"p{len(runs)}:"
            if tracer is not None:
                tracer.begin_pass()
            runs.append(runner.run_pass(probe, tracer, tag))
            if tracer is not None:
                traces.append(tracer.pass_report())
            now = time.perf_counter()
            if len(runs) >= min_passes and now - start + (now - began) > budget:
                break
    for i, times in enumerate(runs):
        speed = {j: probe.speed(a, b) for j, (a, b, _) in times.items()}
        out.raw.append({j: t for j, (_, _, t) in times.items()})
        out.ref.append({j: t * speed[j] for j, (_, _, t) in times.items()})
        if tracer is not None:
            # Spans hold the probe's time too, spread over them as it ran:
            # take out the job's share of it along with the scaling.
            self_by_job, counts = traces[i]
            self_s = defaultdict(float)
            for j, (a, b, t) in times.items():
                for m, sec in self_by_job.get(f"p{i}:{j}", {}).items():
                    self_s[m] += sec * speed[j] * t / (b - a)
            out.reports.append((self_s, counts))
    return out


def end_to_end(setups: tuple[list[float], list[float]], passes: Passes):
    medians = passes.job_medians()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(passes.raw)
    raw_setup = statistics.median(setups[1])
    raw_wall = statistics.median(passes.walls(ref=False))
    metrics = {
        "setup_s": (statistics.median(setups[0]), "s",
                    f"median of {len(setups[0])} set-ups (raw {raw_setup:.6f} s)"),
        "wall_s": (statistics.median(passes.walls()), "s",
                   f"median of {n} passes (raw {raw_wall:.6f} s)"),
        "job_p50_s": (statistics.median(medians), "s",
                      f"median of {len(medians)} jobs' medians over {n} passes"),
        "job_tail_s": (max(medians), "s",
                       f"slowest of {len(medians)} jobs by median over {n} passes"),
        "peak_rss_mib": (rss, "MiB", "ru_maxrss of this process"),
    }
    lines = [f"  {k:<13} {v:12.6f} {u:<4} {note}" for k, (v, u, note) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(tracing, untraced: Passes, traced: Passes, failures: list[str]):
    reports = traced.reports
    counts = reports[0][1]
    if any(r[1] != counts for r in reports[1:]):
        failures.append("trace: counters differ between passes")
    metrics: dict[str, tuple] = {}
    for m in tracing.MODULES:
        metrics[f"{m}.self_s"] = (statistics.median(r[0][m] for r in reports), "s")
        metrics[f"{m}.calls"] = (counts[f"{m}.calls"], "count")
    for m, names in tracing.COUNTERS.items():
        for c in names:
            if c != "probes_qualified":
                metrics[f"{m}.{c}"] = (counts[f"{m}.{c}"], "count")
    search_s = metrics["search.self_s"][0]
    metrics["search.nodes_per_s"] = (
        counts["search.nodes"] / search_s if search_s else 0.0, "1/s")
    probed = counts["proofkit.windows_probed"]
    metrics["proofkit.probe_hit_ratio"] = (
        counts["proofkit.probes_qualified"] / probed if probed else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(traced.walls()) - statistics.median(untraced.walls()), "s")
    lines = [f"  {k:<28} {v:>16.6f} {u}" if isinstance(v, float)
             else f"  {k:<28} {v:>16d} {u}" for k, (v, u) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exit, so the work directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if args.setup_only:
        try:
            build(args, workdir)
            print("ready", flush=True)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setups = time_setups(args, 1 if args.smoke else SETUPS)
    try:
        jobs = build(args, workdir)
        import tracing
        import workloads
        runner = Runner(jobs, workloads.run_cli, workloads.CheckError)
        if not args.trace:
            timed = measure(runner, args.seconds,
                            min_passes=1 if args.smoke else MIN_PASSES)
            metrics, lines = end_to_end(setups, timed)
            passes = len(timed.raw)
        else:
            untraced = measure(runner, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(runner, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics, lines = per_layer(tracing, untraced, traced, runner.failures)
            passes = len(untraced.raw) + len(traced.raw)
            spans = RUNS / f"spans-{args.workload}-s{args.seed}.jsonl"
            tracer.write_spans(spans)
            lines.append(f"  spans written to {spans.relative_to(ROOT)}")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes}  jobs/pass {len(jobs)}")
    print(f"  attempted {runner.attempted}  failed {failed}  "
          f"fail_ratio {failed / runner.attempted:.6f}")
    print("\n".join(lines))
    print(f"  outputs sha256 {runner.outputs_digest()}")
    for msg in runner.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
