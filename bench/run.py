"""Benchmark of the sheafspectra workbench: one workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh process driving one workload as a closed loop with
one client: the next operation starts when the previous one has ended
and its output has been checked.  Operations run in whole rounds until
S seconds of wall time have been spent inside them and at least MIN_OPS
have run; a workload whose round is one pass over distinct inputs
(enumerate) runs exactly one round, so that every run, and every
version of the program, measures the same inputs.  Timings are CPU time
scaled by a speed gauge (see cpu_clock and SpeedGauge), so that the
host's load moves them as little as can be.
With --trace 0 the end-to-end metrics are printed; with --trace 1 the
run is split into an untraced and a traced half and the per-layer
metrics of the traced half are printed.  The last line of standard
output is one JSON object; the lines before it are a readable summary.
See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from math import ceil
from time import perf_counter, process_time

import oracles
import spans
from workloads import ROOT, SRC, WORKLOADS, write_cli_files

MIN_OPS = 100  # so that at least ten samples lie above op_p90_ms
SETUP_PROBES = 11
IMPORT_PROBES = 7

# a fresh interpreter's session set-up: import the package, load the catalog
SETUP_PROBE = (
    "import time; t0 = time.process_time(); import sheafspectra; "
    "sheafspectra.catalog_load(); t1 = time.process_time(); "
    "print(t1 - t0); print(sheafspectra.__file__)"
)


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The workloads are single-threaded and CPU-bound, and run one
    operation at a time, so on an idle host an operation's CPU time is
    its wall time.  On a shared host the wall time also counts the time
    the process waited for a CPU: other tenants stall it for 10-50 ms
    many times a second, at random, which moves op_p90_ms and
    ops_per_s by tens of percent between runs.  CPU time leaves those
    stalls out.  Work moved to a child process counts once the child
    has been waited for; work moved to other threads counts as well,
    so spreading an operation over several CPUs shows no gain here.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _reference_work() -> list:
    # fixed pure-Python work of the kinds sheafspectra does: a recursive
    # walk over nondecreasing tuples under a sum bound, tuple keys, dict
    # updates and a sort
    found: list[tuple] = []
    prefix: list[int] = []

    def walk(total: int, m: int, top: int) -> None:
        if len(prefix) == m:
            if -6 <= total <= 0:
                found.append(tuple(prefix))
            return
        for v in range(prefix[-1] if prefix else -m, top + 1):
            if total + v * (m - len(prefix)) > 0:
                break
            prefix.append(v)
            walk(total + v, m, top)
            prefix.pop()

    walk(0, 4, 4)
    rows: dict = {}
    for key in found:
        rows[key[:2]] = rows.get(key[:2], 0) + sum(key)
    return sorted(rows.items())


def _bare_start() -> None:
    # a fresh interpreter that imports nothing of sheafspectra
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)


class SpeedGauge:
    """Measures the host's current speed, so that timings can be scaled.

    On a shared host a CPU can run at two thirds of its speed or less,
    switching every second or so while other tenants load it.  That
    moves the CPU time of one operation by tens of percent, and the
    medians of whole runs by up to a third.  The gauge times a fixed
    reference that runs no sheafspectra code: before an operation,
    whenever INTERVAL seconds have passed since its last sample, and
    once more at the end of a phase.  A periodic (in-process) gauge
    also samples every PERIOD seconds while sampling() is active, from
    a SIGALRM handler that runs between the operation's own bytecodes,
    so that long operations are gauged while they run.  cpu_now() leaves
    out the CPU time of the samples, so that an operation they
    interrupted is not charged for them.

    An operation's CPU time is multiplied by (nominal_s / m) ** exponent,
    where m is the median of the samples taken during the operation and
    the WINDOW taken last before and first after it.  The result is the
    time the operation would take on a host where the reference takes
    `nominal_s`.

    Work in this process is gauged by a pure-Python loop
    (in_process()), work in child processes by a bare interpreter's
    start (for_children()).  A child process's start did not follow the
    loop's speed: on the 2-core host of the baseline the loop widened
    the spread of cli timings between runs, while the bare start
    narrowed it to a few percent.
    """

    INTERVAL = 0.02
    PERIOD = 0.01
    WINDOW = 2

    def __init__(self, reference, nominal_s: float, periodic: bool, exponent: float = 1.0):
        self.reference = reference
        self.nominal_s = nominal_s
        self.periodic = periodic
        self.exponent = exponent
        self.stamps: list[float] = []  # perf_counter() at the end of each sample
        self.times: list[float] = []  # the reference's CPU time in each sample
        self.spent = 0.0
        self._measuring = False

    @classmethod
    def in_process(cls) -> "SpeedGauge":
        # 0.4 ms is about the loop's median on the 2-core host of the
        # baseline.  When that host's CPU is fast, the loop speeds up a
        # little more than sheafspectra code does; of the exponents
        # 0.6-1.1, 0.8 gave repeated enumerate classes the least spread
        # between runs and 0.9-1.0 repeated roundtrip and catalog
        # operations the least spread over time, hence 0.9.
        return cls(_reference_work, 0.0004, periodic=True, exponent=0.9)

    @classmethod
    def for_children(cls) -> "SpeedGauge":
        # about a bare start's median CPU time on the same host
        return cls(_bare_start, 0.07, periodic=False)

    def measure(self) -> None:
        if self._measuring:  # a timer sample arriving during another sample
            return
        self._measuring = True
        start = cpu_clock()
        self.reference()
        seconds = cpu_clock() - start
        self.stamps.append(perf_counter())
        self.times.append(seconds)
        self.spent += seconds
        self._measuring = False

    def cpu_now(self) -> float:
        """cpu_clock(), less the CPU time of this gauge's samples."""
        return cpu_clock() - self.spent

    def mark(self) -> None:
        """Take a sample if the last one is older than INTERVAL."""
        if not self.stamps or perf_counter() - self.stamps[-1] >= self.INTERVAL:
            self.measure()

    @contextmanager
    def sampling(self):
        """Sample every PERIOD seconds of wall time as well, if periodic."""
        if not self.periodic:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.measure())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """seconds of CPU time of work done between perf_counter() start and end."""
        first = bisect_left(self.stamps, start)
        after = bisect_right(self.stamps, end)
        nearest = self.times[max(0, first - self.WINDOW):after + self.WINDOW]
        return seconds * (self.nominal_s / statistics.median(nearest)) ** self.exponent

    def summary(self) -> str:
        q1, q2, q3 = statistics.quantiles(self.times, n=4, method="inclusive")
        return (f"speed gauge ({self.reference.__name__}): {len(self.times)} samples, "
                f"median {q2 * 1e3:.4f} ms, quartiles {q1 * 1e3:.4f} and {q3 * 1e3:.4f} ms, "
                f"nominal {self.nominal_s * 1e3:.4f} ms")


class Phase:
    """Latencies and outcomes of one closed-loop phase."""

    def __init__(self):
        # per operation, in arrays so that they add little to peak_rss_mb:
        self.walls = array("d")  # wall time
        self.cpus = array("d")  # CPU time (cpu_clock)
        self.starts = array("d")  # perf_counter() at its start
        self.ends = array("d")  # and at its end
        self.known: Counter = Counter()
        self.failures: list[str] = []
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def busy(self) -> float:
        return sum(self.walls)

    def latencies(self, gauge: SpeedGauge) -> list[float]:
        """Scaled CPU time of each operation."""
        return [gauge.scaled(*op) for op in zip(self.cpus, self.starts, self.ends)]


def run_phase(workload, rounds, seconds: float, gauge: SpeedGauge) -> Phase:
    with gauge.sampling():
        return _run_phase(workload, rounds, seconds, gauge)


def _run_phase(workload, rounds, seconds: float, gauge: SpeedGauge) -> Phase:
    phase = Phase()
    busy = 0.0
    for ops in rounds:
        for op in ops:
            gauge.mark()
            start, cpu_start = perf_counter(), gauge.cpu_now()
            try:
                result = workload.call(op)
            except Exception as error:  # every failure is counted, none stops the run
                cpu = gauge.cpu_now() - cpu_start
                end = perf_counter()
                label = workload.failure_label(error, op)
                if op.known is not None and label == op.known:
                    phase.known[label] += 1
                else:
                    phase.failures.append(f"{op.key()}: {label}: {error}")
            else:
                cpu = gauge.cpu_now() - cpu_start
                end = perf_counter()
                try:
                    workload.check(op, result)
                except oracles.CheckFailed as failure:
                    phase.failures.append(f"{op.key()}: {failure}")
            phase.walls.append(end - start)
            busy += end - start
            phase.cpus.append(cpu)
            phase.starts.append(start)
            phase.ends.append(end)
        phase.rounds += 1
        if workload.whole_pass or (busy >= seconds and phase.attempted >= MIN_OPS):
            gauge.measure()
            return phase
    raise AssertionError("workload rounds are infinite")


def pin_one_cpu() -> None:
    """Keep this process and the children it starts on one allowed CPU.

    The speed gauge measures the CPU it runs on; an operation that the
    scheduler moved to another CPU would run at that CPU's speed.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_samples(count: int, gauge: SpeedGauge) -> list[float]:
    """Scaled set-up CPU time of `count` fresh interpreters, each checked to import src/."""
    probes, seconds = [], []
    for _ in range(count):
        gauge.mark()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True)
        probes.append((start, perf_counter()))
        cpu, location = proc.stdout.split("\n")[:2]
        if not location.startswith(str(SRC)):
            raise RuntimeError(f"probe imported sheafspectra from {location}")
        seconds.append(float(cpu))
    gauge.measure()
    return [gauge.scaled(t, *probe) for t, probe in zip(seconds, probes)]


def import_ms(count: int) -> float:
    """Median CPU time of `import sheafspectra.cli` over a bare interpreter."""
    bare, cli = [], []
    for _ in range(count):
        for code, out in (("pass", bare), ("import sheafspectra.cli", cli)):
            start = cpu_clock()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
            out.append(cpu_clock() - start)
    return (statistics.median(cli) - statistics.median(bare)) * 1e3


def end_to_end(phase: Phase, latencies: list[float], setup: list[float], rss_kb: int) -> dict:
    ordered = sorted(latencies)
    known = sum(phase.known.values())
    ok = phase.attempted - known - len(phase.failures)
    return {
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_p90_ms": (ordered[ceil(0.9 * len(ordered)) - 1] * 1e3, "ms"),
        "ok_rate": (ok / phase.attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def summary(args, phases: list[Phase], metrics: dict, extra: list[str]) -> list[str]:
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    for label, phase in zip(("untraced", "traced"), phases):
        known = sum(phase.known.values())
        errors = known + len(phase.failures)
        lines.append(
            f"{label}: {phase.attempted} ops in {phase.rounds} rounds, "
            f"{phase.busy:.2f} s inside operations"
        )
        lines.append(
            f"  error_rate {errors / phase.attempted:.4f} = ({known} known + "
            f"{len(phase.failures)} unexpected) / {phase.attempted} attempted"
        )
        for name, count in sorted(phase.known.items()):
            lines.append(f"  known failure {name}: {count}")
        for failure in phase.failures[:10]:
            lines.append(f"  FAILED {failure}")
    lines += extra
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    return lines


def load_package():
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("sheafspectra")
    if not lib.__file__.startswith(str(SRC)):
        raise RuntimeError(f"sheafspectra imported from {lib.__file__}, not {SRC}")
    return lib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sheafspectra" / "__init__.py").is_file():
        print(f"error: no sheafspectra sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    rounds = workload.rounds(args.seed)
    if args.workload == "cli":
        write_cli_files()
        workload.in_process = bool(args.trace)
    lib = load_package()
    workload.bind(lib, lib.catalog_load())

    pin_one_cpu()
    gauge = SpeedGauge.in_process() if workload.in_process else SpeedGauge.for_children()
    extra = []
    if not args.trace:
        phase = run_phase(workload, rounds, args.seconds, gauge)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_kb = resource.getrusage(who).ru_maxrss
        setup_gauge = SpeedGauge.for_children()
        setup = setup_samples(SETUP_PROBES, setup_gauge)
        metrics = end_to_end(phase, phase.latencies(gauge), setup, rss_kb)
        phases = [phase]
        extra.append(f"{phase.attempted - ceil(0.9 * phase.attempted)} samples above op_p90_ms")
        walls = sorted(phase.walls)
        extra.append(f"wall time, unscaled: ops_per_s {len(walls) / sum(walls):.6g}, "
                     f"op_p50_ms {statistics.median(walls) * 1e3:.6g}, "
                     f"op_p90_ms {walls[ceil(0.9 * len(walls)) - 1] * 1e3:.6g}")
        extra.append("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
        extra.append(setup_gauge.summary())
    else:
        untraced = run_phase(workload, rounds, args.seconds / 2, gauge)
        recorder = spans.Recorder()
        recorder.patch(lib)
        try:
            traced = run_phase(workload, rounds, args.seconds / 2, gauge)
        finally:
            recorder.restore()
        metrics = recorder.metrics()
        metrics["cli.import_ms"] = (import_ms(IMPORT_PROBES), "ms")
        ratio = ((traced.attempted / sum(traced.latencies(gauge)))
                 / (untraced.attempted / sum(untraced.latencies(gauge))))
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        phases = [untraced, traced]
        self_total = sum(v for k, (v, _) in metrics.items()
                         if k.count(".") == 1 and k.endswith(".self_ms"))
        extra.append(f"traced: {recorder.span_count()} spans, layer self_ms sum "
                     f"{self_total:.1f} ms of {traced.busy * 1e3:.1f} ms traced wall time")
    extra.append(gauge.summary())
    failed = sum(len(p.failures) for p in phases)
    attempted = sum(p.attempted for p in phases)
    for line in summary(args, phases, metrics, extra):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
