"""The measured process: one workload, in-process through magma_lab.cli.main.

Started by run.py with magma_lab's sources on PYTHONPATH. It builds the
workload's inputs, prints READY (the end of set-up), then runs whole
batches of ops until the time budget is spent, checking every output
outside the timed region. With --setup-only it stops after READY. The
last stdout line is a JSON object of raw measurements for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from magma_lab import cli  # part of set-up: imports the CLI and every layer

import tracing
import workloads

MAX_ERRORS_REPORTED = 5


class Sink(io.TextIOBase):
    """Stands in for stdout: hashes everything written and keeps either the
    whole text or, for huge outputs, only its tail. Writes are buffered and
    hashed a block at a time, which keeps the per-write cost in the timed
    region to a list append."""

    BLOCK = 4096

    def __init__(self, keep: bool):
        self._hash = hashlib.sha256()
        self._keep = keep
        self._pending = []
        self._parts = []

    def write(self, s: str) -> int:
        pending = self._pending
        pending.append(s)
        if len(pending) >= self.BLOCK:
            self._flush()
        return len(s)

    def _flush(self) -> None:
        block = "".join(self._pending)
        self._pending.clear()
        self._hash.update(block.encode())
        if self._keep:
            self._parts.append(block)
        else:
            self._parts = [block[-4096:]]

    def text(self) -> str:
        self._flush()
        return "".join(self._parts)

    def digest(self) -> str:
        self._flush()
        return self._hash.hexdigest()


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a record of host speed."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _cpu() -> float:
    """User plus system time of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def peak_rss_kb() -> int:
    """High-water resident size of this process plus its largest reaped
    pool worker. Taken after the first batch, so it does not depend on how
    many batches fit in the time budget."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_op(op) -> tuple[float, float, str | None]:
    """(wall seconds, cpu seconds, error or None) for one CLI call."""
    out, err = Sink(op.keep_text), Sink(True)
    c0 = _cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a crash or argparse exit is a failed op
        elapsed, cpu = time.perf_counter() - t0, _cpu() - c0
        return elapsed, cpu, f"{' '.join(op.argv)}: raised {exc!r}"
    elapsed, cpu = time.perf_counter() - t0, _cpu() - c0
    problem = op.check(rc, out.text(), out.digest())
    if problem is not None:
        stderr = err.text().strip()
        problem = f"{' '.join(op.argv)}: {problem}" + (f" (stderr: {stderr})" if stderr else "")
    return elapsed, cpu, problem


class Batches:
    """Accumulates per-batch and per-op measurements."""

    def __init__(self):
        self.walls, self.cpus, self.latencies = [], [], []
        self.attempted = self.failed = 0
        self.errors = []
        self.peak_rss_kb = None

    def run(self, ops) -> float:
        wall = cpu = 0.0
        for op in ops:
            elapsed, used, problem = run_op(op)
            wall += elapsed
            cpu += used
            self.latencies.append(elapsed)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS_REPORTED:
                    self.errors.append(problem)
        self.walls.append(wall)
        self.cpus.append(cpu)
        if self.peak_rss_kb is None:
            self.peak_rss_kb = peak_rss_kb()
        return wall


def measure(ops, seconds: float) -> Batches:
    """Whole batches while the next one is expected to fit in the budget."""
    b = Batches()
    spent = 0.0
    while True:
        spent += b.run(ops)
        if spent + statistics.median(b.walls) > seconds:
            return b


def measure_traced(ops, out_path: Path) -> tuple[Batches, dict]:
    """One untraced batch, then one traced batch; spans are written after."""
    b = Batches()
    untraced = b.run(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = b.run(ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced, untraced)
    tracer.write(out_path)
    return b, metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    calibration = calibrate()
    if args.trace:
        b, layers = measure_traced(ops, args.spans)
    else:
        b, layers = measure(ops, args.seconds), None
    print(json.dumps({
        "walls": b.walls,
        "cpus": b.cpus,
        "latencies": b.latencies,
        "ops_per_batch": len(ops),
        "kinds": [op.argv[0] for op in ops],
        "attempted": b.attempted,
        "failed": b.failed,
        "errors": b.errors,
        "peak_rss_kb": b.peak_rss_kb,
        "calibration_s": calibration,
        "layers": layers,
        "units": {k: tracing.unit(k) for k in layers or ()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
