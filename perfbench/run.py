"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run starts the workload in a
fresh interpreter (child.py) with the checkout's ``src`` on PYTHONPATH, so
the measured process, its pool workers and its resident high-water mark
belong to that workload alone. Set-up time is the span from starting an
interpreter to the child's READY line, taken over several fresh starts.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of one traced batch. Every run
also appends a record, host calibration included, to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_cmd(args, workdir: Path, setup_only: bool) -> list:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spans", str(OUT / f"spans-{args.workload}.bin")]
    return cmd + (["--setup-only"] if setup_only else [])


def start_child(cmd, env, deadline: float):
    """Start a child and wait for READY. Returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY" or time.perf_counter() > deadline:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child did not become ready (exit {proc.returncode})")
    return proc, setup


def time_setup(args, env, workdir: Path, deadline: float) -> float:
    proc, setup = start_child(child_cmd(args, workdir, True), env, deadline)
    proc.communicate()
    return setup


def nearest_rank(values, q: float) -> int:
    """Index into values of the nearest-rank q-th percentile."""
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = max(1, -(-len(order) * q // 100))
    return order[int(rank) - 1]


def request_latencies(raw: dict, workload: str) -> tuple[list, list]:
    """(latencies, request kinds). Every session request is a sample. On a
    batch workload the request is the whole batch, the job its user waits
    for: one of its few commands, timed two or three times in a run, would
    sample only seconds of a host whose speed shifts every few tens of
    seconds."""
    if workload != "session":
        return raw["walls"], ["batch"] * len(raw["walls"])
    lat, kinds = raw["latencies"], raw["kinds"]
    return lat, [kinds[i % len(kinds)] for i in range(len(lat))]


def request_mix(lat: list, kinds: list) -> str:
    """Which kind of request sits at p50 and at p99, and each kind's share
    of the requests and of their time."""
    total = sum(lat)
    shares = []
    for kind in sorted(set(kinds)):
        mine = [t for t, k in zip(lat, kinds) if k == kind]
        shares.append(f"{kind} {len(mine) / len(lat):.0%}/{sum(mine) / total:.0%}")
    return (f"p50 request: {kinds[nearest_rank(lat, 50)]}, p99 request: "
            f"{kinds[nearest_rank(lat, 99)]}; share of requests/time: {', '.join(shares)}")


def end_to_end(raw: dict, setups: list, lat: list) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(raw["walls"]), "s"),
        "cpu_s": (statistics.median(raw["cpus"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
        "req_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "req_p99_ms": (lat[nearest_rank(lat, 99)] * 1000, "ms"),
        "req_per_s": (len(lat) / sum(raw["walls"]), "1/s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    src = ROOT / "src"
    if not (src / "magma_lab" / "cli.py").is_file():
        return fail(f"no magma_lab sources under {src}; run from the root of a checkout")

    # A fixed hash seed gives every run the same dict and set layouts.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]), PYTHONHASHSEED="0")
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = HERE / "_work" / str(os.getpid())
    proc = None
    try:
        # The first start also compiles bytecode and is not timed. Timed
        # starts are split around the measured run, so host drift during
        # the run reaches set-up time as it does the other metrics.
        sample = 0 if args.trace else SETUP_SAMPLES // 2
        setups = [time_setup(args, env, workdir / f"setup{i}", deadline) for i in range(sample + 1)][1:]
        proc, setup = start_child(child_cmd(args, workdir / "run", False), env, deadline)
        setups.append(setup)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            return fail(f"workload process exited with {proc.returncode}")
        raw = json.loads(out.strip().splitlines()[-1])
        setups += [time_setup(args, env, workdir / f"after{i}", deadline) for i in range(sample)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(str(exc))
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    lat, kinds = request_latencies(raw, args.workload)
    if args.trace:
        metrics = {k: (v, raw["units"][k]) for k, v in raw["layers"].items()}
    else:
        metrics = end_to_end(raw, setups, lat)
    for err in raw["errors"]:
        print(f"FAILED {err}")
    mix = request_mix(lat, kinds)
    print(f"{args.workload} seed={args.seed}: {len(raw['walls'])} batches of "
          f"{raw['ops_per_batch']} ops, {len(lat)} request latency samples, "
          f"host calibration {raw['calibration_s'] * 1000:.2f} ms")
    print(mix)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "time": time.time(), "calibration_s": raw["calibration_s"],
            "setup_samples": setups, "walls": raw["walls"], "cpus": raw["cpus"],
            "latency_samples": len(lat), "request_mix": mix, "attempted": raw["attempted"],
            "failed": raw["failed"], "errors": raw["errors"],
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }) + "\n")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
