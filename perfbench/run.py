#!/usr/bin/env python3
"""opuckit benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (it imports opuckit from ./src).  The
workload's ops run in whole rounds until --seconds is spent, every op's
output is checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).  A result
file with provenance goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Each workload runs single-threaded; numpy reads these when it is first imported.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

from tracing import PER_LAYER, REPEAT_KEYS, SPANS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
COLD_STARTS = 9
WARMUP_SEED_OFFSET = 1_000_003

SAMPLE_EVERY_S = 0.1  # wall time between two calibration samples during the rounds
SCALE_WINDOW_S = 0.05  # an op is scaled by the samples taken within this much of it

COLD_START_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import opuckit; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
# The calibration of setup_s: the same cold start without opuckit, so a fresh
# interpreter importing numpy, which no change to the program moves.
CALIBRATION_START_CODE = "import numpy"
# Its median wall time on the machine the README figures come from.
CALIBRATION_START_REF_S = 0.125


class Sampler:
    """Calibration samples every SAMPLE_EVERY_S of wall time, taken by a timer signal.

    The machine's speed swings with the load of other jobs on its host, by up
    to 1.7x in phases of about a second and 2x over minutes.  The calibration
    work is of the same kind as the workload's ops but is the benchmark's own
    code, so no change to the program moves it; sampled in the middle of the
    ops, it tracks the speed each op ran at.  `stolen` is the total time
    spent sampling, which the op timings leave out.
    """

    def __init__(self, work):
        self.work = work
        self.samples = []  # (perf_counter at the start, wall time of the work)
        self.stolen = 0.0

    def _take(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1 - t0))
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """Mean calibration time of the samples within SCALE_WINDOW_S of [start, end]."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - SCALE_WINDOW_S)
        hi = bisect.bisect_right(times, end + SCALE_WINDOW_S)
        if lo == hi:  # no sample in the window: the last one before it
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        return statistics.fmean(c for _, c in self.samples[lo:hi])


def cold_starts(count: int) -> dict:
    """Cold starts of a fresh interpreter importing opuckit, each after a calibration start.

    setup_s is the median over the pairs of start / calibration start, at
    the reference speed; the import split is measured inside the starts.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", COLD_START_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)  # writes bytecode once
    walls, calibrations, numpy_s, opuckit_s = [], [], [], []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CALIBRATION_START_CODE], env=env, cwd=ROOT, check=True)
        t1 = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        walls.append(time.perf_counter() - t1)
        calibrations.append(t1 - t0)
        a, b = done.stdout.split()
        numpy_s.append(float(a))
        opuckit_s.append(float(b))
    ratio = statistics.median(w / c for w, c in zip(walls, calibrations))
    return {
        "setup_s": ratio * CALIBRATION_START_REF_S,
        "setup.numpy_import_s": statistics.median(numpy_s),
        "setup.opuckit_import_s": statistics.median(opuckit_s),
        "wall_s": walls,
        "calibration_s": calibrations,
    }


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import opuckit

    digest = hashlib.sha256()
    for path in sorted((SRC / "opuckit").rglob("*.py")):
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unavailable (not a git checkout)"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "opuckit_version": opuckit.__version__,
        "kernel_backend": opuckit.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_rounds(ops, seconds: float, tracer, sampler):
    """Whole rounds of the ops, ending at the round boundary nearest to `seconds`.

    Every op's output is checked; an output equal to the one already checked
    for that op keeps its verdict, so later rounds cost little besides the
    ops.  Each op starts from a full collection, as a fresh CLI process
    would, so it meets the same collector state in every round.  Returns
    per-op lists of (start, wall time less the time spent sampling), the
    number of rounds, a Counter of failed checks, a Counter of the
    unexpected ones and the number of failed op runs.
    """
    times = [[] for _ in ops]
    verdicts = [None] * len(ops)
    failures, unexpected, failed_ops, rounds = Counter(), Counter(), 0, 0
    start = last = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            gc.collect()
            with tracer.op() if tracer is not None else contextlib.nullcontext():
                stolen = sampler.stolen
                t0 = time.perf_counter()
                result = op.run()
                times[i].append((t0, time.perf_counter() - t0 - (sampler.stolen - stolen)))
            output = op.output(result)
            if verdicts[i] is None or verdicts[i][0] != output:
                verdicts[i] = (output, op.check(output))
            if verdicts[i][1]:
                failed_ops += 1
                failures.update(verdicts[i][1])
                unexpected.update(op.unexpected(verdicts[i][1]))
        rounds += 1
        if tracer is not None:
            tracer.end_round()
        now = time.perf_counter()
        if now + (now - last) / 2 - start > seconds:  # the next round would end further off
            return times, rounds, failures, unexpected, failed_ops
        last = now


def round_stats(per_round) -> dict:
    """Median over the rounds of each round's total, median and p90 of its op times."""
    return {
        "run_s": statistics.median(sum(x) for x in per_round),
        "op_p50_s": statistics.median(statistics.median(x) for x in per_round),
        "op_p90_s": statistics.median(p90(x) for x in per_round),
    }


def end_to_end_metrics(times, sampler, setup: dict, ref_s: float) -> tuple:
    """The metrics in seconds at the reference speed, and the same from unscaled wall times.

    Each op's time is scaled by ref_s over the mean of the calibration
    samples around it; setup_s comes scaled from `cold_starts`.
    """
    per_round = list(zip(*times))
    wall = round_stats([[d for _, d in ops] for ops in per_round])
    wall["setup_s"] = statistics.median(setup["wall_s"])
    scaled = round_stats([[d * ref_s / sampler.around(t, t + d) for t, d in ops] for ops in per_round])
    metrics = {name: (value, "s") for name, value in scaled.items()}
    metrics["setup_s"] = (setup["setup_s"], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, wall


def layer_breakdown(times, n: int, tracer, setup: dict) -> dict:
    """Every span's self time and calls, every count and ratio, per round of n."""
    out = {}
    for name, _, _ in SPANS:
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n
    for name, value in tracer.counts.items():
        out[name] = value / n
    for name in REPEAT_KEYS:
        distinct = tracer.distinct_total.get(name, 0)
        out[f"{name}.repeat_ratio"] = tracer.calls.get(name, 0) / distinct if distinct else 0.0
    out["trace.run_s"] = sum(d for t in times for _, d in t) / n
    out["trace.layers_self_s"] = sum(tracer.self_s.get(name, 0.0) for name, _, _ in SPANS) / n
    out["trace.bench_self_s"] = tracer.self_s.get("bench", 0.0) / n
    out["setup.numpy_import_s"] = setup["setup.numpy_import_s"]
    out["setup.opuckit_import_s"] = setup["setup.opuckit_import_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "normalform", "probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "opuckit" / "__init__.py").is_file():
        print(f"error: no opuckit source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opuckit

    if Path(opuckit.__file__).resolve().parent != SRC / "opuckit":
        print(f"error: imported opuckit from {opuckit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    build, warmup, calibration_work = workloads.WORKLOADS[args.workload]
    ref_s = workloads.CALIBRATION_REF_S[args.workload]
    setup = cold_starts(COLD_STARTS)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        ops = build(args.seed, workdir)
        warmup_dir = workdir / "warmup"
        warmup_dir.mkdir()
        warmup(args.seed + WARMUP_SEED_OFFSET, warmup_dir)()
        # the benchmark's own inputs and references are never collected, as
        # the program's are not in a CLI process; freezing keeps them out of
        # every collection the ops trigger
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.install()
        sampler = Sampler(calibration_work())
        try:
            # traced times stay unscaled, so the tracer's spans hold no samples
            with sampler if tracer is None else contextlib.nullcontext():
                times, rounds, failures, unexpected, failed_ops = run_rounds(ops, args.seconds, tracer, sampler)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    breakdown = wall = None
    if tracer is None:
        metrics, wall = end_to_end_metrics(times, sampler, setup, ref_s)
    else:
        breakdown = layer_breakdown(times, rounds, tracer, setup)
        metrics = {name: (breakdown.get(name, 0.0), unit) for name, unit in PER_LAYER}
    attempted = len(ops) * rounds
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    record = {
        "provenance": provenance(args.workload, args.seed, bool(args.trace)),
        "seconds": args.seconds,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "failed_checks": dict(sorted(failures.items())),
        "unexpected_checks": dict(sorted(unexpected.items())),
        "setup": {"reference_s": CALIBRATION_START_REF_S, "start_s": setup["wall_s"],
                  "calibration_s": setup["calibration_s"]},
        "calibration_s": {"reference": ref_s, "samples": sampler.samples},
        "unscaled_s": wall,
        "op_s": {op.name: t for op, t in zip(ops, times)},  # (start, wall time) per round
        "layer_breakdown": breakdown,
        **result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"{args.workload}: {rounds} rounds of {len(ops)} ops, attempted {attempted}, failed {failed_ops}")
    for name, count in sorted(failures.items()):
        label = "UNEXPECTED" if name in unexpected else workloads.FAULTS[name]
        print(f"  failed check {name!r} x{count}: {label}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
