#!/usr/bin/env python3
"""bilinctrl benchmark: one closed-loop client, one process, no worker pool.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 24 --trace 0

Run from a checkout: the library is imported from ``src/`` next to this
directory.  Inputs come from ``--seed`` alone.  With ``--trace 0`` the run
times jobs for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it replays each job traced right after timing it untraced, and
prints the per-layer metrics.  Every job's output is checked.
The last line of standard output is the result object; the line before it
holds run details (machine, tail percentile, sample counts).  Spans of a
traced run go to ``.perfbench/`` in the checkout.  README.md in this
directory lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNTIME = ROOT / ".perfbench"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")
TAIL_PERCENTILE = 90
WARMUP_SECONDS = 2.0
NULL = NullTracer()

PER_LAYER_TIMES = (
    "analysis.angular_accessibility", "analysis.min_rank_search",
    "analysis.orbit_dimension_profile", "analysis.monotone_norm_certificate",
    "reach.sample_attainable.diag", "reach.sample_attainable.defective",
    "reach.sample_attainable.smooth", "reach.coverage", "reach.approx_reach_test",
    "foliation.first_return", "matlie.lie_closure", "matlie.evaluate_at",
    "model.parse_system",
)
PER_LAYER_EXTRAS = ("cli.main.self_s", "reach.simulate.per_call_s")
PER_JOB_COUNTS = ("reach.sample_attainable.points",
                  "reach.approx_reach_test.evaluations",
                  "foliation.first_return.arc_points")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine_info(np, scipy) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        loadavg = list(os.getloadavg())
    except OSError:
        loadavg = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "loadavg": loadavg,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_probe() -> float:
    """Import time of the benchmark's modules in a fresh interpreter.

    Set-up repeats need fresh imports, which one process cannot redo; each
    probe runs to completion before the next starts.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def by_slot(block, latencies):
    """Latencies of the timed jobs grouped by block slot, with each slot's
    share of the block.  Timed job i sits in slot i % len(block), since
    timing starts with the second block."""
    groups = {}
    for i, lat in enumerate(latencies):
        groups.setdefault(block[i % len(block)], []).append(lat)
    return {slot: (block.count(slot) / len(block), lats) for slot, lats in groups.items()}


def mix_quantile(groups, q):
    """Quantile q of the block mix when each slot takes its median latency:
    the median of the slot in which the q-th share of the block falls."""
    total = sum(share for share, _ in groups.values())
    acc = 0.0
    for median, share in sorted((statistics.median(lats), share)
                                for share, lats in groups.values()):
        acc += share
        if acc >= q * total:
            return median
    return median


class Runner:
    """Runs and checks jobs, counting attempts and failures."""

    def __init__(self, wl, jobs):
        self.wl = wl
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0

    def _fail(self, index, job, message):
        self.failed += 1
        print(f"job {index} ({job.kind}) failed: {message}", file=sys.stderr)

    def run_one(self, index):
        """Time one job, then check it; returns (seconds, signature)."""
        job = self.jobs[index % len(self.jobs)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.run(job)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(index, job, traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            result = self.wl.collect(job, out)
            error = self.wl.check(job, result)
            signature = self.wl.signature(result)
        except Exception:
            error, signature = traceback.format_exc(), None
        if error:
            self._fail(index, job, error)
        return elapsed, signature

    def time_replay(self, index):
        """Seconds of one untraced run of the job's traced variant."""
        job = self.jobs[index % len(self.jobs)]
        start = time.perf_counter()
        try:
            self.wl.run_traced(job, NULL)
        except Exception:
            self._fail(index, job, "replay: " + traceback.format_exc())
        return time.perf_counter() - start

    def run_traced(self, index, job_id, tracer):
        """Replay one job with spans; returns its signature."""
        job = self.jobs[index % len(self.jobs)]
        self.attempted += 1
        try:
            with tracer.job(job_id):
                out = self.wl.run_traced(job, tracer)
            return self.wl.signature(out)
        except Exception:
            self._fail(index, job, "traced: " + traceback.format_exc())
            return None

    def loop(self, seconds, tracer=None):
        """Closed loop over the job list for ``seconds``, starting with the
        second block; at least one job.

        With a tracer, each job is replayed traced right after its untraced
        run, so that both runs of a job see the same machine state.  Where
        the traced job is a replay of other calls, that replay also runs
        untraced, to give the tracing overhead.
        """
        latencies, signatures, traced, replays = [], [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            job_id = len(latencies)
            index = job_id + len(self.wl.block)
            elapsed, signature = self.run_one(index)
            latencies.append(elapsed)
            signatures.append(signature)
            if tracer is not None:
                replays.append(self.time_replay(index) if self.wl.replays else elapsed)
                traced.append(self.run_traced(index, job_id, tracer))
            if time.perf_counter() >= deadline:
                return latencies, signatures, traced, replays


def end_to_end(latencies, block, setup_s, peak_rss_mb):
    """Latency metrics for the workload's block mix: each slot weighs its
    share of the block whatever number of its jobs a run timed.  A run too
    short to time every slot weighs the slots it timed."""
    groups = by_slot(block, latencies)
    total = sum(share for share, _ in groups.values())
    p50 = sum(share * statistics.median(lats) for share, lats in groups.values())
    mean = sum(share * statistics.fmean(lats) for share, lats in groups.values())
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (p50 / total, "s"),
        "job_tail_s": (mix_quantile(groups, TAIL_PERCENTILE / 100), "s"),
        "jobs_per_s": (total / mean, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, latencies, replays, signatures, reference, extras):
    count = len(latencies)
    selfs = tracer.self_times()
    sums, calls = tracer.counts, tracer.calls
    out = {f"{name}.self_s": (selfs.get(name, 0.0) / count, "s")
           for name in PER_LAYER_TIMES}
    for name in PER_JOB_COUNTS:
        out[name] = (sums.get(name, 0.0) / count, "count")

    def ratio(num, den):
        return sums.get(num, 0.0) / sums[den] if sums.get(den) else 0.0

    def mean(name):
        return sums[name] / calls[name] if calls.get(name) else 0.0

    out["reach.coverage.in_annulus_ratio"] = (
        ratio("reach.coverage.in_annulus", "reach.coverage.points"), "ratio")
    out["matlie.lie_closure.dim"] = (mean("matlie.lie_closure.dim"), "count")
    out["analysis.decisive_fraction"] = (mean("analysis.decisive"), "ratio")
    out["reach.approx_reach_test.hit_fraction"] = (
        mean("reach.approx_reach_test.hit"), "ratio")
    for name in PER_LAYER_EXTRAS:
        out[name] = (extras.get(name, 0.0), "s")
    out["trace.overhead_ratio"] = (tracer.job_time() / sum(replays), "ratio")
    out["trace.span_coverage"] = (tracer.layer_time() / sum(latencies), "ratio")
    agree = sum(s is not None and s == r for s, r in zip(signatures, reference))
    out["trace.replay_agreement"] = (agree / count, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bilinctrl" / "__init__.py").is_file():
        print(f"error: no bilinctrl sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    import numpy as np
    import scipy
    import bilinctrl
    if not Path(bilinctrl.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bilinctrl imported from {bilinctrl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    RUNTIME.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_info(np, scipy)}
    with tempfile.TemporaryDirectory(dir=RUNTIME, prefix="work-") as tmp:
        imports = [import_s] + [import_probe() for _ in range(IMPORT_REPEATS - 1)]
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs = wl.make_inputs(args.seed, Path(tmp))
            setup.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(setup)
        runner = Runner(wl, jobs)
        # Warm-up: jobs of the first block, checked and untimed, until the
        # block is done or WARMUP_SECONDS have passed.
        deadline = time.perf_counter() + WARMUP_SECONDS
        for i in range(len(wl.block)):
            runner.run_one(i)
            if time.perf_counter() >= deadline:
                break
        if args.trace:
            tracer = Tracer()
            latencies, reference, signatures, replays = runner.loop(args.seconds, tracer)
            extras = wl.layer_extras(jobs, args.seed, latencies, replays)
            metrics = per_layer(tracer, latencies, replays, signatures, reference,
                                extras)
            trace_path = RUNTIME / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            latencies = runner.loop(args.seconds)[0]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(latencies, wl.block, setup_s, peak_rss_mb)
    info.update(jobs_timed=len(latencies), job_tail_percentile=TAIL_PERCENTILE,
                slot_median_s={str(slot): statistics.median(lats) for slot, (_, lats)
                               in by_slot(wl.block, latencies).items()},
                import_repeats_s=imports, setup_repeats_s=setup,
                failed_fraction=runner.failed / runner.attempted)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
