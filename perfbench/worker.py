"""Run one workload in this process and print its result as the last
line of stdout.  Started by run.py, which sets the thread environment;
see run.py for the arguments."""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBES = 9
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cmimpute; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import cmimpute in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip())


def machine() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": loadavg,
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def named_metrics(workload: workloads.Workload, ops_ms: list[float], run: "Run") -> dict[str, tuple[float, str]]:
    """Figures printed for reading, under the names each workload's
    users know them by.  They are not gated: see spec.END_TO_END."""
    p50 = statistics.median(ops_ms)
    named = {"op_p50_ms": (p50, "ms"), "error_rate": (len(run.failures) / run.attempted, "ratio")}
    if isinstance(workload, workloads.ImputeWorkload):
        named["impute_p50_s"] = (p50 / 1000, "s")
        named["cells_per_s"] = (len(workload.masked) / (p50 / 1000), "1/s")
    elif isinstance(workload, workloads.ClassifyWorkload):
        named["query_p50_ms"] = (p50, "ms")
        named["query_p95_ms"] = (percentile(ops_ms, 95), "ms")
    else:
        named["trial_p50_ms"] = (p50, "ms")
    return named


class Run:
    """The op loop of one run: timing, checking and failure accounting."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.imports: list[float] = []

    def probe_imports(self, share: float) -> None:
        """Time imports until `share` of IMPORT_PROBES are done.  Probes
        are spread over the run, between ops, because the speed of this
        kind of shared machine drifts over seconds."""
        while len(self.imports) < share * IMPORT_PROBES:
            self.imports.append(import_seconds())

    def record(self, error: str | None) -> None:
        """Count one checked op or re-run, failed when error is set."""
        self.attempted += 1
        if error:
            self.failures.append(error)

    def attempt(self, i: int, traced: tracer.Tracer | None = None) -> float:
        """Run op i once, then check it outside the timer; returns the op time."""
        gc.collect()
        out = error = None
        start = time.perf_counter()
        try:
            if traced is None:
                out = self.workload.op(i)
            else:
                with traced.tracing(i):
                    out = self.workload.op(i)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            error = f"op {i} raised {exc!r}"
        elapsed = time.perf_counter() - start
        self.record(error or self.workload.check(i, out))
        return elapsed

    def warm_up(self) -> None:
        gc.collect()
        try:
            error = self.workload.warm_up()
        except Exception as exc:
            error = f"warm-up raised {exc!r}"
        self.record(error)

    def loop(self, seconds: float, traced: tracer.Tracer | None) -> tuple[list[float], list[float]]:
        """Ops 1, 2, ... until the next op would end past `seconds`, and
        at least one pass.  A traced run times each op untraced and then
        traced, so both see the same input."""
        plain: list[float] = []
        with_trace: list[float] = []
        start = time.perf_counter()
        i = 1
        while True:
            t0 = time.perf_counter()
            plain.append(self.attempt(i))
            if traced is not None:
                with_trace.append(self.attempt(i, traced))
            i += 1
            now = time.perf_counter()
            self.probe_imports(min(1.0, (now - start) / seconds))
            if i > self.workload.pass_ops and now - start + (now - t0) > seconds:
                self.probe_imports(1.0)
                return plain, with_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    before = machine()
    size = spec.WORKLOADS[args.workload]["sizes"][args.size]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_seconds()  # may write bytecode caches; not counted
        workload = workloads.make(args.workload, workdir, args.seed, size)
        program_setup = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            workload.setup_program()
            program_setup.append(time.perf_counter() - start)

        run = Run(workload)
        run.warm_up()
        traced = tracer.Tracer() if args.trace else None
        plain, with_trace = run.loop(args.seconds, traced)
        for error in workload.verify_repeats():
            run.record(error)
        digest = workload.digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.seed == 0 and args.size == "full":
        expected = json.loads((Path(__file__).parent / "digests.json").read_text())[args.workload]
        run.record(None if digest == expected else f"output digest {digest} differs from the recorded {expected}")

    ops_ms = [t * 1000 for t in plain]
    end_to_end = {
        "setup_s": statistics.median(run.imports) + statistics.median(program_setup),
        "op_p90_ms": percentile(ops_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (run.attempted - len(run.failures)) / run.attempted,
    }
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    if traced is None:
        metrics = end_to_end
    else:
        traced_ops = list(range(1, len(with_trace) + 1))
        metrics = dict.fromkeys((m["name"] for m in spec.PER_LAYER), 0)
        metrics.update(traced.layer_metrics(traced_ops, traced_ops[: workload.pass_ops]))
        traced_p50 = statistics.median(with_trace) * 1000
        metrics["trace.op_p50_traced_ms"] = traced_p50
        untraced_p50 = statistics.median(ops_ms)
        metrics["trace.op_p50_untraced_ms"] = untraced_p50
        metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1
        unknown = set(metrics) - set(units)
        if unknown:
            raise RuntimeError(f"traced run produced metrics missing from spec.PER_LAYER: {sorted(unknown)}")
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": traced.spans,
                    "counts": {str(op): dict(c) for op, c in sorted(traced.counts.items())},
                    "metrics": metrics,
                }
            )
        )
        print(f"# spans written to {trace_file.relative_to(ROOT)}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "ops": len(plain),
        "ops_ms": [round(t, 3) for t in ops_ms],
        "before": before,
        "after": machine(),
    }
    print(f"# run {json.dumps(info)}")
    print(f"# digest {args.workload} seed={args.seed} size={args.size} {digest}")
    for name, (value, unit) in named_metrics(workload, ops_ms, run).items():
        print(f"# {name} = {value:.6g} {unit}")
    for reason in run.failures[:10]:
        print(f"# FAILED {reason}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
