"""cmimpute benchmark launcher.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny] [--out FILE]
    python3 perfbench/run.py --write-spec

Each workload runs in a fresh worker process (perfbench/worker.py)
with BLAS and OpenMP pinned to one thread and a fixed hash seed.  The
worker prints its result as one JSON object on the last line of stdout:
the end-to-end metrics, or with --trace 1 the per-layer metrics.
``--workload all`` runs every workload in turn, prints a table of the
metrics with their units and writes all results to --out.
``--write-spec`` regenerates BENCHMARK.json from perfbench/spec.py.
Workloads, sizes and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A worker may take its first build of bytecode caches plus one run.
WORKER_TIMEOUT_S = 900


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CMIMPUTE_SEED", None)  # the library would read it as the default seed
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def worker_argv(workload: str, args: argparse.Namespace) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in spec.WORKLOADS:
        done = subprocess.run(
            worker_argv(name, args), env=worker_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])

    print(f"\n{'workload':<22} {'metric':<28} {'value':>14}  unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<22} {metric:<28} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<22} {'error_rate':<28} {result['failed'] / result['attempted']:>14.6g}  ratio")
    out = Path(args.out) if args.out else ROOT / ".perfbench" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"settings": vars(args), "results": results}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="results file for --workload all")
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "cmimpute" / "__init__.py").is_file():
        print(f"error: no cmimpute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return subprocess.run(
        worker_argv(args.workload, args), env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
