"""What the benchmark measures: its workloads, their sizes and why each
was chosen, and the end-to-end and per-layer metrics.

This module is the single source of ``BENCHMARK.json`` at the root of
the repository (``python3 perfbench/run.py --write-spec`` regenerates
it, and a test checks that the committed file matches).  It imports
nothing but the standard library, so the launcher can read it without
importing the library under test.
"""

from __future__ import annotations

import json

RUN_SECONDS = 36

# Every workload runs in its own fresh process, one thread, as a closed
# loop with one client: the next op starts only when the previous one
# has returned and been checked.  "full" is what the benchmark measures;
# "tiny" is the smoke-test size used by perfbench/tests.
WORKLOADS: dict[str, dict] = {
    "impute-mcar-4k": {
        "why": (
            "absolute-mode CLI impute, 4000 rows, 5% MCAR: donor selection "
            "(m*q difference table and nearest-record scan) dominates"
        ),
        "op": "one `cmimpute impute --mode absolute` run via cli.main, file in and file out",
        "sizes": {
            "full": {"rows": 4000, "missing_rate": 0.05},
            "tiny": {"rows": 200, "missing_rate": 0.05},
        },
    },
    "classify-stream-2k": {
        "why": (
            "per-query classify_mapped plus raw kNN against 2000 fitted rows: every "
            "query re-maps the training set, no impute fill runs"
        ),
        "op": "classify one complete query with classify_mapped (absolute) then classify_raw_knn",
        "sizes": {
            "full": {"train_rows": 2000, "queries": 200},
            "tiny": {"train_rows": 100, "queries": 20},
        },
    },
    "evaluate-small": {
        "why": (
            "one run_experiment trial per op on 60 rows, all four methods: many tiny "
            "problems, so fixed per-call cost dominates"
        ),
        "op": "one run_experiment trial: all methods, rate 0.1, holdout 0.2, master seed = seed + op index",
        "sizes": {
            "full": {"rows": 60, "tables": 16},
            "tiny": {"rows": 36, "tables": 2},
        },
    },
}

# Every workload reports every end-to-end metric.  An "op" is the unit
# of work named in WORKLOADS[...]["op"]: the impute run on impute-*, the
# query on classify-stream-2k and the trial on evaluate-small.  Latency
# is gated at the 90th percentile, not the median: on a shared machine
# whose speed switches between a common slow state and intermittent
# fast spells, the median of a run flips between the two while the 90th
# percentile stays in the slow state (see README.md).  The median is
# printed beside it.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def _times(names: list[str]) -> list[dict]:
    return [{"name": n, "unit": "s", "better": "lower"} for n in names]


def _counts(names: list[str], better: str = "lower") -> list[dict]:
    return [{"name": n, "unit": "count", "better": better} for n in names]


TIE_POLICIES = (
    "single-donor",
    "mean-same-class",
    "modal-same-class",
    "mean-tied-donors",
    "modal-tied-donors",
)

# Self times are per-op medians over the traced ops of a --trace 1 run;
# counts are totals over the first pass of traced ops (see
# Workload.pass_ops) and repeat exactly for a given seed and size.
PER_LAYER = (
    _times(
        [
            "cli.self_s",
            "dataset.parse_s",
            "dataset.encode_s",
            "dataset.split_s",
            "dataset.write_s",
            "kmeans.cluster_s",
            "mapping.map_s",
            "impute.difference_s",
            "impute.select_s",
            "impute.fill_s",
            "classify.mapped_s",
            "classify.knn_s",
            "evaluate.mask_s",
            "evaluate.baseline_s",
            "evaluate.score_s",
            "evaluate.self_s",
            "runtime.gc_s",
        ]
    )
    + _counts(
        [
            "dataset.rows",
            "kmeans.iterations",
            "kmeans.points",
            "mapping.records_mapped",
            "impute.difference_entries",
            "impute.queries",
            "impute.tie_queries",
            "impute.tie_size_max",
            "impute.donor_reuse_max",
            "classify.ambiguous",
            "runtime.gc_collections",
        ]
        + [f"impute.policy.{p}" for p in TIE_POLICIES]
    )
    + _counts(["impute.cells_filled"], better="higher")
    + [
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
        {"name": "trace.op_p50_traced_ms", "unit": "ms", "better": "lower"},
        {"name": "trace.op_p50_untraced_ms", "unit": "ms", "better": "lower"},
    ]
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
