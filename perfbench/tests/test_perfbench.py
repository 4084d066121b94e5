"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cmimpute import classify, evaluate, impute, kmeans  # noqa: E402

TINY = ("--size", "tiny", "--seconds", "0.2")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench" / "test-work"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(name: str, workdir: Path) -> workloads.Workload:
    return workloads.make(name, workdir, 3, spec.WORKLOADS[name]["sizes"]["tiny"])


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_text()


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    result = result_of(bench("--workload", name, *TINY))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert set(result["metrics"]) == {m["name"] for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_two_traced_runs_give_identical_counts(name):
    counts, times = [], []
    for _ in range(2):
        result = result_of(bench("--workload", name, *TINY, "--trace", "1"))
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in spec.PER_LAYER}
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        counts.append({k: v for k, v in metrics.items() if result["metrics"][k]["unit"] == "count"})
        times.append({k: v for k, v in metrics.items() if result["metrics"][k]["unit"] == "s"})
    assert counts[0] == counts[1]
    assert any(counts[0].values()) and any(times[0].values())


def test_the_impute_oracle_rejects_a_corrupted_fill(workdir, monkeypatch):
    workload = tiny("impute-mcar-4k", workdir)
    original = impute._fill_value

    def shifted(query, attr, donors, g1, attr_spec, maps):
        value, policy = original(query, attr, donors, g1, attr_spec, maps)
        return (value + 0.5 if attr_spec.kind == "numeric" else value), policy

    monkeypatch.setattr(impute, "_fill_value", shifted)
    assert "fill" in workload.warm_up()


def test_an_op_whose_output_differs_from_the_first_fails(workdir):
    workload = tiny("impute-mcar-4k", workdir)
    assert workload.warm_up() is None
    assert workload.check(1, workload.op(1)) is None
    out = workload.out.read_text().replace(",C1\n", ",C2\n", 1)
    workload.out.write_text(out)
    assert workload.check(1, 0) == "output differs from the first op's"


def test_the_classify_oracle_rejects_a_wrong_label(workdir, monkeypatch):
    workload = tiny("classify-stream-2k", workdir)
    workload.setup_program()
    assert workload.warm_up() is None
    original = classify.classify_mapped

    def mislabeled(*args, **kwargs):
        result = original(*args, **kwargs)
        return classify.ClassificationResult(("wrong",), result.nearest, result.table)

    monkeypatch.setattr(classify, "classify_mapped", mislabeled)
    assert "oracle" in workload.check(1, workload.op(1))


def test_an_evaluate_report_that_does_not_replay_fails(workdir):
    workload = tiny("evaluate-small", workdir)
    assert workload.warm_up() is None
    assert workload.verify_repeats() == [None]
    workload.reports[0] = workload.reports[0].replace('"trial": 0', '"trial": 1')
    assert workload.verify_repeats() == ["op 0: master seed 3 did not replay"]


def test_tracer_patches_every_caller_binding_and_restores_it():
    original = kmeans.cluster
    traced = tracer.Tracer()
    with traced.tracing(7):
        assert impute.cluster is evaluate.cluster is kmeans.cluster is not original
    assert impute.cluster is evaluate.cluster is kmeans.cluster is original


def test_tracer_fails_loudly_when_a_traced_function_is_renamed(monkeypatch):
    monkeypatch.delattr(impute, "difference_table")
    with pytest.raises(RuntimeError, match="difference_table no longer exists"):
        tracer.Tracer()


def test_self_time_excludes_time_covered_by_child_spans():
    traced = tracer.Tracer()
    traced.spans = [
        ["impute.impute_dataset", 0.0, 10.0, -1, 1],
        ["impute.difference_table", 2.0, 6.0, 0, 1],
        [tracer.GC_SPAN, 3.0, 4.0, 1, 1],
    ]
    metrics = traced.layer_metrics([1], [1])
    assert metrics["impute.fill_s"] == 6.0
    assert metrics["impute.difference_s"] == 3.0
    assert metrics["runtime.gc_s"] == 1.0


def test_without_the_library_the_benchmark_fails_without_a_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(BENCH, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "evaluate-small", "--seconds", "1", cwd=workdir)
    assert done.returncode != 0
    assert "{" not in done.stdout
