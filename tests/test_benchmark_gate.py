"""The benchmark's correctness gate at the size it is measured: every
workload of perfbench/workloads.py, at seed 0 and full size, passes its
own oracle and reproduces the output digest perfbench/digests.json
records.  The benchmark calls the library's record-shaped surface
(Dataset.records, cluster over records, the Record forms of the
classifiers), so a change that breaks it fails here, not only in a
benchmark run."""

from __future__ import annotations

import json

import pytest

from conftest import PERFBENCH, perfbench_module

spec = perfbench_module("spec")
workloads = perfbench_module("workloads", tracer=perfbench_module("tracer"))
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_workload_passes_its_oracle_and_reproduces_its_digest(name, tmp_path):
    workload = workloads.make(name, tmp_path, 0, spec.WORKLOADS[name]["sizes"]["full"])
    workload.setup_program()
    assert workload.warm_up() is None
    for i in range(1, workload.pass_ops + 1):
        assert workload.check(i, workload.op(i)) is None
    assert workload.digest() == DIGESTS[name]
