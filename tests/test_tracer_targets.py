"""The benchmark's tracer binds library functions by module and name
and reads counts from what they return, so renaming or deleting one of
them, or changing a result a count reads, must fail the test suite, not
only a traced benchmark run."""

from __future__ import annotations

import pytest

from cmimpute.casestudy import CLASSIFICATION_PARTITION, load_classification_dataset
from cmimpute.classify import classify_mapped, classify_raw_knn
from cmimpute.dataset import dataset_to_csv, parse_dataset, split_groups
from cmimpute.evaluate import inject_mcar, make_synthetic_dataset
from cmimpute.impute import ImputeConfig, difference_table, impute_dataset
from cmimpute.kmeans import FarthestFirst, FixedPartition, cluster
from cmimpute.mapping import build_mapping
from conftest import new_record, perfbench_module

tracer = perfbench_module("tracer")


@pytest.mark.parametrize(("module", "name"), [(module, name) for _, module, name, _ in tracer.TARGETS])
def test_every_traced_function_resolves(module, name):
    assert callable(tracer.resolve(module, name))


def real_results() -> dict[tuple[str, str], object]:
    """A value each traced function with counts returns on real input."""
    masked, _ = inject_mcar(make_synthetic_dataset(40, seed=2), 0.05, seed=2)
    parsed = parse_dataset(dataset_to_csv(masked), masked.schema)
    split = split_groups(parsed)
    model = cluster(split.g1, 3, FarthestFirst(0))
    maps = build_mapping(split.g1, split.g2, model)
    training = load_classification_dataset()
    trained = cluster(training, 2, FixedPartition(CLASSIFICATION_PARTITION))
    return {
        ("dataset", "parse_dataset"): parsed,
        ("kmeans", "cluster"): model,
        ("mapping", "build_mapping"): maps,
        ("impute", "difference_table"): difference_table(maps),
        ("impute", "impute_dataset"): impute_dataset(parsed, ImputeConfig(k=3)),
        ("classify", "classify_mapped"): classify_mapped(new_record(), training, trained),
        ("classify", "classify_raw_knn"): classify_raw_knn(new_record(), training),
    }


COUNTED = [(module, name, counts) for _, module, name, counts in tracer.TARGETS if counts is not None]


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, str], object]:
    return real_results()


@pytest.mark.parametrize(("module", "name", "counts"), COUNTED, ids=[f"{m}.{n}" for m, n, _ in COUNTED])
def test_every_traced_count_reads_a_real_result(results, module, name, counts):
    values = counts(results[module, name])
    assert values and all(isinstance(v, int) and v >= 0 for v in values.values())
    if name not in ("classify_mapped", "classify_raw_knn"):  # their count flags an ambiguous label
        assert any(values.values())
