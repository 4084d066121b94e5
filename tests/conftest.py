"""Shared fixtures: the bundled reference datasets and their fixed
cluster partitions, loaded once per test that needs them."""

from __future__ import annotations

import builtins
import sys
import types
from pathlib import Path

import pytest

from cmimpute.casestudy import (
    CLASSIFICATION_PARTITION,
    IMPUTATION_PARTITION,
    NEW_RECORD_CELLS,
    load_classification_dataset,
    load_missing_dataset,
    load_normalized_dataset,
)
from cmimpute.dataset import Dataset, Record, Schema, split_groups
from cmimpute.kmeans import FixedPartition, cluster
from cmimpute.mapping import MappingTable

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str, **imports: types.ModuleType) -> types.ModuleType:
    """perfbench/<name>.py as a module, executed from its source so no
    bytecode is written next to it; imports names the perfbench modules
    it imports by their bare names."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules.update(imports)
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        for key in imports:
            del sys.modules[key]
    return module


def dataset_of(schema: Schema, records) -> Dataset:
    """The records as one dataset, a matrix row per record; the
    constructor refuses records of another arity than the schema's."""
    records = tuple(records)
    return Dataset(schema, [r.id for r in records], [r.label for r in records], [r.cells for r in records])


def mapping_table(complete_map: dict, query_map: dict) -> MappingTable:
    """A mapping table of the given id -> value maps."""
    return MappingTable(list(complete_map), list(complete_map.values()), list(query_map), list(query_map.values()))


def new_record() -> Record:
    """The incoming record classified in the reference tables."""
    return Record("R10", NEW_RECORD_CELLS)


@pytest.fixture
def missing_dataset():
    """The 9-record table with R3.A3 and R5.A4 missing."""
    return load_missing_dataset()


@pytest.fixture
def normalized_dataset():
    """The 9-record table with every cell present."""
    return load_normalized_dataset()


@pytest.fixture
def classification_dataset():
    """The 9-record labeled table used for classification."""
    return load_classification_dataset()


@pytest.fixture
def imputation_model(missing_dataset):
    """Two clusters over the complete group, fixed to the reference
    partition so distances are reproducible."""
    g1 = split_groups(missing_dataset).g1
    return cluster(g1, 2, FixedPartition(IMPUTATION_PARTITION))


@pytest.fixture
def classification_model(classification_dataset):
    return cluster(
        classification_dataset.records, 2, FixedPartition(CLASSIFICATION_PARTITION)
    )


@pytest.fixture
def compensated_sum(monkeypatch):
    """builtins.sum replaced by an emulation of Python 3.12's sum(),
    which adds floats with Neumaier compensation (CPython gh-100425)."""
    plain = builtins.sum

    def neumaier(iterable, /, start=0):
        items = list(iterable)
        if not all(type(x) is float for x in items):
            return plain(items, start)
        total, compensation = float(start), 0.0
        for x in items:
            t = total + x
            compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        return total + compensation

    monkeypatch.setattr(builtins, "sum", neumaier)
