"""Shared fixtures: the bundled reference datasets and their fixed
cluster partitions, loaded once per test that needs them."""

from __future__ import annotations

import builtins

import pytest

from cmimpute.casestudy import (
    CLASSIFICATION_PARTITION,
    IMPUTATION_PARTITION,
    load_classification_dataset,
    load_missing_dataset,
    load_normalized_dataset,
)
from cmimpute.dataset import split_groups
from cmimpute.kmeans import FixedPartition, cluster


@pytest.fixture
def missing_dataset():
    """The encoded 9-record table with R3.A3 and R5.A4 missing."""
    return load_missing_dataset()


@pytest.fixture
def normalized_dataset():
    """The encoded 9-record table with every cell present."""
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
