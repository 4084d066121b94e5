"""Cluster-center distances and the reduction of every record to a
single scalar: the sum of its distances to all centroids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .dataset import Record
from .kmeans import ClusterModel


def _squared_distance(record: Record, centroid: Sequence[float]) -> float:
    """Sum of (c - u) ** 2 over the coordinates where the record has a
    cell, in attribute order: the one distance kernel.  A complete
    record's distance is its partial distance over every cell."""
    if len(record.cells) != len(centroid):
        raise ValueError(
            f"record {record.id} has {len(record.cells)} cells, centroid has {len(centroid)}"
        )
    return sum((float(c) - float(u)) ** 2 for c, u in zip(record.cells, centroid) if c is not None)


def type1_distance(record: Record, centroid: Sequence[float]) -> float:
    """Euclidean distance from a complete record to a centroid over
    all coordinates."""
    if not record.is_complete:
        raise ValueError(f"record {record.id} has missing cells; use type2_distance")
    return math.sqrt(_squared_distance(record, centroid))


def type2_distance(record: Record, centroid: Sequence[float]) -> float:
    """Euclidean distance over the record's observed coordinates only.

    Missing coordinates are discarded with no rescaling, so records
    with more missing cells systematically measure shorter; the
    reproduced tables assume exactly that.
    """
    if record.cells.count(None) == len(record.cells):
        raise ValueError(f"record {record.id} has no observed values")
    return math.sqrt(_squared_distance(record, centroid))


def map_complete(record: Record, model: ClusterModel) -> float:
    """Map(R): sum of type-1 distances from a complete record to every
    centroid of the model."""
    return sum(type1_distance(record, c) for c in model.centroids)


def map_query(record: Record, model: ClusterModel) -> float:
    """Map'(R): sum of type-2 distances to every centroid.  For a
    complete record this degenerates to map_complete."""
    return sum(type2_distance(record, c) for c in model.centroids)


def check_map_value(table: str, rid: str, value: float) -> float:
    """The value, if it is a usable mapping value: finite and non-negative."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{table}[{rid!r}] = {value!r} is not a finite non-negative value")
    return value


@dataclass(frozen=True)
class MappingTable:
    """Scalar mapping values for the donor pool and for the queries,
    stamped with the fingerprint of the model that produced them."""

    complete_map: Mapping[str, float]
    query_map: Mapping[str, float]
    model_ref: str

    def __post_init__(self) -> None:
        for name, table in (("complete_map", self.complete_map), ("query_map", self.query_map)):
            for rid, value in table.items():
                check_map_value(name, rid, value)

    @cached_property
    def donor_ids(self) -> tuple[str, ...]:
        """Donor ids in donor-pool order."""
        return tuple(self.complete_map)

    @cached_property
    def sorted_donors(self) -> tuple[list[float], list[int]]:
        """Donor mapping values in ascending order, each paired with its
        donor's position in donor-pool order.  Built once per table."""
        values = list(self.complete_map.values())
        order = sorted(range(len(values)), key=values.__getitem__)
        return [values[i] for i in order], order


def build_mapping(
    g1: Sequence[Record],
    queries: Sequence[Record],
    model: ClusterModel,
) -> MappingTable:
    return MappingTable(
        complete_map={r.id: map_complete(r, model) for r in g1},
        query_map={r.id: map_query(r, model) for r in queries},
        model_ref=model.fingerprint(),
    )

