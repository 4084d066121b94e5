"""Cluster-center distances and the reduction of every record to a
single scalar: the sum of its distances to all centroids."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .dataset import Record
from .kmeans import ClusterModel


def type1_distance(record: Record, centroid: Sequence[float]) -> float:
    """Euclidean distance from a complete record to a centroid over
    all coordinates."""
    if len(record.cells) != len(centroid):
        raise ValueError(
            f"record {record.id} has {len(record.cells)} cells, centroid has {len(centroid)}"
        )
    if not record.is_complete:
        raise ValueError(f"record {record.id} has missing cells; use type2_distance")
    return math.sqrt(
        sum((float(c) - float(u)) ** 2 for c, u in zip(record.cells, centroid))
    )


def type2_distance(record: Record, centroid: Sequence[float], scaled: bool = False) -> float:
    """Euclidean distance over the record's observed coordinates only.

    Missing coordinates are discarded with no rescaling, so records
    with more missing cells systematically measure shorter.  Passing
    scaled=True multiplies by sqrt(n / observed) to compensate; the
    default stays unscaled because the reproduced tables assume it.
    """
    if len(record.cells) != len(centroid):
        raise ValueError(
            f"record {record.id} has {len(record.cells)} cells, centroid has {len(centroid)}"
        )
    observed = record.present_indices
    if not observed:
        raise ValueError(f"record {record.id} has no observed values")
    total = sum((float(record.cells[i]) - float(centroid[i])) ** 2 for i in observed)
    if scaled:
        total *= len(record.cells) / len(observed)
    return math.sqrt(total)


def map_complete(record: Record, model: ClusterModel) -> float:
    """Map(R): sum of type-1 distances from a complete record to every
    centroid of the model."""
    return sum(type1_distance(record, c) for c in model.centroids)


def map_query(record: Record, model: ClusterModel, scaled: bool = False) -> float:
    """Map'(R): sum of type-2 distances to every centroid.  For a
    complete record this degenerates to map_complete."""
    return sum(type2_distance(record, c, scaled=scaled) for c in model.centroids)


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
    scaled: bool = False,
) -> MappingTable:
    return MappingTable(
        complete_map={r.id: map_complete(r, model) for r in g1},
        query_map={r.id: map_query(r, model, scaled=scaled) for r in queries},
        model_ref=model.fingerprint(),
    )


def mapping_to_csv(table: MappingTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record", "role", "map"])
    for rid, value in table.complete_map.items():
        writer.writerow([rid, "complete", repr(value)])
    for rid, value in table.query_map.items():
        writer.writerow([rid, "query", repr(value)])
    return buf.getvalue()
