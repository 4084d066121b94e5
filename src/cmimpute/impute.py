"""Difference table over mapping values, nearest-donor selection, and
the donor/tie fill rules for missing cells."""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dataset import (
    CATEGORICAL,
    AttributeSpec,
    Dataset,
    Record,
    format_number,
    split_groups,
)
from .errors import ConfigError, InsufficientDataError, NoDonorsError
from .kmeans import ClusterModel, FarthestFirst, InitPolicy, cluster
from .mapping import MappingTable, build_mapping, mean

# Literal reading of the selection rule: argmin of the signed
# difference.  Provably query-independent (see nearest_record), kept
# for table replay.
MODE_SIGNED = "paper-signed"
# Argmin of the absolute difference: nearest neighbor on the scalar.
MODE_ABSOLUTE = "absolute"

MODES = (MODE_SIGNED, MODE_ABSOLUTE)


@dataclass(frozen=True)
class DifferenceTable:
    """d_ij = Map(R_i) - Map'(R_j) for every donor i and query j.

    Donor selection never builds it; it exists to print and check the
    reference difference grids."""

    entries: Mapping[tuple[str, str], float]
    g1_ids: tuple[str, ...]
    query_ids: tuple[str, ...]


def difference_table(maps: MappingTable) -> DifferenceTable:
    """Cross product of donor and query mapping values, signed."""
    if not maps.complete_map:
        raise NoDonorsError("no complete records to difference against")
    if not maps.query_map:
        raise ValueError("no query records in the mapping table")
    g1_ids = tuple(maps.complete_map)
    query_ids = tuple(maps.query_map)
    entries = {
        (i, j): maps.complete_map[i] - maps.query_map[j]
        for i in g1_ids
        for j in query_ids
    }
    return DifferenceTable(entries, g1_ids, query_ids)


def nearest_record(maps: MappingTable, query_id: str, mode: str) -> tuple[str, ...]:
    """All donor ids attaining the minimal difference d_ij for one query
    of the table; see nearest_donors."""
    return nearest_donors(maps, maps.query_map[query_id], mode)


def nearest_donors(maps: MappingTable, c: float, mode: str) -> tuple[str, ...]:
    """All donor ids attaining the minimal difference d_ij for a query
    whose mapping value is c.

    paper-signed minimizes the signed d_ij, which does not depend on
    the query at all: argmin_i (Map(R_i) - c) is argmin_i Map(R_i) for
    any constant c.  absolute minimizes |d_ij|, nearest neighbor on
    the mapping scalar.  Ties are exact float equality; ids come back
    in donor-pool order.

    The search runs on the donor values sorted once per table, in
    O(log m) plus the size of the tie set.  Float subtraction rounds
    monotonically and fl(a - c) == -fl(c - a), so fl(a - c) never
    decreases as a grows: the signed tie set is a prefix of the sorted
    values, and the absolute tie set a contiguous run around the
    insertion point of c whose minimum sits at one of its two
    neighbours.  Each run is widened with the same arithmetic as d_ij,
    so values that rounding merges tie exactly as they do in the table.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values, order = maps.sorted_donors
    if not values:
        raise NoDonorsError("no complete records to select from")
    if mode == MODE_SIGNED:
        best = values[0] - c
        lo, hi = 0, 1
        while hi < len(values) and values[hi] - c == best:
            hi += 1
    else:
        pos = bisect_left(values, c)
        best = min(abs(values[i] - c) for i in (pos - 1, pos) if 0 <= i < len(values))
        lo = hi = pos
        while lo > 0 and abs(values[lo - 1] - c) == best:
            lo -= 1
        while hi < len(values) and abs(values[hi] - c) == best:
            hi += 1
    ids = maps.donor_ids
    return tuple(ids[i] for i in sorted(order[lo:hi]))


def _class_pools(g1: Sequence[Record]) -> dict[str | None, list[Record]]:
    """The donor pool grouped by decision class, each group in pool order."""
    pools: dict[str | None, list[Record]] = {}
    for r in g1:
        pools.setdefault(r.label, []).append(r)
    return pools


def _fill_value(
    query: Record,
    attr: int,
    donors: Sequence[Record],
    pools: Mapping[str | None, Sequence[Record]],
    spec: AttributeSpec,
    maps: MappingTable,
) -> tuple[float, str]:
    """Value for one missing cell given the tied nearest donors, and
    the tie policy that produced it.

    A single donor contributes its value verbatim.  Multiple tied
    donors defer to the donors' decision class over the whole donor
    pool: the modal value for a categorical attribute, the mean for a
    numeric one.
    """
    if query.cells[attr] is not None:
        raise ValueError(f"record {query.id}: cell {attr} is not missing")
    if not donors:
        raise NoDonorsError(f"record {query.id}: empty donor set")
    for d in donors:
        if not d.is_complete:
            raise ValueError(f"donor {d.id} is incomplete")

    if len(donors) == 1:
        return float(donors[0].cells[attr]), "single-donor"

    pool, labeled = _tie_pool(donors, pools, maps)
    suffix = "same-class" if labeled else "tied-donors"
    values = [float(r.cells[attr]) for r in pool]
    if spec.kind == CATEGORICAL:
        counts = Counter(values)
        top = max(counts.values())
        # Modal tie inside the pool: smallest value wins, deterministic.
        return min(v for v, c in counts.items() if c == top), f"modal-{suffix}"
    return mean(values), f"mean-{suffix}"


def _tie_pool(
    donors: Sequence[Record],
    pools: Mapping[str | None, Sequence[Record]],
    maps: MappingTable,
) -> tuple[Sequence[Record], bool]:
    """Records whose values settle a multi-donor tie.

    Majority decision class among the tied donors; a class-count tie
    goes to the class of the donor with the lowest mapping value.  With
    fully unlabeled donors the donors themselves are the pool.
    """
    labels = [d.label for d in donors if d.label is not None]
    if not labels:
        return donors, False
    counts = Counter(labels)
    top = max(counts.values())
    candidates = {c for c, n in counts.items() if n == top}
    if len(candidates) == 1:
        klass = candidates.pop()
    else:
        contenders = [d for d in donors if d.label in candidates]
        klass = min(contenders, key=lambda d: maps.complete_map[d.id]).label
    return pools[klass], True


@dataclass(frozen=True)
class ImputeConfig:
    """Pipeline knobs: selection mode, cluster count (derived from the
    labels when omitted), and init policy (farthest-first from the seed
    when omitted)."""

    mode: str = MODE_ABSOLUTE
    k: int | None = None
    init: InitPolicy | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k is not None and (not isinstance(self.k, int) or self.k < 1):
            raise ConfigError(f"k must be a positive integer, got {self.k!r}")


@dataclass(frozen=True)
class CellFill:
    """Provenance for one imputed cell."""

    query_id: str
    attr_index: int
    attr_name: str
    donor_ids: tuple[str, ...]
    value: float
    symbol: str | None
    tie_policy: str


@dataclass(frozen=True)
class ImputationResult:
    dataset: Dataset
    fills: tuple[CellFill, ...]
    mode: str
    model: ClusterModel | None
    maps: MappingTable | None


def impute_dataset(dataset: Dataset, config: ImputeConfig | None = None) -> ImputationResult:
    """Run the full pipeline: split, cluster the complete group, map
    both groups to scalars, difference, pick nearest donors, fill.

    Every query record is imputed independently against the original
    complete group; freshly completed records never become donors.
    One nearest-donor search serves all of a record's missing cells.
    """
    config = config or ImputeConfig()
    if not dataset.is_encoded:
        raise ValueError("dataset must be encoded before imputation")
    split = split_groups(dataset)
    if not split.g2:
        return ImputationResult(dataset, (), config.mode, None, None)
    if not split.g1:
        raise NoDonorsError("every record has missing values; nothing can donate")
    for r in split.g2:
        if r.cells.count(None) == len(r.cells):
            raise InsufficientDataError(f"record {r.id} has no observed values")

    k = config.k
    if k is None:
        k = dataset.n_classes
        if k == 0:
            raise ConfigError("dataset has no labels; supply k explicitly")
    init = config.init if config.init is not None else FarthestFirst(config.seed)
    model = cluster(split.g1, k, init)
    maps = build_mapping(split.g1, split.g2, model)

    by_id = {r.id: r for r in split.g1}
    pools = _class_pools(split.g1)
    fills: list[CellFill] = []
    completed: list[Record] = []
    for r in dataset.records:
        if r.is_complete:
            completed.append(r)
            continue
        donors = [by_id[i] for i in nearest_record(maps, r.id, config.mode)]
        cells = list(r.cells)
        for attr in r.missing_indices:
            spec = dataset.schema.attributes[attr]
            value, policy = _fill_value(r, attr, donors, pools, spec, maps)
            symbol = str(spec.decode_value(value)) if spec.kind == CATEGORICAL else None
            fills.append(
                CellFill(r.id, attr, spec.name, tuple(d.id for d in donors), value, symbol, policy)
            )
            cells[attr] = value
        completed.append(Record(r.id, tuple(cells), r.label))
    return ImputationResult(
        Dataset(dataset.schema, tuple(completed)), tuple(fills), config.mode, model, maps
    )


def provenance_csv(result: ImputationResult) -> str:
    """One row per imputed cell, for audit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query", "attribute", "donors", "value", "symbol", "mode", "tie_policy"])
    for f in result.fills:
        writer.writerow(
            [
                f.query_id,
                f.attr_name,
                ";".join(f.donor_ids),
                format_number(f.value),
                f.symbol or "",
                result.mode,
                f.tie_policy,
            ]
        )
    return buf.getvalue()
