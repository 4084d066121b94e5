"""Difference table over mapping values, nearest-donor selection, and
the donor/tie fill rules for missing cells."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import CATEGORICAL, AttributeSpec, Dataset, csv_text, format_column, split_groups
from .errors import ConfigError, InsufficientDataError, NoDonorsError
from .kmeans import ClusterModel, FarthestFirst, InitPolicy, cluster
from .mapping import MappingTable, build_mapping, mean

# Literal reading of the selection rule: argmin of the signed
# difference.  Provably query-independent (see _nearest_rows), kept
# for table replay.
MODE_SIGNED = "paper-signed"
# Argmin of the absolute difference: nearest neighbor on the scalar.
MODE_ABSOLUTE = "absolute"

MODES = (MODE_SIGNED, MODE_ABSOLUTE)


class DifferenceTable(NamedTuple):
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
    of the table, in donor-pool order: the query's row of _select_all,
    the selection impute_dataset makes."""
    (rows,) = _select_all(maps, np.array([maps.query_map[query_id]]), mode)
    return tuple(maps.donor_ids[i] for i in rows)


def _nearest_rows(maps: MappingTable, c: float, mode: str) -> tuple[int, ...]:
    """The donor-pool positions, ascending, of all donors attaining the
    minimal difference d_ij for a query whose mapping value is c.

    One search on the donor values sorted once per table, in O(log m)
    plus the size of the tie set; the mode picks its start and key.
    absolute minimizes |d_ij|, nearest neighbor on the mapping scalar,
    from the insertion point of c.  paper-signed minimizes the signed
    d_ij from sorted position 0: argmin_i (Map(R_i) - c) is argmin_i
    Map(R_i) for any constant c, so it does not depend on the query.
    Ties are exact float equality.  Float subtraction rounds
    monotonically and fl(a - c) == -fl(c - a), so fl(a - c) never
    decreases as a grows: the tie set is a contiguous run, which starts
    at 0 for the signed key and holds one of the start's two neighbours
    for the absolute one.  The run is widened with the same arithmetic
    as d_ij, so values that rounding merges tie exactly as they do in
    the table.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values, order = maps.sorted_donors
    if not values:
        raise NoDonorsError("no complete records to select from")
    pos, key = (0, operator.pos) if mode == MODE_SIGNED else (bisect_left(values, c), abs)
    best = min(key(values[i] - c) for i in (pos - 1, pos) if 0 <= i < len(values))
    lo = hi = pos
    while lo > 0 and key(values[lo - 1] - c) == best:
        lo -= 1
    while hi < len(values) and key(values[hi] - c) == best:
        hi += 1
    return tuple(sorted(order[lo:hi]))


def _select_all(maps: MappingTable, c: np.ndarray, mode: str) -> list[tuple[int, ...]]:
    """_nearest_rows for every query mapping value in c, with the same
    start and key: every query's nearest donor is found at once on the
    sorted donor values (the start's left neighbour when both tie), and
    only a query whose donor has a tying neighbour goes through
    _nearest_rows' search.  The keys are formed elementwise as
    _nearest_rows forms them, so both round the same."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    values, order = maps.sorted_arrays
    if not len(values):
        raise NoDonorsError("no complete records to select from")
    pos, key = (0, operator.pos) if mode == MODE_SIGNED else (np.searchsorted(values, c), abs)
    # An infinite sentinel on each side, whose key never ties: padded[p + 1] is values[p].
    padded = np.concatenate(([math.inf], values, [math.inf]))
    left, right = key(padded[pos] - c), key(padded[pos + 1] - c)
    best = np.minimum(left, right)
    pick = pos - (left <= right)
    single = (key(padded[pick] - c) != best) & (key(padded[pick + 2] - c) != best)
    donors = [(d,) for d in order[pick].tolist()]
    for j in np.flatnonzero(~single).tolist():
        donors[j] = _nearest_rows(maps, float(c[j]), mode)
    return donors


def _class_pools(g1: Dataset) -> dict[str | None, list[int]]:
    """Donor-pool positions per decision class, each in pool order;
    built on first use and kept with the pool."""
    pools = g1._memo.get(_class_pools)
    if pools is None:
        pools = g1._memo[_class_pools] = {}
        for i, label in enumerate(g1.labels):
            pools.setdefault(label, []).append(i)
    return pools


def _class_value(g1: Dataset, klass: str, attr: int, spec: AttributeSpec) -> tuple[float, str]:
    """_pool_value over the donor pool's rows of one decision class,
    computed once per (class, attribute, kind) and kept with the pool:
    the tie fill's and the per-class baseline's statistic."""
    memo = g1._memo.setdefault(_pool_value, {})
    key = (klass, attr, spec.kind)
    if key not in memo:
        memo[key] = _pool_value(g1.matrix[_class_pools(g1)[klass], attr].tolist(), spec)
    return memo[key]


def _fill_value(
    query: Sequence[float],
    attr: int,
    donors: Sequence[int],
    g1: Dataset,
    spec: AttributeSpec,
    maps: MappingTable,
) -> tuple[float, str]:
    """Value for one missing cell of a query, given its row of cells
    and the donor-pool positions of its tied nearest donors, and the
    tie policy that produced it.

    A single donor contributes its value verbatim.  Multiple tied
    donors defer to the donors' decision class over the whole donor
    pool: the modal value for a categorical attribute, the mean for a
    numeric one (see _class_value).
    """
    if not math.isnan(query[attr]):
        raise ValueError(f"cell {attr} of the query is not missing")
    if not donors:
        raise NoDonorsError("empty donor set")
    if len(donors) == 1:
        return float(g1.matrix[donors[0], attr]), "single-donor"

    klass = _tie_class(donors, g1, maps)
    if klass is None:
        value, statistic = _pool_value(g1.matrix[list(donors), attr].tolist(), spec)
        return value, f"{statistic}-tied-donors"
    value, statistic = _class_value(g1, klass, attr, spec)
    return value, f"{statistic}-same-class"


def _pool_value(values: list[float], spec: AttributeSpec) -> tuple[float, str]:
    """The modal value of a categorical attribute, the mean of a numeric
    one, and which statistic it is."""
    if spec.kind == CATEGORICAL:
        counts = Counter(values)
        top = max(counts.values())
        # Modal tie inside the pool: smallest value wins, deterministic.
        return min(v for v, c in counts.items() if c == top), "modal"
    return mean(values), "mean"


def _tie_class(donors: Sequence[int], g1: Dataset, maps: MappingTable) -> str | None:
    """The decision class whose pool settles a multi-donor tie, or None
    when every tied donor is unlabeled and the donors are the pool.

    Majority decision class among the tied donors; a class-count tie
    goes to the class of the donor with the lowest mapping value.
    """
    labels = [g1.labels[d] for d in donors if g1.labels[d] is not None]
    if not labels:
        return None
    counts = Counter(labels)
    top = max(counts.values())
    candidates = {c for c, n in counts.items() if n == top}
    if len(candidates) == 1:
        return candidates.pop()
    contenders = [d for d in donors if g1.labels[d] in candidates]
    return g1.labels[min(contenders, key=maps.donor_values.__getitem__)]


class ImputeConfig:
    """Pipeline knobs: selection mode, cluster count (derived from the
    labels when omitted), and k-means init policy.  Never mutated."""

    def __init__(self, mode: str = MODE_ABSOLUTE, k: int | None = None, init: InitPolicy = FarthestFirst(0)) -> None:
        self.mode, self.k, self.init = mode, k, init
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        if k is not None and (not isinstance(k, int) or k < 1):
            raise ConfigError(f"k must be a positive integer, got {k!r}")


class CellFill(NamedTuple):
    """Provenance for one imputed cell."""

    query_id: str
    attr_index: int
    attr_name: str
    donor_ids: tuple[str, ...]
    value: float
    symbol: str | None
    tie_policy: str


class ImputationResult:
    """The completed dataset, the selection mode, and the cluster model
    and mapping table (None when no cell was missing).  The imputed
    cells are kept as columns, one entry per cell in row order: its
    query's position among the table's queries (rows), its attribute
    (attrs), its value and its tie policy; donors holds each query's
    tied donors as donor-pool positions.  fills is built from these
    columns when first read.  Never mutated."""

    def __init__(
        self,
        dataset: Dataset,
        mode: str,
        model: ClusterModel | None = None,
        maps: MappingTable | None = None,
        rows: Sequence[int] = (),
        attrs: Sequence[int] = (),
        values: Sequence[float] = (),
        policies: Sequence[str] = (),
        donors: Sequence[tuple[int, ...]] = (),
    ) -> None:
        self.dataset, self.mode, self.model, self.maps = dataset, mode, model, maps
        self.rows, self.attrs, self.values, self.policies, self.donors = rows, attrs, values, policies, donors

    @cached_property
    def fills(self) -> tuple[CellFill, ...]:
        """Provenance per imputed cell, in row order."""
        query_ids, names, donor_ids, symbols = self._cells()
        return tuple(map(CellFill, query_ids, self.attrs, names, donor_ids, self.values, symbols, self.policies))

    def _cells(self) -> tuple[list[str], list[str], list[tuple[str, ...]], list[str | None]]:
        """Per imputed cell: its query's id, its attribute's name, its
        donors' ids (one tuple per distinct donor set) and its value's
        symbol (None for a numeric attribute), each distinct value of a
        categorical attribute decoded once."""
        if self.maps is None:
            return [], [], [], []
        specs = self.dataset.schema.attributes
        query_ids, donor_ids = self.maps.query_ids, self.maps.donor_ids
        named = {ds: tuple(donor_ids[d] for d in ds) for ds in set(self.donors)}
        symbols: list[str | None] = [None] * len(self.values)
        attrs, values = np.array(self.attrs, dtype=np.intp), np.array(self.values, dtype=float)
        for a, spec in enumerate(specs):
            if spec.kind == CATEGORICAL:
                cells = np.flatnonzero(attrs == a).tolist()
                column = values[cells].tolist()
                decoded = {v: str(spec.decode_value(v)) for v in set(column)}
                for i, v in zip(cells, column):
                    symbols[i] = decoded[v]
        return (
            [query_ids[j] for j in self.rows],
            [specs[a].name for a in self.attrs],
            [named[self.donors[j]] for j in self.rows],
            symbols,
        )


def missing_cells(dataset: Dataset, no_donors: str) -> np.ndarray | None:
    """The missing-cell mask of an encoded dataset, or None when no cell
    is missing; NoDonorsError(no_donors) when no record is complete."""
    missing = np.isnan(dataset.matrix)
    incomplete = missing.any(axis=1)
    if not incomplete.any():
        return None
    if incomplete.all():
        raise NoDonorsError(no_donors)
    return missing


def impute_dataset(dataset: Dataset, config: ImputeConfig | None = None) -> ImputationResult:
    """Run the full pipeline: split, cluster the complete group, map
    both groups to scalars, pick nearest donors, fill.

    Every query record is imputed independently against the original
    complete group; freshly completed records never become donors.
    One nearest-donor search serves all of a record's missing cells,
    and every query is selected by one _select_all call.  Every cell is
    filled by _fill_value."""
    config = config or ImputeConfig()
    missing = missing_cells(dataset, "every record has missing values; nothing can donate")
    if missing is None:
        return ImputationResult(dataset, config.mode)
    empty = missing.all(axis=1)
    if empty.any():
        raise InsufficientDataError(f"record {dataset.ids[int(empty.argmax())]} has no observed values")

    k = config.k
    if k is None:
        k = dataset.n_classes
        if k == 0:
            raise ConfigError("dataset has no labels; supply k explicitly")
    split = split_groups(dataset)
    g1, g2 = split.g1, split.g2
    model = cluster(g1, k, config.init)
    maps = build_mapping(g1, g2, model)

    donors = _select_all(maps, maps.query_values, config.mode)
    rows, attrs = (a.tolist() for a in np.nonzero(missing[missing.any(axis=1)]))  # the holes of g2, row by row
    specs, queries = dataset.schema.attributes, g2.matrix
    values, policies = [], []
    for j, attr in zip(rows, attrs):
        value, policy = _fill_value(queries[j], attr, donors[j], g1, specs[attr], maps)
        values.append(value)
        policies.append(policy)
    completed = dataset.matrix.copy()
    completed[missing] = values  # the same holes in the same order
    completed = Dataset(dataset.schema, dataset.ids, dataset.labels, completed.T, dataset.field_texts)
    return ImputationResult(completed, config.mode, model, maps, rows, attrs, values, policies, donors)


def provenance_csv(result: ImputationResult) -> str:
    """One row per imputed cell, for audit, built a column at a time
    from the result's columns; no CellFill is built."""
    query_ids, names, donor_ids, symbols = result._cells()
    joined = {ids: ";".join(ids) for ids in set(donor_ids)}
    return csv_text(
        ["query", "attribute", "donors", "value", "symbol", "mode", "tie_policy"],
        [
            query_ids,
            names,
            [joined[ids] for ids in donor_ids],
            format_column(np.array(result.values, dtype=float)),
            ["" if symbol is None else symbol for symbol in symbols],
            [result.mode] * len(result.values),
            result.policies,
        ],
    )
