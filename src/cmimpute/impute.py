"""Difference table over mapping values, nearest-donor selection, and
the donor/tie fill rules for missing cells."""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import CATEGORICAL, AttributeSpec, Dataset, _symbol_column, csv_text, format_column, split_groups
from .errors import ConfigError, InsufficientDataError, NoDonorsError
from .kmeans import ClusterModel, FarthestFirst, InitPolicy, check_clustering, cluster, resolve_k
from .mapping import MappingTable, build_mapping, mean

# Literal reading of the selection rule: argmin of the signed
# difference.  Provably query-independent (see _select_all), kept
# for table replay.
MODE_SIGNED = "paper-signed"
# Argmin of the absolute difference: nearest neighbor on the scalar.
MODE_ABSOLUTE = "absolute"

MODES = (MODE_SIGNED, MODE_ABSOLUTE)


def check_mode(mode: str) -> str:
    """mode, refused with ConfigError unless it is one of MODES."""
    if not isinstance(mode, str) or mode not in MODES:
        raise ConfigError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
    return mode


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
        raise InsufficientDataError("no query records in the mapping table")
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
    of the table, in donor-pool order: the query's run of _select_all,
    the selection impute_dataset makes."""
    (j,), runs = _select_all(maps, np.array([maps.query_map[query_id]]), mode)
    return tuple(maps.donor_ids[i] for i in runs[j])


def _select_all(maps: MappingTable, c: np.ndarray, mode: str) -> tuple[list[int], list[tuple[int, ...]]]:
    """(run, runs): each distinct set of donors attaining the minimal
    difference d_ij for a query mapping value in c, once, as ascending
    donor-pool positions, and each query's index into runs: the one
    donor search, O(q log m) plus each distinct tie run's length.

    absolute minimizes |d_ij|, nearest neighbour on the mapping scalar;
    paper-signed minimizes the signed d_ij, and argmin_i (Map(R_i) - c)
    is argmin_i Map(R_i) for any constant c, so it does not depend on
    the query.  Ties are exact float equality.  Float subtraction rounds
    monotonically and fl(a - c) == -fl(c - a), so fl(a - c) never
    decreases as a grows along the sorted donor values.  Each query's
    minimum is therefore at one of two sorted neighbours (the insertion
    point of c in absolute mode, the two smallest values in
    paper-signed), and its tie set is the contiguous run where
    fl(values[i] - c) lies in [-|best|, best]: |d| <= best for the
    absolute key, and nothing lies below the signed minimum best.  A
    query whose nearest donor has no tying neighbour is a run of one;
    the runs of the others are found together by one bisection on that
    same subtraction, so values that rounding merges tie exactly as they
    do in the difference table.  Each query's run is a span of the
    sorted donors, and queries on the same span share one index.
    """
    check_mode(mode)
    padded, order = maps.sorted_arrays  # padded[i + 1] is the i-th smallest donor value
    if not len(order):
        raise NoDonorsError("no complete records to select from")
    # Each query's two candidates are padded[p - 1] and padded[p].
    p, key = (2, operator.pos) if mode == MODE_SIGNED else (np.searchsorted(padded, c), abs)
    left, right = key(padded[p - 1] - c), key(padded[p] - c)
    best = np.minimum(left, right)
    pick = p - (left <= right)
    single = (key(padded[pick - 1] - c) != best) & (key(padded[pick + 1] - c) != best)
    starts, stops = pick - 1, pick  # each query's run is order[start:stop]
    if not single.all():
        tied = np.flatnonzero(~single)
        # The first padded position whose difference reaches each bound:
        # a run's start, reaching -|best|, and its end, passing best.
        # The sentinels bracket every answer in (lo, hi].
        bounds = np.concatenate((-np.abs(best[tied]), np.nextafter(best[tied], math.inf)))
        ct = np.tile(c[tied], 2)
        lo, hi = np.zeros(len(bounds), dtype=np.intp), np.full(len(bounds), len(padded) - 1)
        for _ in range(len(padded).bit_length()):
            mid = (lo + hi) // 2
            reached = padded[mid] - ct >= bounds
            lo, hi = np.where(reached, lo, mid), np.where(reached, mid, hi)
        starts[tied], stops[tied] = np.split(hi - 1, 2)
    spans: dict[tuple[int, int], int] = {}
    run = [spans.setdefault(span, len(spans)) for span in zip(starts.tolist(), stops.tolist())]
    return run, [tuple(sorted(order[start:stop].tolist())) for start, stop in spans]


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
    klass: str | None,
) -> tuple[float, str]:
    """Value for one missing cell of a query, given its row of cells,
    the donor-pool positions of its tied nearest donors and, for more
    than one, their _tie_class, and the tie policy that produced it.

    A single donor contributes its value verbatim.  Multiple tied
    donors defer to the donors' decision class over the whole donor
    pool: the modal value for a categorical attribute, the mean for a
    numeric one (see _class_value), or, when klass is None, to the
    donors themselves.
    """
    if not math.isnan(query[attr]):
        raise ValueError(f"cell {attr} of the query is not missing")
    if not donors:
        raise NoDonorsError("empty donor set")
    if len(donors) == 1:
        return float(g1.matrix[donors[0], attr]), "single-donor"
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
    """Pipeline knobs, checked when built: selection mode, cluster count
    (derived from the labels when omitted), k-means init.  Never mutated."""

    def __init__(self, mode: str = MODE_ABSOLUTE, k: int | None = None, init: InitPolicy = FarthestFirst(0)) -> None:
        self.mode, self.k, self.init = check_mode(mode), k, init
        check_clustering(k, init)


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
    (attrs), its value and its tie policy.  runs holds each distinct set
    of tied donors once, as donor-pool positions, and run[j] is query
    j's index into it.  fills is built from these columns when first
    read.  Never mutated."""

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
        run: Sequence[int] = (),
        runs: Sequence[tuple[int, ...]] = (),
    ) -> None:
        self.dataset, self.mode, self.model, self.maps = dataset, mode, model, maps
        self.rows, self.attrs, self.values, self.policies = rows, attrs, values, policies
        self.run, self.runs = run, runs

    @cached_property
    def fills(self) -> tuple[CellFill, ...]:
        """Provenance per imputed cell, in row order."""
        query_ids, names, cell_runs, symbols = self._cells()
        named = [tuple(self.maps.donor_ids[d] for d in donors) for donors in self.runs]
        donor_ids = [named[r] for r in cell_runs]
        return tuple(map(CellFill, query_ids, self.attrs, names, donor_ids, self.values, symbols, self.policies))

    def _cells(self) -> tuple[list[str], list[str], list[int], list[str | None]]:
        """Per imputed cell: its query's id, its attribute's name, its
        query's index into runs and its value's symbol (None for a
        numeric attribute)."""
        if self.maps is None:
            return [], [], [], []
        specs = self.dataset.schema.attributes
        symbols: list[str | None] = [None] * len(self.values)
        attrs, values = np.array(self.attrs, dtype=np.intp), np.array(self.values, dtype=float)
        for a, spec in enumerate(specs):
            if spec.kind == CATEGORICAL:
                cells = np.flatnonzero(attrs == a).tolist()
                for i, symbol in zip(cells, _symbol_column(spec, values[cells])):
                    symbols[i] = symbol
        return (
            [self.maps.query_ids[j] for j in self.rows],
            [specs[a].name for a in self.attrs],
            [self.run[j] for j in self.rows],
            symbols,
        )


def missing_cells(dataset: Dataset, no_donors: str) -> np.ndarray | None:
    """The dataset's missing-cell mask, or None when no cell is
    missing; NoDonorsError(no_donors) when no record is complete."""
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

    g1, g2 = split_groups(dataset)
    model = cluster(g1, resolve_k(config.k, dataset), config.init)
    maps = build_mapping(g1, g2, model)

    run, runs = _select_all(maps, maps.query_values, config.mode)
    classes = [_tie_class(donors, g1, maps) if len(donors) > 1 else None for donors in runs]
    rows, attrs = (a.tolist() for a in np.nonzero(missing[missing.any(axis=1)]))  # the holes of g2, row by row
    specs, queries = dataset.schema.attributes, g2.matrix
    values, policies = [], []
    for j, attr in zip(rows, attrs):
        r = run[j]
        value, policy = _fill_value(queries[j], attr, runs[r], g1, specs[attr], classes[r])
        values.append(value)
        policies.append(policy)
    completed = dataset.matrix.copy()
    completed[missing] = values  # the same holes in the same order
    completed = Dataset(dataset.schema, dataset.ids, dataset.labels, completed, dataset.field_texts)
    return ImputationResult(completed, config.mode, model, maps, rows, attrs, values, policies, run, runs)


def provenance_csv(result: ImputationResult) -> str:
    """One row per imputed cell, for audit, built a column at a time
    from the result's columns; no CellFill is built."""
    query_ids, names, cell_runs, symbols = result._cells()
    joined = [";".join(result.maps.donor_ids[d] for d in donors) for donors in result.runs]
    return csv_text(
        ["query", "attribute", "donors", "value", "symbol", "mode", "tie_policy"],
        [
            query_ids,
            names,
            [joined[r] for r in cell_runs],
            format_column(np.array(result.values, dtype=float)),
            ["" if symbol is None else symbol for symbol in symbols],
            [result.mode] * len(result.values),
            result.policies,
        ],
    )
