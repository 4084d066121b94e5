"""The difference table, donor selection, tie rules, and the
end-to-end fill pipeline."""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmimpute.casestudy import (
    CLASSIFICATION_PARTITION,
    IMPUTATION_PARTITION,
    expected_values,
    fixture_text,
    load_classification_dataset,
    load_normalized_dataset,
)
from cmimpute.classify import classify_mapped
from cmimpute.dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    Dataset,
    Record,
    Schema,
    dataset_to_csv,
    parse_dataset,
    schema_from_dict,
    split_groups,
)
from cmimpute.errors import ConfigError, InsufficientDataError, NoDonorsError
import cmimpute.impute
from cmimpute.evaluate import inject_mcar, make_synthetic_dataset, mask_cells
from cmimpute.impute import (
    MODE_ABSOLUTE,
    MODE_SIGNED,
    MODES,
    CellFill,
    ImputeConfig,
    difference_table,
    _fill_value,
    _select_all,
    _tie_class,
    impute_dataset,
    nearest_record,
    provenance_csv,
)
from cmimpute.kmeans import FarthestFirst, FixedPartition, SeededRandom, cluster
from cmimpute.mapping import MappingTable, build_mapping
from conftest import dataset_of, mapping_table, new_record


def rec(rid: str, *cells, label=None) -> Record:
    return Record(rid, tuple(None if c is None else float(c) for c in cells), label)


def missing_at(r: Record) -> list[int]:
    """The attribute indices of the record's missing cells."""
    return [i for i, c in enumerate(r.cells) if c is None]


def table_of(complete: dict[str, float], queries: dict[str, float]):
    return difference_table(mapping_table(complete, queries))


def brute_nearest(maps: MappingTable, query_id: str, mode: str) -> tuple[str, ...]:
    """Donor selection by its definition: scan the whole difference
    column of the query for the minimal (signed or absolute) entry."""
    table = difference_table(maps)
    key = (lambda d: d) if mode == MODE_SIGNED else abs
    column = {i: key(table.entries[(i, query_id)]) for i in table.g1_ids}
    best = min(column.values())
    return tuple(i for i in table.g1_ids if column[i] == best)


# --- difference table ---


def test_difference_reference_column():
    # The reference difference grid was derived from a query mapping
    # value that repeats a donor row (see ERRATA.md); replaying that
    # value reproduces the printed column exactly.
    complete = expected_values("table09")
    table = table_of(complete, {"R3": 6.791479})
    assert table.entries[("R8", "R3")] == pytest.approx(-1.31233, abs=1e-5)
    assert table.entries[("R1", "R3")] == pytest.approx(0.0, abs=1e-5)


def test_difference_is_exact_subtraction():
    table = table_of({"R1": 3.5, "R2": 1.25}, {"Q1": 2.0, "Q2": 0.5})
    assert set(table.entries) == {("R1", "Q1"), ("R1", "Q2"), ("R2", "Q1"), ("R2", "Q2")}
    for (i, j), d in table.entries.items():
        assert d + {"Q1": 2.0, "Q2": 0.5}[j] == {"R1": 3.5, "R2": 1.25}[i]


def test_difference_zero_when_maps_equal():
    table = table_of({"R1": 2.0}, {"Q1": 2.0})
    assert table.entries[("R1", "Q1")] == 0.0


def test_difference_requires_donors_and_queries():
    with pytest.raises(NoDonorsError):
        table_of({}, {"Q1": 1.0})
    with pytest.raises(InsufficientDataError, match="^no query records in the mapping table$"):
        table_of({"R1": 1.0}, {})


# --- nearest record ---


def test_nearest_signed_reference_replay():
    complete = expected_values("table09")
    assert nearest_record(mapping_table(complete, {"R3": 6.791479}), "R3", MODE_SIGNED) == ("R8",)
    assert nearest_record(mapping_table(complete, {"R5": 6.588532}), "R5", MODE_SIGNED) == ("R8",)


def test_nearest_absolute_on_replayed_column_picks_zero():
    complete = expected_values("table09")
    maps = mapping_table(complete, {"R3": 6.791479})
    assert nearest_record(maps, "R3", MODE_ABSOLUTE) == ("R1",)


def test_nearest_returns_all_ties_in_donor_order():
    maps = mapping_table({"R1": 2.0, "R2": 4.0, "R3": 2.0}, {"Q1": 1.0})
    assert nearest_record(maps, "Q1", MODE_SIGNED) == ("R1", "R3")
    assert nearest_record(maps, "Q1", MODE_ABSOLUTE) == ("R1", "R3")


def test_nearest_rejects_unknown_query_and_mode():
    maps = mapping_table({"R1": 1.0}, {"Q1": 1.0})
    with pytest.raises(KeyError):
        nearest_record(maps, "Q9", MODE_SIGNED)
    with pytest.raises(ValueError, match="mode"):
        nearest_record(maps, "Q1", "closest")


@pytest.mark.parametrize("mode", MODES)
def test_nearest_without_donors_raises_no_donors(mode):
    maps = mapping_table({}, {"Q1": 1.0})
    with pytest.raises(NoDonorsError, match="no complete records to select from"):
        nearest_record(maps, "Q1", mode)


def test_nearest_checks_the_mode_before_the_donors():
    with pytest.raises(ValueError, match="mode"):
        nearest_record(mapping_table({}, {"Q1": 1.0}), "Q1", "closest")


# Half-integer grid keeps the map subtraction exact, so difference
# ties happen exactly when the underlying mapping values tie.
half_integers = st.integers(0, 100).map(lambda v: v / 2)


@given(
    st.dictionaries(
        st.sampled_from([f"R{i}" for i in range(1, 9)]),
        half_integers,
        min_size=1,
        max_size=8,
    ),
    st.dictionaries(
        st.sampled_from([f"Q{i}" for i in range(1, 5)]),
        half_integers,
        min_size=1,
        max_size=4,
    ),
)
def test_signed_mode_ignores_the_query(complete, queries):
    maps = mapping_table(complete, queries)
    best_map = min(complete.values())
    expected = tuple(i for i in complete if complete[i] == best_map)
    for q in queries:
        assert nearest_record(maps, q, MODE_SIGNED) == expected


@given(
    st.dictionaries(
        st.sampled_from([f"R{i}" for i in range(1, 9)]),
        st.floats(0, 50, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.floats(0, 50, allow_nan=False),
)
def test_absolute_mode_is_scalar_nearest_neighbor(complete, query_value):
    got = nearest_record(mapping_table(complete, {"Q1": query_value}), "Q1", MODE_ABSOLUTE)
    best = min(abs(v - query_value) for v in complete.values())
    expected = tuple(i for i in complete if abs(complete[i] - query_value) == best)
    assert got == expected


def _ulps_up(value: float, n: int) -> float:
    for _ in range(n):
        value = float(np.nextafter(value, np.inf))
    return value


# Mapping values built to stress exact-float ties: exact duplicates,
# np.nextafter neighbours, and magnitudes near 1e16 where one ulp is 2,
# so a - c rounds distinct donors onto the same difference.
close_values = st.one_of(
    st.builds(
        lambda base, shift, ulps: _ulps_up(base + shift, ulps),
        st.sampled_from([0.0, 1.0, 7.25, 1e16, 2.0**53]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        st.integers(0, 3),
    ),
    st.floats(0, 1e17, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300)
@given(
    st.lists(close_values, min_size=1, max_size=12),
    st.lists(close_values, min_size=1, max_size=4),
)
def test_sorted_selection_matches_the_difference_table_scan(donor_values, query_values):
    maps = mapping_table(
        {f"R{i}": v for i, v in enumerate(donor_values)},
        {f"Q{j}": v for j, v in enumerate(query_values)},
    )
    for q in maps.query_map:
        for mode in MODES:
            assert nearest_record(maps, q, mode) == brute_nearest(maps, q, mode)


def test_sorted_selection_keeps_ties_rounding_merges():
    # One ulp at 1e16 is 2, so the differences of the first three
    # donors all round to -1e16: they tie although their values differ.
    donors = {"R1": 1.0, "R2": 0.0, "R3": 0.5, "R4": 4.0}
    maps = mapping_table(donors, {"Q1": 1e16})
    assert nearest_record(maps, "Q1", MODE_SIGNED) == ("R1", "R2", "R3")
    assert nearest_record(maps, "Q1", MODE_SIGNED) == brute_nearest(maps, "Q1", MODE_SIGNED)
    assert nearest_record(maps, "Q1", MODE_ABSOLUTE) == ("R4",)
    assert nearest_record(maps, "Q1", MODE_ABSOLUTE) == brute_nearest(maps, "Q1", MODE_ABSOLUTE)


def test_long_tie_runs_select_as_the_scan_does_and_share_one_tuple():
    # About 3,000 donors on three values, each with a few nextafter
    # neighbours, in shuffled pool order.  A query far from a group
    # rounds the group and its neighbours onto one difference, so a run
    # spans distinct values; 1e17 and 2e17 land on the same run in both
    # modes.
    def group(b: float) -> list[float]:
        return [b] * 990 + [float(np.nextafter(b, -np.inf))] * 3 + [_ulps_up(b, 1)] * 3 + [_ulps_up(b, 2)] * 2

    values = np.random.default_rng(4).permutation([v for b in (1.0, 7.25, 1e16) for v in group(b)]).tolist()
    queries = (0.0, 3.0, 7.25, 5e15, 1e16, 1e17, 2e17)
    maps = mapping_table({f"R{i}": v for i, v in enumerate(values)}, {f"Q{j}": c for j, c in enumerate(queries)})
    for mode in MODES:
        for q in maps.query_map:
            assert nearest_record(maps, q, mode) == brute_nearest(maps, q, mode)
        run, runs = _select_all(maps, maps.query_values, mode)
        assert len(runs[run[5]]) > 990 and run[5] == run[6]  # one index, so one tuple
        assert sorted(set(run)) == list(range(len(runs))) and len(set(runs)) == len(runs)


# --- single-cell fills ---

NUM_SPEC = AttributeSpec("x", NUMERIC)
CAT_SPEC = AttributeSpec("c", CATEGORICAL, {"u": 1, "v": 2, "w": 3})
# Only a class-count tie reads mapping values; these ties have none.
NO_TIE_MAPS = mapping_table({}, {})


def tie_fill(query, attr, donors, g1, spec, maps=NO_TIE_MAPS):
    """_fill_value for tied donors, given their _tie_class, as
    impute_dataset finds it once per run."""
    return _fill_value(query, attr, donors, g1, spec, _tie_class(donors, g1, maps))


def pool(*records: Record) -> Dataset:
    """Donor records under a schema of numeric attributes."""
    return dataset_of(Schema(tuple(AttributeSpec(f"a{j}", NUMERIC) for j in range(len(records[0].cells)))), records)


def row(*cells) -> np.ndarray:
    """A query's row of cells, NaN for a missing one."""
    return np.array([np.nan if c is None else float(c) for c in cells])


def test_single_donor_fills_verbatim():
    g1 = pool(rec("R8", 3, 6, 2, 7, label="CLASS-2"))
    assert _fill_value(row(1, 7, None, 7), 2, (0,), g1, CAT_SPEC, None) == (2.0, "single-donor")
    assert _fill_value(row(3, 3, 2, None), 3, (0,), g1, NUM_SPEC, None) == (7.0, "single-donor")


def test_tied_donors_numeric_mean_over_donor_class():
    g1 = pool(
        rec("R1", 0, 5, label="A"),
        rec("R2", 4, 9, label="A"),
        rec("R3", 2, 100, label="B"),
    )
    assert tie_fill(row(1, None), 1, (0, 1), g1, NUM_SPEC) == (7.0, "mean-same-class")


def test_tied_donors_categorical_mode_over_donor_class():
    g1 = pool(
        rec("R1", 0, 1, label="A"),
        rec("R2", 4, 1, label="A"),
        rec("R3", 2, 2, label="A"),
        rec("R4", 9, 3, label="B"),
    )
    assert tie_fill(row(1, None), 1, (0, 2), g1, CAT_SPEC) == (1.0, "modal-same-class")


def test_categorical_modal_tie_takes_smallest_value():
    g1 = pool(
        rec("R1", 0, 2, label="A"),
        rec("R2", 4, 1, label="A"),
    )
    assert tie_fill(row(1, None), 1, (0, 1), g1, CAT_SPEC) == (1.0, "modal-same-class")


def test_class_count_tie_resolved_by_lowest_mapping_donor():
    g1 = pool(
        rec("R1", 0, 5, label="A"),
        rec("R2", 4, 9, label="B"),
        rec("R4", 2, 7, label="A"),
    )
    donors = (1, 0)  # donor order must not decide
    maps = mapping_table({"R1": 2.0, "R2": 4.0, "R4": 3.0}, {"Q": 3.0})
    # R1 has the lowest mapping value, so class A's records average.
    assert tie_fill(row(1, None), 1, donors, g1, NUM_SPEC, maps) == (6.0, "mean-same-class")


def test_mean_fill_adds_left_to_right_on_every_python(compensated_sum):
    # 1e16 + 1 rounds back to 1e16, so left to right the pool sums to
    # 0; a compensated sum() gives 1 and a fill of 1/3.
    assert sum([1e16, 1.0, -1e16]) == 1.0
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(
        schema,
        (
            rec("R1", 1e16, 0, label="A"),
            rec("R2", 1, 0, label="A"),
            rec("R3", -1e16, 0, label="A"),
            rec("Q", None, 1e16, label="A"),
        ),
    )
    # One centroid at the origin: R1 and R3 both map to 1e16, as Q does.
    fill = impute_dataset(ds, ImputeConfig(mode=MODE_ABSOLUTE)).fills[0]
    assert fill.donor_ids == ("R1", "R3")
    assert (fill.value, fill.tie_policy) == (0.0, "mean-same-class")


def test_unlabeled_donors_pool_is_the_donors():
    g1 = pool(rec("R1", 0, 5), rec("R2", 4, 9), rec("R3", 2, 100))
    assert tie_fill(row(1, None), 1, (0, 1), g1, NUM_SPEC) == (7.0, "mean-tied-donors")


def test_fill_value_contract_errors():
    g1 = pool(rec("R1", 1, 2))
    with pytest.raises(ValueError, match="not missing"):
        _fill_value(row(1, 2), 1, (0,), g1, NUM_SPEC, None)
    with pytest.raises(NoDonorsError):
        _fill_value(row(1, None), 1, (), g1, NUM_SPEC, None)


# --- the full pipeline ---


def test_pipeline_recovers_reference_values(missing_dataset):
    config = ImputeConfig(mode=MODE_SIGNED, init=FixedPartition(IMPUTATION_PARTITION))
    result = impute_dataset(missing_dataset, config)

    assert [(f.query_id, f.attr_name) for f in result.fills] == [("R3", "A3"), ("R5", "A4")]
    r3_fill, r5_fill = result.fills
    assert r3_fill.value == 2.0 and r3_fill.symbol == "d32"
    assert r5_fill.value == 7.0 and r5_fill.symbol is None
    assert r3_fill.donor_ids == ("R8",) and r5_fill.donor_ids == ("R8",)
    assert r3_fill.tie_policy == "single-donor"

    truth = load_normalized_dataset()
    for r in result.dataset.records:
        assert r.cells == truth.record(r.id).cells
        assert r.label == truth.record(r.id).label


def test_pipeline_on_complete_dataset_is_identity(normalized_dataset):
    encoded = normalized_dataset
    result = impute_dataset(encoded, ImputeConfig(init=FarthestFirst(5)))
    assert result.dataset == encoded
    assert result.fills == ()
    assert result.model is None and result.maps is None


def test_pipeline_rejects_record_with_no_observed_values():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(
        schema,
        (
            rec("R1", 1, 2, label="a"),
            rec("R2", 3, 4, label="b"),
            rec("R3", None, None, label="a"),
        ),
    )
    with pytest.raises(InsufficientDataError, match="R3"):
        impute_dataset(ds, ImputeConfig(k=1))


def test_pipeline_with_no_complete_records_raises():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(schema, (rec("R1", None, 2, label="a"), rec("R2", 3, None, label="a")))
    with pytest.raises(NoDonorsError):
        impute_dataset(ds, ImputeConfig(k=1))


def test_pipeline_k_larger_than_donor_pool_raises():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(
        schema,
        (rec("R1", 1, 2, label="a"), rec("R2", 3, 4, label="b"), rec("R3", None, 4, label="a")),
    )
    with pytest.raises(InsufficientDataError):
        impute_dataset(ds, ImputeConfig(k=5))


def test_pipeline_unlabeled_dataset_needs_explicit_k():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)))
    ds = dataset_of(schema, (rec("R1", 1, 2), rec("R2", 3, 4), rec("R3", None, 4)))
    with pytest.raises(ConfigError, match="k"):
        impute_dataset(ds)
    result = impute_dataset(ds, ImputeConfig(k=1))
    assert result.dataset.is_complete


def test_config_validation():
    with pytest.raises(ConfigError, match="mode"):
        ImputeConfig(mode="sideways")
    with pytest.raises(ConfigError, match="k"):
        ImputeConfig(k=0)
    for k in ("2", 1.5, True):
        with pytest.raises(ConfigError, match=f"^k must be an integer, got {k!r}$"):
            ImputeConfig(k=k)
    # Each init policy is checked when the config is built, not at k-means time.
    for init in ("x", SeededRandom(-1), SeededRandom("a"), FarthestFirst(1.5), FixedPartition(5)):
        with pytest.raises(ConfigError, match="init"):
            ImputeConfig(init=init)


def test_natural_tie_flows_through_provenance():
    # Two donors at the same mapping value: equidistant from their
    # shared centroid, so the query ties on both and the class pool
    # rule decides the fill.
    schema = Schema(
        (AttributeSpec("x", NUMERIC), AttributeSpec("c", CATEGORICAL, {"u": 1, "v": 2})),
        "class",
    )
    ds = dataset_of(
        schema,
        (
            rec("R1", 0, 1, label="A"),
            rec("R2", 4, 2, label="A"),
            rec("R3", 1, None, label="A"),
        ),
    )
    result = impute_dataset(ds, ImputeConfig(mode=MODE_ABSOLUTE, k=1))
    fill = result.fills[0]
    assert fill.donor_ids == ("R1", "R2")
    assert fill.tie_policy == "modal-same-class"
    assert fill.value == 1.0 and fill.symbol == "u"


def reference_fill(donors, g1, attr, spec, maps) -> tuple[float, str]:
    """A cell's fill and tie policy by their definition, scanning the
    whole donor pool for the tie-settling class on every call."""
    if len(donors) == 1:
        return donors[0].cells[attr], "single-donor"
    counts = Counter(d.label for d in donors if d.label is not None)
    if counts:
        top = max(counts.values())
        contenders = [d for d in donors if counts[d.label] == top]
        klass = min(contenders, key=lambda d: maps.complete_map[d.id]).label
        pool, suffix = [r for r in g1 if r.label == klass], "same-class"
    else:
        pool, suffix = donors, "tied-donors"
    values = [r.cells[attr] for r in pool]
    if spec.kind == CATEGORICAL:
        modes = Counter(values)
        return min(v for v, n in modes.items() if n == max(modes.values())), f"modal-{suffix}"
    total = 0.0
    for v in values:  # left to right, as on every Python
        total += v
    return total / len(values), f"mean-{suffix}"


def reference_text(dataset: Dataset, fills: dict, mode: str) -> tuple[str, str]:
    """The completed table and the provenance CSV written one record at
    a time, from the masked records and the expected fills (donors,
    value and policy per (query id, attribute))."""

    def render(spec, value):
        if value is None:
            return "?"
        if spec.kind == CATEGORICAL:
            return {ordinal: symbol for symbol, ordinal in spec.encoding.items()}[value]
        return str(int(value)) if abs(value) < 1e15 and value == int(value) else repr(value)

    attrs = dataset.schema.attributes
    table, provenance = io.StringIO(), io.StringIO()
    table_writer = csv.writer(table, lineterminator="\n")
    table_writer.writerow([*dataset.schema.attribute_names, dataset.schema.label_column])
    provenance_writer = csv.writer(provenance, lineterminator="\n")
    provenance_writer.writerow(["query", "attribute", "donors", "value", "symbol", "mode", "tie_policy"])
    for r in dataset.records:
        cells = list(r.cells)
        for attr in missing_at(r):
            donors, value, policy = fills[r.id, attr]
            cells[attr] = value
            symbol = render(attrs[attr], value) if attrs[attr].kind == CATEGORICAL else ""
            number = str(int(value)) if abs(value) < 1e15 and value == int(value) else repr(value)
            provenance_writer.writerow([r.id, attrs[attr].name, ";".join(donors), number, symbol, mode, policy])
        table_writer.writerow([render(spec, c) for spec, c in zip(attrs, cells)] + [r.label or ""])
    return table.getvalue(), provenance.getvalue()


def check_stages_against_brute_force(masked: Dataset, seed: int, mode: str = MODE_ABSOLUTE, k: int | None = None):
    """Recompute every pipeline stage independently, one record at a
    time, and compare bit for bit, down to the bytes written."""
    k = masked.n_classes if k is None else k
    config = ImputeConfig(mode=mode, k=k, init=FarthestFirst(seed))
    result = impute_dataset(masked, config)

    split = split_groups(masked)
    model = cluster(split.g1, k, FarthestFirst(seed))
    assert model == result.model
    maps = build_mapping(split.g1, split.g2, model)
    assert maps == result.maps
    g1 = split.g1.records
    by_id = {r.id: r for r in g1}

    assert result.dataset.is_complete
    expected = {}
    for r in split.g2.records:
        donors = brute_nearest(maps, r.id, mode)
        for attr in missing_at(r):
            spec = masked.schema.attributes[attr]
            value, policy = reference_fill([by_id[d] for d in donors], g1, attr, spec, maps)
            expected[r.id, attr] = (donors, value, policy)
    assert [(f.query_id, f.attr_index) for f in result.fills] == list(expected)
    for fill in result.fills:
        assert (fill.donor_ids, fill.value, fill.tie_policy) == expected[fill.query_id, fill.attr_index]
        assert result.dataset.record(fill.query_id).cells[fill.attr_index] == fill.value
    table, provenance = reference_text(masked, expected, mode)
    assert dataset_to_csv(result.dataset) == table
    assert provenance_csv(result) == provenance
    return result


def test_every_stage_matches_a_brute_force_recomputation():
    base = make_synthetic_dataset(20, seed=3)
    masked, _ = mask_cells(
        base, [(base.records[2].id, 0), (base.records[7].id, 4), (base.records[11].id, 6)]
    )
    result = check_stages_against_brute_force(masked, seed=9)
    assert len(result.fills) == 3


def test_tie_heavy_stages_match_a_brute_force_recomputation():
    # Every complete row has a twin with identical cells, so every query
    # ties on at least two donors.  Even-numbered twins carry another
    # class (a class-count tie settled by mapping value), odd-numbered
    # twins the same class (a plain majority).
    base = make_synthetic_dataset(24, seed=5)
    classes = base.classes
    twins = tuple(
        Record(
            f"T{n}",
            r.cells,
            classes[(classes.index(r.label) + (n % 2 == 0)) % len(classes)],
        )
        for n, r in enumerate(base.records)
    )
    doubled = dataset_of(base.schema, base.records + twins)
    holes = [(base.records[i].id, attr) for i, attr in ((1, 0), (6, 6), (13, 3), (18, 6), (20, 2))]
    masked, _ = mask_cells(doubled, holes)
    result = check_stages_against_brute_force(masked, seed=2)
    assert len(result.fills) == len(holes)
    policies = Counter(f.tie_policy for f in result.fills)
    assert policies["single-donor"] == 0
    assert policies["mean-same-class"] > 0 and policies["modal-same-class"] > 0


# Cells from a small grid, -0.0 included, and their next one or two
# floats up: rows repeat, so mapping values repeat, and nearly equal
# rows map to nextafter neighbours.
grid_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5]),
    st.builds(_ulps_up, st.sampled_from([0.0, 1.0, 2.0]), st.integers(1, 2)),
)
TIE_SCHEMA = Schema(
    (
        AttributeSpec("x", NUMERIC),
        AttributeSpec("y", NUMERIC),
        AttributeSpec("c", CATEGORICAL, {"u": 1, "v": 2, "w": 3}),
    ),
    "class",
)


@st.composite
def masked_tables(draw):
    rows = draw(
        st.lists(
            st.tuples(grid_cells, grid_cells, st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([None, "A", "B"])),
            min_size=3,
            max_size=14,
        )
    )
    holes = draw(st.sets(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 2)), min_size=1))
    records = []
    for i, (*cells, label) in enumerate(rows):
        holed = tuple(None if (i, j) in holes else c for j, c in enumerate(cells))
        records.append(Record(f"R{i + 1}", holed if None in holed and holed.count(None) < 3 else tuple(cells), label))
    return dataset_of(TIE_SCHEMA, tuple(records))


@settings(max_examples=150, deadline=None)
@given(masked_tables(), st.sampled_from(MODES), st.integers(1, 2), st.integers(0, 20))
def test_tie_runs_match_a_record_at_a_time_reference(masked, mode, k, seed):
    """Repeated and nextafter-close mapping values, unlabeled rows,
    -0.0 cells and categorical fills, in both modes: the batched
    selection and its tie fallback agree with the reference, and so do
    the bytes written."""
    assume(not masked.is_complete)
    assume(len({r.cells for r in masked.records if r.is_complete}) >= k)
    check_stages_against_brute_force(masked, seed, mode, k)


def test_tie_fills_compute_each_class_statistic_once(monkeypatch):
    # Cells from {0, 1, 2} and 5% MCAR: most queries tie on several
    # donors, and most tie fills share a (class, attribute) pool.
    rng = np.random.default_rng(8)
    cells = rng.integers(0, 3, (300, 3)).astype(float)
    cells[:, 2] += 1  # the categorical's ordinals
    labels = rng.choice(["A", "B", "C"], 300).tolist()
    complete = dataset_of(TIE_SCHEMA, tuple(Record(f"R{i + 1}", tuple(c), label) for i, (c, label) in enumerate(zip(cells.tolist(), labels))))
    masked, _ = inject_mcar(complete, 0.05, seed=3)
    computed = Counter()
    original = cmimpute.impute._pool_value

    def counting(values, spec):
        computed[tuple(values), spec.kind] += 1
        return original(values, spec)

    monkeypatch.setattr(cmimpute.impute, "_pool_value", counting)
    result = check_stages_against_brute_force(masked, seed=0)
    class_fills = [f for f in result.fills if f.tie_policy.endswith("-same-class")]
    assert len(class_fills) > 3 * len(computed)
    assert max(computed.values()) == 1


def tie_heavy_table() -> Dataset:
    """A TIE_SCHEMA table of cells from {0, 1, 2}, a third of it
    unlabeled, 10% MCAR: with k = 2 in absolute mode its fills take
    every tie policy."""
    rng = np.random.default_rng(1)
    cells = rng.integers(0, 3, (120, 3)).astype(float)
    cells[:, 2] += 1  # the categorical's ordinals
    labels = rng.choice(np.array(["A", "B", None], dtype=object), 120).tolist()
    records = tuple(Record(f"R{i + 1}", tuple(c), label) for i, (c, label) in enumerate(zip(cells.tolist(), labels)))
    return inject_mcar(dataset_of(TIE_SCHEMA, records), 0.1, seed=1)[0]


POLICIES = {"single-donor", "mean-same-class", "modal-same-class", "mean-tied-donors", "modal-tied-donors"}


def eager_fills(masked: Dataset, result) -> tuple[CellFill, ...]:
    """Every imputed cell's CellFill recomputed one cell at a time: the
    donors by a scan of the difference column, the value and policy by
    their definition, the symbol by decoding the value."""
    maps, split = result.maps, split_groups(masked)
    by_id = {r.id: r for r in split.g1.records}
    fills = []
    for r in split.g2.records:
        donors = brute_nearest(maps, r.id, result.mode)
        for attr in missing_at(r):
            spec = masked.schema.attributes[attr]
            value, policy = reference_fill([by_id[d] for d in donors], split.g1.records, attr, spec, maps)
            symbol = spec.decode_value(value) if spec.kind == CATEGORICAL else None
            fills.append(CellFill(r.id, attr, spec.name, donors, value, symbol, policy))
    return tuple(fills)


@pytest.mark.parametrize("mode", MODES)
def test_lazy_fills_equal_a_cell_at_a_time_recomputation(mode):
    masked = tie_heavy_table()
    result = impute_dataset(masked, ImputeConfig(mode=mode, k=2))
    assert "fills" not in vars(result)
    expected = eager_fills(masked, result)
    assert result.fills == expected
    assert [repr(f.value) for f in result.fills] == [repr(f.value) for f in expected]  # -0.0 too
    if mode == MODE_ABSOLUTE:
        assert {f.tie_policy for f in expected} == POLICIES


@pytest.mark.parametrize("mode", MODES)
def test_provenance_is_the_rendering_of_the_eager_fills(mode):
    result = impute_dataset(tie_heavy_table(), ImputeConfig(mode=mode, k=2))
    text = provenance_csv(result)
    assert "fills" not in vars(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query", "attribute", "donors", "value", "symbol", "mode", "tie_policy"])
    for f in result.fills:
        value = str(int(f.value)) if abs(f.value) < 1e15 and f.value == int(f.value) else repr(f.value)
        writer.writerow([f.query_id, f.attr_name, ";".join(f.donor_ids), value, f.symbol or "", mode, f.tie_policy])
    assert text == buf.getvalue()


def test_the_columnar_chain_builds_no_records():
    schema = schema_from_dict(json.loads(fixture_text("schema_missing.json")))
    raw = parse_dataset(fixture_text("table03_missing_raw.csv"), schema)
    result = impute_dataset(raw, ImputeConfig(mode=MODE_ABSOLUTE, k=2))
    assert dataset_to_csv(result.dataset).count("\n") == 10
    for dataset in (raw, result.dataset):
        assert "records" not in vars(dataset)


def test_selection_never_builds_the_difference_table(monkeypatch, missing_dataset):
    def forbidden(maps):
        raise AssertionError("donor selection built the m x q difference table")

    bound = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "cmimpute" or name.startswith("cmimpute.")
        for attr, value in vars(module).items()
        if value is difference_table
    ]
    assert bound
    for module, attr in bound:
        monkeypatch.setattr(module, attr, forbidden)

    base = make_synthetic_dataset(40, seed=11)
    synthetic, _ = mask_cells(base, [(base.records[i].id, i % 7) for i in range(0, 40, 5)])
    for dataset in (missing_dataset, synthetic):
        for mode in MODES:
            result = impute_dataset(dataset, ImputeConfig(mode=mode, init=FarthestFirst(1)))
            assert result.dataset.is_complete

    training = load_classification_dataset()
    model = cluster(training.records, 2, FixedPartition(CLASSIFICATION_PARTITION))
    queries = make_synthetic_dataset(12, seed=12).records[:3]
    synthetic_model = cluster(base.records, base.n_classes, FarthestFirst(0))
    for mode in MODES:
        assert classify_mapped(new_record(), training, model, mode).labels == ("Level-2",)
        for query in queries:
            assert len(classify_mapped(query, base, synthetic_model, mode).labels) >= 1


def test_imputed_records_never_donate_to_each_other():
    # Two incomplete records resolve against the same original donor
    # pool: filling one must not change the other's donor choice, and
    # donors only ever come from the originally complete records.
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    full = dataset_of(
        schema,
        (
            rec("R1", 0, 0, label="a"),
            rec("R2", 10, 10, label="b"),
            rec("R3", 2, 1, label="a"),
            rec("R4", None, 0.5, label="a"),
            rec("R5", None, 0.4, label="a"),
        ),
    )
    both = impute_dataset(full, ImputeConfig(mode=MODE_ABSOLUTE, k=1))
    solo = impute_dataset(
        dataset_of(schema, full.records[:4]), ImputeConfig(mode=MODE_ABSOLUTE, k=1)
    )
    assert {f.query_id for f in both.fills} == {"R4", "R5"}
    for fill in both.fills:
        assert set(fill.donor_ids) <= {"R1", "R2", "R3"}
    assert both.fills[0].donor_ids == solo.fills[0].donor_ids
    assert both.fills[0].value == solo.fills[0].value


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_filled_categoricals_always_decode(seed):
    base = make_synthetic_dataset(18, seed=seed)
    cat_index = next(
        i for i, a in enumerate(base.schema.attributes) if a.kind == CATEGORICAL
    )
    masked, _ = mask_cells(base, [(base.records[0].id, cat_index), (base.records[5].id, cat_index)])
    result = impute_dataset(masked, ImputeConfig(mode=MODE_ABSOLUTE, init=FarthestFirst(seed)))
    for fill in result.fills:
        spec = masked.schema.attributes[fill.attr_index]
        assert fill.symbol in spec.encoding
        assert float(spec.encoding[fill.symbol]) == fill.value


def test_pipeline_is_deterministic(missing_dataset):
    config = ImputeConfig(mode=MODE_ABSOLUTE, init=FarthestFirst(13))
    a = impute_dataset(missing_dataset, config)
    b = impute_dataset(missing_dataset, config)
    assert a.dataset == b.dataset
    assert a.fills == b.fills
    assert provenance_csv(a) == provenance_csv(b)


def test_impute_config_takes_its_seed_through_the_init_policy():
    assert "seed" not in inspect.signature(ImputeConfig).parameters
    assert ImputeConfig().init == FarthestFirst(0)
    assert type(ImputeConfig().init) is FarthestFirst


def test_provenance_csv_layout(missing_dataset):
    config = ImputeConfig(mode=MODE_SIGNED, init=FixedPartition(IMPUTATION_PARTITION))
    text = provenance_csv(impute_dataset(missing_dataset, config))
    lines = text.strip().splitlines()
    assert lines[0] == "query,attribute,donors,value,symbol,mode,tie_policy"
    assert lines[1] == "R3,A3,R8,2,d32,paper-signed,single-donor"
    assert lines[2] == "R5,A4,R8,7,,paper-signed,single-donor"


def three_point_table(m: int) -> Dataset:
    """m labeled records of 4 numeric attributes holding 3 distinct
    points, 5% of cells masked: nearly every query ties with hundreds of
    donors, and many queries share one donor tuple."""
    rng = np.random.default_rng(m)
    points = np.array([[0, 0, 0, 0], [1, 2, 3, 4], [5, 3, 1, 6]], dtype=float)
    schema = Schema(tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(4)), "class")
    labels = [f"C{c}" for c in rng.integers(1, 4, m).tolist()]
    table = Dataset(schema, [f"R{i}" for i in range(1, m + 1)], labels, points[rng.integers(0, 3, m)])
    return inject_mcar(table, 0.05, seed=0)[0]


# sha256 of dataset_to_csv(result.dataset) + provenance_csv(result) per
# table and mode, computed when every tied cell still looked its class up
# by its donor tuple.
TIE_TABLE_PINS = {
    ("3-points-1k", MODE_SIGNED): "7e1821f047f38b3b8db10e91542611271f4ba063e1a24a423c79b2d448182bd5",
    ("3-points-1k", MODE_ABSOLUTE): "77bb91ffe82d1f5e490f95b886264abf0ff0a1c464967e59702f1b9b260e3935",
    ("3-points-4k", MODE_SIGNED): "0ba2e3a59470a6ae972df019c6ff60b9cd95c34c17945f5663673013b3d675b1",
    ("3-points-4k", MODE_ABSOLUTE): "a431acf6cbd378d0447c7b0ed8299fc4debaa9de1fb8191f67717a0bf57e4978",
    ("every-policy", MODE_SIGNED): "41431a2dc39f6ff4f36a2563812fbf65ed75d378511ad8ff3a134aa51a032ca9",
    ("every-policy", MODE_ABSOLUTE): "e9a76c966175c449d79ec76ff154c15219927394263f8ba702bb1a799d3eaf1b",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "name, table, k",
    [
        ("3-points-1k", lambda: three_point_table(1000), 3),
        ("3-points-4k", lambda: three_point_table(4000), 3),
        ("every-policy", tie_heavy_table, 2),
    ],
    ids=["3-points-1k", "3-points-4k", "every-policy"],
)
def test_tie_class_runs_once_per_donor_tuple(monkeypatch, name, table, k, mode):
    tie_class, calls = cmimpute.impute._tie_class, []

    def counted(donors, g1, maps):
        calls.append(donors)
        return tie_class(donors, g1, maps)

    monkeypatch.setattr(cmimpute.impute, "_tie_class", counted)
    result = impute_dataset(table(), ImputeConfig(mode=mode, k=k))
    tied = [donors for donors in result.runs if len(donors) > 1]
    assert tied and sorted(calls) == sorted(tied)
    text = dataset_to_csv(result.dataset) + provenance_csv(result)
    assert hashlib.sha256(text.encode()).hexdigest() == TIE_TABLE_PINS[name, mode]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m", [1000, 4000])
def test_tie_fill_and_report_hash_no_donor_per_cell(monkeypatch, m, mode):
    # A scaling guard without a clock: every donor position the search
    # hands out is a counted int, so a lookup of a tied cell by its
    # donors, O(tie size) per cell, shows up as hashes.
    hashes = []

    class Counted(int):
        def __hash__(self):
            hashes.append(self)
            return int.__hash__(self)

    plain = MappingTable.sorted_arrays.func

    def counted(maps):
        padded, order = plain(maps)
        return padded, np.array([Counted(d) for d in order.tolist()], dtype=object)

    monkeypatch.setattr(MappingTable, "sorted_arrays", property(counted))
    result = impute_dataset(three_point_table(m), ImputeConfig(mode=mode, k=3))
    assert provenance_csv(result).count("\n") == len(result.values) + 1
    hashed = len(hashes)
    assert hashed <= sum(len(ids) for ids in {f.donor_ids for f in result.fills})
