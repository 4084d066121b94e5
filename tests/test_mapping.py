"""Type-1/Type-2 distances and the scalar mapping values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmimpute.casestudy import expected_pairs, expected_values
from cmimpute.classify import classify_mapped, classify_raw_knn
from cmimpute.dataset import MAX_MAGNITUDE, NUMERIC, AttributeSpec, Dataset, Record, Schema, split_groups
from cmimpute.kmeans import ClusterModel
from cmimpute.mapping import MappingTable, build_mapping, map_values, squared_distances
from conftest import dataset_of

CENTROID_A = (1.75, 6.25, 1.25, 10.0)  # mean of R1, R4, R6, R9
CENTROID_B = (7 / 3, 6.0, 5 / 3, 5.0)  # mean of R2, R7, R8


def rec(rid: str, *cells) -> Record:
    return Record(rid, tuple(None if c is None else float(c) for c in cells))


def numeric(*records: Record) -> Dataset:
    """The records under a schema of numeric attributes a0, a1, ..."""
    return dataset_of(Schema(tuple(AttributeSpec(f"a{j}", NUMERIC) for j in range(len(records[0].cells)))), records)


def model_with(*centroids) -> ClusterModel:
    return ClusterModel(
        centroids=tuple(tuple(float(x) for x in c) for c in centroids),
        assignment={},
    )


def distance(record: Record, center) -> float:
    """The record's distance to the center over its observed cells."""
    return math.sqrt(squared_distances([record.cells], [center])[0, 0])


def query_map(record: Record, model: ClusterModel) -> float:
    """The record's mapping value, Map'(R), as build_mapping computes a
    query's."""
    return build_mapping(numeric(record).take([]), numeric(record), model).query_map[record.id]


finite = st.floats(-100, 100, allow_nan=False)


# --- type-1: a complete record's distance, over every cell ---


def test_type1_reference_values():
    r1 = rec("R1", 1, 5, 1, 10)
    assert distance(r1, CENTROID_A) == pytest.approx(1.47902, abs=1e-5)
    assert distance(r1, CENTROID_B) == pytest.approx(5.312459, abs=1e-5)


def test_type1_zero_at_own_centroid():
    r = rec("R", 2, 3, 4)
    assert distance(r, (2, 3, 4)) == 0.0


@given(st.lists(finite, min_size=1, max_size=8), st.data())
def test_type1_matches_brute_force(cells, data):
    center = data.draw(
        st.lists(finite, min_size=len(cells), max_size=len(cells))
    )
    record = rec("R", *cells)
    expected = math.sqrt(sum((a - b) ** 2 for a, b in zip(cells, center)))
    got = distance(record, center)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_type1_arity_and_missing_errors():
    with pytest.raises(ValueError, match="dataset has 2 attributes, the model's centroids 1"):
        query_map(rec("R", 1, 2), model_with((1.0,)))
    # Donors are mapped by type-1 distance, so a donor must be complete.
    with pytest.raises(ValueError, match="R has missing cells"):
        build_mapping(numeric(rec("R", 1, None)), numeric(rec("Q", 1, 2)).take([]), model_with((1.0, 2.0)))


def test_build_mapping_rejects_a_dataset_of_another_arity():
    # The kernel broadcasts, so without the check a one-attribute
    # dataset would map to numbers under a two-attribute model.
    queries = numeric(rec("Q", 1, 2)).take([])
    with pytest.raises(ValueError, match="dataset has 1 attributes, the model's centroids 2"):
        build_mapping(numeric(rec("R", 1)), queries, model_with((1.0, 2.0)))
    with pytest.raises(ValueError, match="dataset has 1 attributes"):
        build_mapping(numeric(rec("R", 1, 2)), numeric(rec("Q", 1)), model_with((1.0, 2.0)))
    # The mapped classifier reaches it through a model whose ids match.
    train = dataset_of(Schema((AttributeSpec("x", NUMERIC),), "class"), (Record("R1", (1.0,), "A"),))
    model = ClusterModel(((1.0, 2.0),), {"R1": 0})
    with pytest.raises(ValueError, match="dataset has 1 attributes"):
        classify_mapped(rec("Q", 1, 2), train, model)


# --- type-2 ---


def test_type2_reference_values():
    r3 = rec("R3", 1, 7, None, 7)
    r5 = rec("R5", 3, 3, 2, None)
    assert distance(r3, CENTROID_B) == pytest.approx(2.603417, abs=1e-5)
    assert distance(r3, CENTROID_A) == pytest.approx(3.181981, abs=1e-5)
    pair = sorted((distance(r5, CENTROID_A), distance(r5, CENTROID_B)))
    assert pair == pytest.approx([3.091206, 3.561952], abs=1e-5)


def test_type2_on_complete_record_equals_type1():
    # Raw 1-NN measures complete records by type-1 distance.
    r = rec("R", 2, 5, 2, 9)
    schema = Schema(tuple(AttributeSpec(f"a{i}", NUMERIC) for i in range(4)), "class")
    training = dataset_of(schema, (Record("C", CENTROID_A, "L"),))
    assert distance(r, CENTROID_A) == classify_raw_knn(r, training).table["C"]


@given(st.lists(finite, min_size=2, max_size=6), st.data())
def test_type2_never_exceeds_any_completion(cells, data):
    n = len(cells)
    missing_at = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    center = data.draw(st.lists(finite, min_size=n, max_size=n))
    holed = rec("R", *(None if i in missing_at else c for i, c in enumerate(cells)))
    partial = distance(holed, center)
    for _ in range(3):
        fill = data.draw(st.lists(finite, min_size=n, max_size=n))
        completed = rec(
            "C", *(fill[i] if i in missing_at else c for i, c in enumerate(cells))
        )
        assert partial <= distance(completed, center) + 1e-9


def test_type2_all_missing_rejected():
    with pytest.raises(ValueError, match="no observed"):
        query_map(rec("R", None, None), model_with((0.0, 0.0)))


# Thirds have long binary expansions, so differences and squares round.
rounding = st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x / 3)


@given(st.lists(rounding, min_size=1, max_size=8), st.data())
def test_distances_and_knn_donor_key_agree_bit_for_bit(cells, data):
    n = len(cells)
    center = data.draw(st.lists(rounding, min_size=n, max_size=n))
    missing_at = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    complete = rec("R", *cells)
    holed = rec("H", *(None if i in missing_at else c for i, c in enumerate(cells)))

    def knn_key(r):
        # The raw-kNN donor's key, written out over the observed cells.
        return left_to_right((c - u) ** 2 for c, u in zip(r.cells, center) if c is not None)

    # The donor baseline puts the query's NaN row second.
    assert squared_distances([center], [holed.cells])[0, 0] == knn_key(holed)
    assert squared_distances([complete.cells, holed.cells], [center]).tolist() == [
        [knn_key(complete)],
        [knn_key(holed)],
    ]
    assert distance(complete, center) == math.sqrt(knn_key(complete))
    assert distance(holed, center) == math.sqrt(knn_key(holed))


# --- the kernel against a scalar reference ---


def left_to_right(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def reference_squared(cells, center) -> float:
    """Python's arithmetic: (c - u) ** 2 through libm pow, added left
    to right over the coordinates both sides observe."""
    return left_to_right((c - u) ** 2 for c, u in zip(cells, center) if c is not None and u is not None)


# Values hypothesis picks: magnitudes up to the parse bound and small
# integers, so that exact ties and duplicate rows are common.
special_values = st.one_of(
    st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE), st.integers(-3, 3).map(float)
)


@given(st.integers(1, 12), st.integers(1, 4), st.data())
def test_kernel_matches_the_scalar_reference_bit_for_bit(n, k, data):
    # Seeded sevenths of large integers: NumPy's square rounds their
    # differences unlike pow about once in 130, and its sum adds 8 or
    # more terms pairwise, so a kernel using either fails here.  Power
    # of two scales keep the mantissas and reach the parse bound.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([2.0**-30, 1.0, 2.0**300]))
    m = data.draw(st.integers(1, 8))
    rows = (rng.integers(-(10**9), 10**9, (m + k, n)) / 7 * scale).tolist()
    cell = st.tuples(st.integers(0, m + k - 1), st.integers(0, n - 1))
    for i, j in data.draw(st.sets(cell, max_size=m + k)):
        rows[i][j] = data.draw(special_values)
    centers = rows[m:] if data.draw(st.booleans()) else data.draw(st.lists(st.sampled_from(rows), min_size=k, max_size=k))
    rows = rows[:m] + data.draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    # Holes on both sides: baseline_knn_donor passes its queries,
    # NaN cells and all, as U.
    holes = data.draw(st.sets(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, n - 1)), max_size=m))
    cells = [
        tuple(None if (i, j) in holes else v for j, v in enumerate(r)) for i, r in enumerate(rows)
    ]
    center_holes = data.draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)), max_size=k))
    centers = [
        tuple(None if (i, j) in center_holes else v for j, v in enumerate(u)) for i, u in enumerate(centers)
    ]

    got = squared_distances(cells, centers).tolist()
    assert got == [[reference_squared(c, u) for u in centers] for c in cells]
    maps = map_values(cells, centers).tolist()
    assert maps == [left_to_right(math.sqrt(reference_squared(c, u)) for u in centers) for c in cells]


def test_kernel_squares_with_pow_not_multiplication():
    # x * x and np.square give 0.13134695247455289 here; pow gives ...286.
    x = 0.3624182010806754
    assert x**2 == 0.13134695247455286 != x * x
    assert squared_distances([[x]], [[0.0]])[0, 0] == x**2
    assert distance(rec("R", x), (0.0,)) == math.sqrt(x**2)


# --- mapping values ---


def test_map_complete_reference_values(missing_dataset, imputation_model):
    expected = expected_values("table09")
    split = split_groups(missing_dataset)
    complete_map = build_mapping(split.g1, split.g2, imputation_model).complete_map
    for rid, value in expected.items():
        assert complete_map[rid] == pytest.approx(value, abs=1e-5), rid
    assert min(expected, key=expected.get) == "R8"


def test_map_query_self_consistent_sums(missing_dataset, imputation_model):
    # Sums of the per-cluster partial distances, not the values the
    # reference table prints for these two rows (see ERRATA.md).
    assert query_map(missing_dataset.record("R3"), imputation_model) == pytest.approx(
        5.785398, abs=1e-5
    )
    assert query_map(missing_dataset.record("R5"), imputation_model) == pytest.approx(
        6.653158, abs=1e-5
    )


def test_map_query_complete_record_reference_value(classification_model):
    r10 = rec("R10", 2, 5, 2, 9)
    assert query_map(r10, classification_model) == pytest.approx(5.053384, abs=1e-5)


def test_map_query_equals_map_complete_for_complete_records():
    model = model_with((0, 0), (3, 4))
    r = rec("R", 1, 1)
    table = build_mapping(numeric(r), numeric(r), model)
    assert table.complete_map["R"] == table.query_map["R"]


def test_map_zero_for_record_at_sole_centroid():
    model = model_with((2, 3, 4))
    assert query_map(rec("R", 2, 3, 4), model) == 0.0


@given(
    st.lists(finite, min_size=2, max_size=5),
    st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=4),
)
def test_map_invariant_under_centroid_permutation(cells, centers):
    centers = [c[:2] for c in centers]
    record = rec("R", *cells[:2])
    forward = model_with(*centers)
    backward = model_with(*reversed(centers))
    assert query_map(record, forward) == pytest.approx(
        query_map(record, backward), rel=1e-12
    )


# --- the table type ---


def test_mapping_table_rejects_bad_values():
    with pytest.raises(ValueError):
        MappingTable(["R1"], [-0.5], [], [])
    with pytest.raises(ValueError):
        MappingTable(["R1"], [1.0], ["Q1"], [float("nan")])
    with pytest.raises(ValueError):
        MappingTable(["R1"], [float("inf")], [], [])


def test_build_mapping_covers_exactly_the_given_ids(missing_dataset, imputation_model):
    split = split_groups(missing_dataset)
    table = build_mapping(split.g1, split.g2, imputation_model)
    assert set(table.complete_map) == set(split.g1.ids)
    assert set(table.query_map) == {"R3", "R5"}
    assert all(v >= 0 and math.isfinite(v) for v in table.complete_map.values())


def test_unordered_pair_fixture_matches_computation(missing_dataset, imputation_model):
    # The reference table's two distance columns are compared as
    # unordered pairs because its cluster labels are swapped relative
    # to the clustering table.
    expected = expected_pairs("table10")
    for rid, pair in expected.items():
        record = missing_dataset.record(rid)
        computed = sorted(
            distance(record, c) for c in imputation_model.centroids
        )
        assert computed == pytest.approx(sorted(pair), abs=1e-5)

