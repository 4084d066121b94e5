"""The mapped classifier and the raw nearest-neighbor baseline."""

from __future__ import annotations

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cmimpute.classify
import cmimpute.mapping
from cmimpute.casestudy import expected_values, new_record
from cmimpute.classify import classify_mapped, classify_mapped_all, classify_raw_knn
from cmimpute.dataset import MAX_MAGNITUDE, NUMERIC, AttributeSpec, Dataset, Record, Schema
from cmimpute.errors import CannotClassifyError, NoDonorsError
from cmimpute.impute import MODE_ABSOLUTE, MODE_SIGNED, MODES
from cmimpute.kmeans import FarthestFirst, SeededRandom, cluster
from cmimpute.mapping import map_query, nearest_rows, squared_distances, type2_distance


def rec(rid: str, *cells, label=None) -> Record:
    return Record(rid, tuple(None if c is None else float(c) for c in cells), label)


def tiny_training(labels=("A", "B", "B")) -> Dataset:
    schema = Schema(
        (AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class"
    )
    return Dataset(
        schema,
        (
            rec("R1", 0, 0, label=labels[0]),
            rec("R2", 4, 0, label=labels[1]),
            rec("R3", 2, 3, label=labels[2]),
        ),
    )


# --- mapped classifier on the reference tables ---


def test_signed_mode_reference_outcome(classification_dataset, classification_model):
    outcome = classify_mapped(
        new_record(), classification_dataset, classification_model, MODE_SIGNED
    )
    assert outcome.labels == ("Level-2",)
    assert outcome.nearest == ("R8",)
    assert not outcome.is_ambiguous
    assert outcome.table["R8"] == pytest.approx(-0.19865, abs=1e-5)


def test_absolute_mode_same_label_through_recomputed_distances(
    classification_dataset, classification_model
):
    # Recomputed from the pinned centroids the nearest record is R9
    # (whose printed distance rows are inconsistent, see ERRATA.md);
    # the predicted label agrees with the reference outcome either way.
    outcome = classify_mapped(
        new_record(), classification_dataset, classification_model, MODE_ABSOLUTE
    )
    assert outcome.labels == ("Level-2",)
    assert outcome.nearest == ("R9",)


def test_mapped_default_mode_is_absolute(classification_dataset, classification_model):
    default = classify_mapped(new_record(), classification_dataset, classification_model)
    explicit = classify_mapped(
        new_record(), classification_dataset, classification_model, MODE_ABSOLUTE
    )
    assert default == explicit


def test_query_equal_to_training_record(classification_dataset, classification_model):
    r1 = classification_dataset.record("R1")
    query = Record("Q", r1.cells)
    outcome = classify_mapped(
        query, classification_dataset, classification_model, MODE_ABSOLUTE
    )
    assert outcome.nearest == ("R1",)
    assert outcome.labels == ("Level-1",)
    assert outcome.table["R1"] == 0.0


def test_mapped_table_is_map_difference(classification_dataset, classification_model):
    query = new_record()
    query_map = map_query(query, classification_model)
    column = {
        r.id: map_query(r, classification_model) - query_map
        for r in classification_dataset.records
    }
    for mode in MODES:
        outcome = classify_mapped(query, classification_dataset, classification_model, mode)
        assert outcome.table == column
        assert list(outcome.table) == list(column)
    with pytest.raises(TypeError):
        outcome.table["R1"] = 0.0


def test_mapped_tie_returns_all_labels():
    training = tiny_training(labels=("A", "B", "B"))
    # One cluster centered between R1 and R2 gives them equal mapping
    # values; a query on the bisector ties in both modes.
    model = cluster(training.records[:2], 1, SeededRandom(0))
    subset = Dataset(training.schema, training.records[:2])
    outcome = classify_mapped(rec("Q", 2, 5), subset, model, MODE_ABSOLUTE)
    assert outcome.labels == ("A", "B")
    assert outcome.nearest == ("R1", "R2")
    assert outcome.is_ambiguous


def test_predicted_label_always_from_training_classes(classification_dataset, classification_model):
    outcome = classify_mapped(
        rec("Q", 1, 1, 1, 1), classification_dataset, classification_model
    )
    assert set(outcome.labels) <= set(classification_dataset.classes)


# --- raw nearest neighbor baseline ---


def test_raw_knn_reference_distances(classification_dataset):
    query = new_record()
    outcome = classify_raw_knn(query, classification_dataset)
    expected = expected_values("table17")
    assert set(outcome.table) == set(expected)
    for rid, value in expected.items():
        assert outcome.table[rid] == pytest.approx(value, abs=1e-5), rid
    assert outcome.table == {
        r.id: type2_distance(query, r.cells) for r in classification_dataset.records
    }


def test_raw_knn_two_class_tie(classification_dataset):
    outcome = classify_raw_knn(new_record(), classification_dataset)
    assert outcome.nearest == ("R4", "R9")
    assert outcome.labels == ("Level-1", "Level-2")
    assert outcome.is_ambiguous
    assert outcome.table["R4"] == pytest.approx(1.414214, abs=1e-5)
    assert outcome.table["R9"] == pytest.approx(1.414214, abs=1e-5)


def test_raw_knn_specific_reference_distance(classification_dataset):
    outcome = classify_raw_knn(new_record(), classification_dataset)
    assert outcome.table["R2"] == pytest.approx(4.690416, abs=1e-5)


def test_raw_knn_query_equal_to_record(classification_dataset):
    r1 = classification_dataset.record("R1")
    outcome = classify_raw_knn(Record("Q", r1.cells), classification_dataset)
    assert outcome.nearest == ("R1",)
    assert outcome.labels == ("Level-1",)
    assert outcome.table["R1"] == 0.0


@given(
    st.lists(
        st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
        min_size=1,
        max_size=8,
    ),
    st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
)
def test_raw_knn_matches_brute_force(points, query_point):
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    records = tuple(
        rec(f"R{i + 1}", *p, label=f"L{i % 2}") for i, p in enumerate(points)
    )
    ds = Dataset(schema, records)
    outcome = classify_raw_knn(rec("Q", *query_point), ds)
    for r, p in zip(records, points):
        expected = math.dist(p, query_point)
        assert outcome.table[r.id] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    best = min(outcome.table.values())
    assert all(outcome.table[i] == best for i in outcome.nearest)


# --- the single-label exhibit ---


def test_mapped_single_label_where_raw_knn_is_ambiguous(
    classification_dataset, classification_model
):
    mapped = classify_mapped(
        new_record(), classification_dataset, classification_model, MODE_SIGNED
    )
    knn = classify_raw_knn(new_record(), classification_dataset)
    assert len(mapped.labels) == 1
    assert len(knn.labels) == 2


# --- contract errors ---


def test_unlabeled_training_record_cannot_classify(classification_model, classification_dataset):
    records = tuple(
        Record(r.id, r.cells, None if r.id == "R4" else r.label)
        for r in classification_dataset.records
    )
    stripped = Dataset(classification_dataset.schema, records)
    with pytest.raises(CannotClassifyError, match="R4"):
        classify_mapped(new_record(), stripped, classification_model)
    with pytest.raises(CannotClassifyError, match="R4"):
        classify_raw_knn(new_record(), stripped)


def test_empty_training_dataset_raises():
    schema = Schema((AttributeSpec("x", NUMERIC),), "class")
    empty = Dataset(schema, ())
    with pytest.raises(NoDonorsError):
        classify_raw_knn(rec("Q", 1), empty)


def test_incomplete_training_record_rejected():
    training = tiny_training()
    holed = Dataset(
        training.schema,
        (training.records[0], Record("R2", (None, 0.0), "B"), training.records[2]),
    )
    model = cluster((training.records[0], training.records[2]), 1, SeededRandom(0))
    with pytest.raises(ValueError, match="missing"):
        classify_mapped(rec("Q", 1, 1), holed, model)


def test_incomplete_query_rejected(classification_dataset, classification_model):
    with pytest.raises(ValueError, match="missing"):
        classify_mapped(
            rec("Q", 1, None, 1, 1), classification_dataset, classification_model
        )
    with pytest.raises(ValueError, match="missing"):
        classify_raw_knn(rec("Q", 1, None, 1, 1), classification_dataset)


def test_model_trained_on_other_records_rejected(classification_dataset):
    training = tiny_training()
    foreign = cluster(training.records, 2, SeededRandom(1))
    with pytest.raises(ValueError, match="different records"):
        classify_mapped(new_record(), classification_dataset, foreign)


# --- the fit: training-side work done once per (dataset, model) ---


def copy_of(dataset: Dataset) -> Dataset:
    """An equal dataset with nothing fitted on it yet."""
    return Dataset(dataset.schema, dataset.records)


def brute_nearest(table: dict[str, float], key) -> tuple[str, ...]:
    best = min(key(v) for v in table.values())
    return tuple(i for i, v in table.items() if key(v) == best)


grid_point = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(grid_point, min_size=2, max_size=10),
    st.lists(grid_point, min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 99),
    # A step such as 0.1 rounds, so mirrored offsets can land an ulp apart.
    st.sampled_from([1.0, 0.1, 0.3]),
)
def test_fitted_classifiers_match_a_brute_force_recomputation(points, queries, k, seed, step):
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    training = Dataset(
        schema,
        tuple(
            rec(f"R{i + 1}", *(v * step for v in p), label=f"L{i % 3}")
            for i, p in enumerate(points)
        ),
    )
    label_of = {r.id: r.label for r in training.records}
    model = cluster(training.records, min(k, len(set(points))), FarthestFirst(seed))
    maps = {r.id: map_query(r, model) for r in training.records}
    # Several queries in sequence against the same (dataset, model).
    for j, q in enumerate(queries):
        query = rec(f"Q{j + 1}", *(v * step for v in q))
        c = map_query(query, model)
        column = {i: v - c for i, v in maps.items()}
        for mode in MODES:
            outcome = classify_mapped(query, training, model, mode)
            nearest = brute_nearest(column, (lambda d: d) if mode == MODE_SIGNED else abs)
            assert outcome.nearest == nearest
            assert outcome.labels == tuple(sorted({label_of[i] for i in nearest}))
            assert outcome.table == column
        distances = {r.id: type2_distance(query, r.cells) for r in training.records}
        knn = classify_raw_knn(query, training)
        nearest = brute_nearest(distances, lambda d: d)
        assert knn.nearest == nearest
        assert knn.labels == tuple(sorted({label_of[i] for i in nearest}))
        assert knn.table == distances


def python_lines(call) -> int:
    """The Python lines call() executes, counted in every frame."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_a_query_runs_no_python_loop_over_the_training_set():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")

    def lines_per_query(m: int) -> tuple[int, int]:
        training = Dataset(
            schema, tuple(rec(f"R{i}", i, i * i % 7, label="AB"[i % 2]) for i in range(m))
        )
        model = cluster(training.records, 2, FarthestFirst(0))
        query = rec("Q", 0.5, 3)
        for _ in range(2):  # the first query pays for the fit
            mapped = classify_mapped(query, training, model)
            knn = classify_raw_knn(query, training)
        assert len(mapped.nearest) == len(knn.nearest) == 1
        return (
            python_lines(lambda: classify_mapped(query, training, model)),
            python_lines(lambda: classify_raw_knn(query, training)),
        )

    assert lines_per_query(20) == lines_per_query(2000)


def test_a_batch_of_queries_gets_each_query_s_own_answer(classification_dataset, classification_model):
    records = (new_record(), rec("Q2", 1, 1, 1, 1), Record("Q3", classification_dataset.records[4].cells))
    queries = Dataset(Schema(classification_dataset.schema.attributes, None), records)
    for mode in MODES:
        batch = classify_mapped_all(queries, classification_dataset, classification_model, mode)
        assert batch == [classify_mapped(q, classification_dataset, classification_model, mode) for q in records]
    holed = Dataset(queries.schema, records + (rec("Q4", 1, None, 1, 1),))
    with pytest.raises(ValueError, match="Q4 has missing"):
        classify_mapped_all(holed, classification_dataset, classification_model)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batch_selection_agrees_with_one_query_at_a_time(data):
    # Small integer cells make many mapping values tie exactly, so the
    # batch's tie detection is exercised as well as its nearest pick.
    n = data.draw(st.integers(1, 3), label="n")
    row = st.tuples(*[st.integers(0, 3)] * n)
    cells = data.draw(st.lists(row, min_size=2, max_size=12), label="training")
    labels = data.draw(st.lists(st.sampled_from("AB"), min_size=len(cells), max_size=len(cells)), label="labels")
    attributes = tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(n))
    training = Dataset(Schema(attributes, "class"), [rec(f"R{i}", *c, label=y) for i, (c, y) in enumerate(zip(cells, labels))])
    k = data.draw(st.integers(1, min(len(set(cells)), 3)), label="k")
    model = cluster(training, k, FarthestFirst(data.draw(st.integers(0, 99), label="seed")))
    queries = [rec(f"Q{j}", *c) for j, c in enumerate(data.draw(st.lists(row, min_size=1, max_size=8), label="queries"))]
    batch = Dataset(Schema(attributes, None), queries)
    for mode in MODES:
        assert classify_mapped_all(batch, training, model, mode) == [classify_mapped(q, training, model, mode) for q in queries]


def test_fit_still_rejects_a_foreign_model_after_a_successful_call(
    classification_dataset, classification_model
):
    before = classify_mapped(new_record(), classification_dataset, classification_model)
    foreign = cluster(tiny_training().records, 2, SeededRandom(1))
    with pytest.raises(ValueError, match="different records"):
        classify_mapped(new_record(), classification_dataset, foreign)
    with pytest.raises(ValueError, match="different records"):
        classify_mapped(new_record(), classification_dataset, foreign)
    assert classify_mapped(new_record(), classification_dataset, classification_model) == before


def test_two_models_used_alternately_each_give_their_own_answers(
    classification_dataset, classification_model
):
    other = cluster(classification_dataset.records, 3, FarthestFirst(0))
    queries = [new_record(), rec("Q2", 1, 1, 1, 1), Record("Q3", classification_dataset.records[4].cells)]
    expected = {
        id(model): [
            classify_mapped(q, copy_of(classification_dataset), model, mode)
            for q in queries
            for mode in MODES
        ]
        for model in (classification_model, other)
    }
    assert expected[id(classification_model)] != expected[id(other)]
    for _ in range(2):
        for model in (classification_model, other, classification_model):
            got = [classify_mapped(q, classification_dataset, model, mode) for q in queries for mode in MODES]
            assert got == expected[id(model)]


def test_training_set_is_mapped_once_per_model_across_queries(
    classification_dataset, classification_model, monkeypatch
):
    calls = []
    original = cmimpute.classify.map_values

    def counting(X, centroids):
        calls.append(next(m for m in (classification_model, other) if m.centroids == centroids))
        return original(X, centroids)

    other = cluster(classification_dataset.records, 3, FarthestFirst(0))
    monkeypatch.setattr(cmimpute.classify, "map_values", counting)
    training = copy_of(classification_dataset)
    for j in range(6):
        query = rec(f"Q{j + 1}", j, 1, 2, j % 3)
        for mode in MODES:
            classify_mapped(query, training, classification_model, mode)
        classify_raw_knn(query, training)
    assert calls == [classification_model]
    for j in range(3):
        classify_mapped(rec(f"Q{j + 1}", j, 0, 0, 0), training, other)
    assert calls == [classification_model, other]
    # A new dataset gets its own fit, even with equal records.
    classify_mapped(new_record(), copy_of(training), classification_model)
    assert calls == [classification_model, other, classification_model]


def test_fit_is_freed_with_its_dataset(classification_dataset, classification_model):
    training = copy_of(classification_dataset)
    classify_mapped(new_record(), training, classification_model)
    classify_raw_knn(new_record(), training)
    alive = weakref.ref(training)
    gc.disable()
    try:
        del training
        assert alive() is None  # freed by reference counting, no cycle to collect
    finally:
        gc.enable()


def test_failed_training_checks_are_not_memoised(classification_dataset, classification_model):
    records = tuple(
        Record(r.id, r.cells, None if r.id == "R4" else r.label)
        for r in classification_dataset.records
    )
    stripped = Dataset(classification_dataset.schema, records)
    for _ in range(2):
        with pytest.raises(CannotClassifyError, match="R4"):
            classify_raw_knn(new_record(), stripped)
        with pytest.raises(CannotClassifyError, match="R4"):
            classify_mapped(new_record(), stripped, classification_model)


def test_raw_knn_ties_are_exact_float_equality():
    # 0.3 - 0.1 rounds to just under 0.2, so R1 is nearer than R2 by an ulp.
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    training = Dataset(schema, (rec("R1", 0.1, 0, label="A"), rec("R2", 0.5, 0, label="B")))
    outcome = classify_raw_knn(rec("Q", 0.3, 0), training)
    assert outcome.nearest == ("R1",)
    assert outcome.table["R1"] < outcome.table["R2"] == 0.2


def test_raw_knn_rejects_a_query_of_the_wrong_arity(classification_dataset):
    with pytest.raises(ValueError, match="3 cells"):
        classify_raw_knn(rec("Q", 1, 1, 1), classification_dataset)


# --- the screened raw 1-NN search ---

# Differences whose square by multiplication is not their square by
# pow, found among seeded normal draws.
UNLIKE_POW = [x for x in np.random.default_rng(0).normal(size=20_000).tolist() if x * x != x**2]
# Offsets from a zero query.  FLIP: multiplication ranks the first row
# nearer, pow the second.  MERGE: pow sums an ulp apart with one square
# root, which multiplication puts two ulps apart.  UNDERFLOW: the
# squares are subnormal and pow ties the rows, which multiplication
# puts a subnormal ulp apart.
FLIP = ((-1.5024842013166917, 1.3150152787874059), (-1.502484201316692, 1.3150152787874057))
MERGE = ((-0.30251784048326236, 0.08949838920891028), (-0.3025178404832624, 0.08949838920891025))
UNDERFLOW = ((7.809802425170517e-156, 0.0), (7.809802425170518e-156, 0.0))


def knn_training(rows, labels=None) -> Dataset:
    n = len(rows[0])
    schema = Schema(tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(n)), "class")
    labels = labels or ["AB"[i % 2] for i in range(len(rows))]
    return Dataset(schema, tuple(rec(f"R{i + 1}", *r, label=label) for i, (r, label) in enumerate(zip(rows, labels))))


def check_against_the_full_kernel(training: Dataset, query: Record) -> None:
    """classify_raw_knn's answer and table against one kernel call over
    every training row, and the search's candidates against its ties."""
    squares = squared_distances(training.matrix, [query.cells])[:, 0]
    distances = np.sqrt(squares)
    ties = np.flatnonzero(distances == distances.min())
    outcome = classify_raw_knn(query, training)
    assert outcome.nearest == tuple(training.ids[i] for i in ties)
    assert outcome.labels == tuple(sorted({training.labels[i] for i in ties}))
    assert dict(outcome.table) == dict(zip(training.ids, distances.tolist()))
    rows, exact = nearest_rows(training.matrix, np.array(query.cells))
    assert set(ties) <= set(rows.tolist())
    assert exact.tolist() == squares[rows].tolist()


@st.composite
def knn_problems(draw):
    n = draw(st.integers(2, 4))
    # 2**-512 puts differences below 1e-154, where squares underflow.
    scale = draw(st.sampled_from([2.0**-512, 1.0, 2.0**300]))
    cell = st.one_of(
        st.sampled_from(UNLIKE_POW).map(lambda x: x * scale),
        st.integers(-2, 2).map(lambda x: x * scale),
        st.sampled_from([MAX_MAGNITUDE, -MAX_MAGNITUDE]),
    )
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=8))
    pair, shift = draw(st.sampled_from([((), 1.0), (FLIP, 1.0), (FLIP, 2.0**300), (MERGE, 1.0), (MERGE, 2.0**-20), (UNDERFLOW, 1.0)]))
    rows += [[v * shift for v in r] + [0.0] * (n - 2) for r in pair]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    rows = draw(st.permutations(rows))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=len(rows), max_size=len(rows)))
    query = [0.0] * n if draw(st.booleans()) else draw(st.lists(cell, min_size=n, max_size=n))
    return knn_training(rows, labels), rec("Q", *query)


@settings(max_examples=200, deadline=None)
@given(knn_problems())
def test_screened_raw_knn_equals_a_full_kernel_argmin(problem):
    check_against_the_full_kernel(*problem)


@pytest.mark.parametrize("pair", [FLIP, MERGE, UNDERFLOW], ids=["flip", "merge", "underflow"])
def test_rows_multiplication_would_misjudge_are_kept(pair):
    q = np.zeros(2)
    squares = [r[0] * r[0] + r[1] * r[1] for r in pair]
    kernel = squared_distances(pair, [q])[:, 0]
    if pair is FLIP:
        # Multiplication and pow pick different nearest rows.
        assert np.argmin(squares) == 0 and kernel.argmin() == 1
    else:
        # Two tied nearest rows that multiplication tells apart.
        assert squares[0] < squares[1] and math.sqrt(kernel[0]) == math.sqrt(kernel[1])
    for rows in (pair, pair[::-1]):
        check_against_the_full_kernel(knn_training(rows), rec("Q", 0, 0))
    outcome = classify_raw_knn(rec("Q", 0, 0), knn_training(pair))
    assert outcome.nearest == (("R2",) if pair is FLIP else ("R1", "R2"))


def test_the_search_squares_only_rows_that_may_be_nearest(monkeypatch):
    rows = [[i, i * i % 7] for i in range(50)]
    training = knn_training(rows)
    calls = []

    def counting(X, U):
        calls.append(len(X))
        return squared_distances(X, U)

    for module in (cmimpute.mapping, cmimpute.classify):
        monkeypatch.setattr(module, "squared_distances", counting)
    outcome = classify_raw_knn(rec("Q", 10.2, 2), training)
    assert outcome.nearest == ("R11",)
    assert calls and max(calls) < len(rows)
    calls.clear()
    assert outcome.table["R11"] < outcome.table["R12"] < outcome.table["R13"]
    assert calls == [len(rows)]  # the table's column: one kernel call, on the first read
