"""Missingness injection, scoring, baselines, and the experiment
driver."""

from __future__ import annotations

import collections
import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cmimpute.evaluate
import cmimpute.impute
from cmimpute.casestudy import MASKED_CELLS, fixture_text
from cmimpute.dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    Dataset,
    Record,
    Schema,
    parse_dataset,
    schema_from_dict,
)
from cmimpute.errors import ConfigError, InsufficientDataError, NoDonorsError, SchemaError
from cmimpute.evaluate import (
    _METHODS,
    ALL_METHODS,
    METHOD_ABSOLUTE,
    METHOD_CLASS_STATS,
    METHOD_KNN_DONOR,
    METHOD_SIGNED,
    EvaluationReport,
    ExperimentConfig,
    MaskPlan,
    TrialResult,
    baseline_class_stats,
    baseline_knn_donor,
    derive_seed,
    experiment_from_spec,
    inject_mcar,
    make_synthetic_dataset,
    mask_cells,
    read_experiment_spec,
    run_experiment,
    score_imputation,
)
from cmimpute.impute import _pool_value
from cmimpute.mapping import mean, squared_distances
from conftest import dataset_of


def rec(rid: str, *cells, label=None) -> Record:
    return Record(rid, tuple(None if c is None else float(c) for c in cells), label)


def two_column_dataset() -> Dataset:
    """Complete donors with column means 3 and modal category 1."""
    schema = Schema(
        (AttributeSpec("x", NUMERIC), AttributeSpec("c", CATEGORICAL, {"u": 1, "v": 2})),
        "class",
    )
    return dataset_of(
        schema,
        (
            rec("R1", 2, 1, label="A"),
            rec("R2", 4, 1, label="A"),
            rec("R3", 9, 2, label="B"),
            rec("R4", 1, None, label="A"),
            rec("R5", None, 2, label="A"),
        ),
    )


def cells_of(plan: MaskPlan) -> list[tuple[str, int, float]]:
    """The plan as (record id, attribute index, true value) per cell."""
    return [(plan.ids[r], a, v) for r, a, v in zip(plan.rows.tolist(), plan.attrs.tolist(), plan.values.tolist())]


# --- masking ---


def test_inject_then_unmask_is_identity(normalized_dataset):
    masked, plan = inject_mcar(normalized_dataset, 0.2, seed=5)
    truth = {(rid, attr): value for rid, attr, value in cells_of(plan)}
    assert truth
    # Masked cells are missing and the plan holds their values; no
    # other cell, id or label changes.
    for r, original in zip(masked.records, normalized_dataset.records, strict=True):
        assert (r.id, r.label) == (original.id, original.label)
        for i, (cell, value) in enumerate(zip(r.cells, original.cells)):
            assert cell == (None if (r.id, i) in truth else value)
            assert truth.get((r.id, i), value) == value


def test_inject_count_matches_rate(normalized_dataset):
    # 9 records x 4 attributes at rate 0.1 rounds to 4 cells.
    masked, plan = inject_mcar(normalized_dataset, 0.1, seed=7)
    assert len(plan) == 4
    assert np.isnan(masked.matrix).sum() == 4
    again, plan_again = inject_mcar(normalized_dataset, 0.1, seed=7)
    assert again == masked and plan_again == plan


def test_inject_is_seed_sensitive(normalized_dataset):
    _, a = inject_mcar(normalized_dataset, 0.2, seed=1)
    _, b = inject_mcar(normalized_dataset, 0.2, seed=2)
    assert a != b and cells_of(a) != cells_of(b)


def test_a_plan_is_arrays_aligned_with_the_masked_dataset(normalized_dataset):
    masked, plan = inject_mcar(normalized_dataset, 0.2, seed=5)
    assert plan.ids is masked.ids
    assert plan.rows.dtype == plan.attrs.dtype == np.intp and plan.values.dtype == np.float64
    assert not plan.values.flags.writeable
    # Row-major order, and each masked cell is missing at its row.
    assert sorted(zip(plan.rows.tolist(), plan.attrs.tolist())) == list(zip(plan.rows.tolist(), plan.attrs.tolist()))
    assert np.isnan(masked.matrix[plan.rows, plan.attrs]).all()
    assert np.array_equal(normalized_dataset.matrix[plan.rows, plan.attrs], plan.values)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.6]))
def test_inject_never_empties_a_record(seed, rate):
    ds = make_synthetic_dataset(15, seed=2)
    masked, plan = inject_mcar(ds, rate, seed)
    n = ds.schema.arity
    assert np.isnan(masked.matrix).sum(axis=1).max() <= n - 1
    assert len(plan) == round(rate * len(ds.records) * n)


def reference_mcar_cells(m: int, n: int, rate: float, seed: int) -> list[tuple[int, int]]:
    """inject_mcar's cell choice as a walk over the permutation: take
    each cell in turn unless its record already has n - 1 masked cells,
    until round(rate * m * n) are taken; (row, attr) pairs, sorted."""
    count = round(rate * m * n)
    per_record = collections.Counter()
    chosen = []
    for flat in np.random.default_rng(seed).permutation(m * n).tolist():
        if len(chosen) == count:
            break
        row, attr = divmod(flat, n)
        if per_record[row] < n - 1:
            per_record[row] += 1
            chosen.append((row, attr))
    return sorted(chosen)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 8),
    st.floats(0.001, 0.999),
    st.integers(0, 2**32 - 1),
)
def test_inject_chooses_the_cells_of_the_permutation_walk(m, n, rate, seed):
    assume(round(rate * m * n) <= m * (n - 1))
    schema = Schema(tuple(AttributeSpec(f"a{j}", NUMERIC) for j in range(n)), None)
    ds = dataset_of(schema, (rec(f"R{i}", *range(i * n, (i + 1) * n)) for i in range(m)))
    masked, plan = inject_mcar(ds, rate, seed)
    cells = list(zip(plan.rows.tolist(), plan.attrs.tolist()))
    assert cells == reference_mcar_cells(m, n, rate, seed)
    assert np.isnan(masked.matrix).sum() == len(cells)


def test_inject_rate_bounds():
    ds = make_synthetic_dataset(12, seed=0)
    with pytest.raises(ConfigError):
        inject_mcar(ds, 0.0, seed=1)
    with pytest.raises(ConfigError):
        inject_mcar(ds, 1.0, seed=1)
    # The rate must be a number and the seed a non-negative integer.
    with pytest.raises(ConfigError, match="^rate must be a number, got '0.1'$"):
        inject_mcar(ds, "0.1", seed=1)
    with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
        inject_mcar(ds, 0.1, seed=-1)


def test_inject_rate_too_high_for_record_capacity():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(schema, (rec("R1", 1, 2, label="a"), rec("R2", 3, 4, label="a")))
    with pytest.raises(ConfigError, match="without emptying"):
        inject_mcar(ds, 0.8, seed=1)


def test_inject_tiny_rate_is_identity(normalized_dataset):
    masked, plan = inject_mcar(normalized_dataset, 0.01, seed=3)
    assert masked == normalized_dataset
    assert len(plan) == 0 and cells_of(plan) == []


def test_inject_requires_complete_dataset(missing_dataset):
    with pytest.raises(ValueError, match="complete"):
        inject_mcar(missing_dataset, 0.1, seed=0)


def test_mask_cells_reproduces_reference_missing_table(
    normalized_dataset, missing_dataset
):
    masked, plan = mask_cells(normalized_dataset, MASKED_CELLS)
    for r in masked.records:
        assert r.cells == missing_dataset.record(r.id).cells
    assert [(rid, attr) for rid, attr, _ in cells_of(plan)] == list(MASKED_CELLS)
    assert cells_of(plan)[0][2] == 2.0
    assert cells_of(plan)[1][2] == 7.0


def test_mask_cells_validation(normalized_dataset):
    with pytest.raises(ValueError, match="unknown record"):
        mask_cells(normalized_dataset, [("R99", 0)])
    with pytest.raises(ValueError, match="out of range"):
        mask_cells(normalized_dataset, [("R1", 9)])
    with pytest.raises(ValueError, match="twice"):
        mask_cells(normalized_dataset, [("R1", 0), ("R1", 0)])
    with pytest.raises(ConfigError, match="every cell"):
        mask_cells(normalized_dataset, [("R1", 0), ("R1", 1), ("R1", 2), ("R1", 3)])
    # An index is a Python or NumPy integer, not a float, bool or
    # string, and an id that is not a string names no record.
    for index in (0.5, True, "1"):
        with pytest.raises(ConfigError, match=f"^plan attribute index must be an integer, got {index!r}$"):
            mask_cells(normalized_dataset, [("R1", index)])
    with pytest.raises(ConfigError, match=r"^unknown record id \['R1'\]$"):
        mask_cells(normalized_dataset, [(["R1"], 0)])
    assert mask_cells(normalized_dataset, [("R1", np.int64(1))]) == mask_cells(normalized_dataset, [("R1", 1)])
    # A cell is a 2-item list or tuple, and the cells are iterable.
    for cells in ([("R1",)], [("R1", 0, 1)], 5):
        with pytest.raises(ConfigError, match=r"^'plan' must be a list of \[record_id, attr_index\] pairs$"):
            mask_cells(normalized_dataset, cells)
    # Only a complete dataset is masked, by either masker.
    holed, _ = mask_cells(normalized_dataset, [("R1", 0)])
    for masker in (lambda ds: mask_cells(ds, [("R2", 0)]), lambda ds: inject_mcar(ds, 0.1, seed=0)):
        with pytest.raises(ConfigError, match="^can only inject missingness into a complete dataset$"):
            masker(holed)


def test_mask_cells_masks_the_row_record_names_for_a_repeated_id():
    ds = dataset_of(two_column_dataset().schema, (rec("R1", 2, 1, label="A"), rec("R1", 4, 2, label="B")))
    masked, plan = mask_cells(ds, [("R1", 0)])
    assert [r.cells for r in masked.records] == [(None, 1.0), (4.0, 2.0)]
    assert masked.record("R1") == masked.records[0]
    assert cells_of(plan) == [("R1", 0, 2.0)]


# --- scoring ---


def test_score_hand_computed_rmse():
    ds = two_column_dataset()
    masked, plan = mask_cells(
        dataset_of(
            ds.schema,
            (
                rec("R1", 2, 1, label="A"),
                rec("R2", 4, 1, label="A"),
                rec("R3", 1, 2, label="A"),
                rec("R4", 5, 2, label="A"),
            ),
        ),
        [("R3", 0), ("R4", 0)],
    )
    completed = baseline_class_stats(masked)
    # Both cells fill with the class mean 3; truths are 1 and 5.
    assert completed.record("R3").cells[0] == 3.0
    assert completed.record("R4").cells[0] == 3.0
    score = score_imputation(plan, completed)
    assert score.numeric_rmse == pytest.approx(2.0)
    assert score.categorical_accuracy is None


def test_score_categorical_exact_match():
    ds = two_column_dataset()
    complete = dataset_of(ds.schema, tuple(r for r in ds.records[:3]))
    masked, plan = mask_cells(complete, [("R1", 1), ("R3", 1)])
    filled = dataset_of(
        ds.schema,
        (
            rec("R1", 2, 1, label="A"),  # matches the truth
            ds.records[1],
            rec("R3", 9, 1, label="B"),  # truth was 2
        ),
    )
    score = score_imputation(plan, filled)
    assert score.categorical_accuracy == pytest.approx(0.5)
    assert score.numeric_rmse is None


def test_score_perfect_imputation_is_zero_rmse():
    # Use the mixed-type table so the masked A3 cell scores as a
    # categorical hit rather than folding into the numeric error.
    _, plan = mask_cells(mixed_complete_dataset(), MASKED_CELLS)
    score = score_imputation(plan, mixed_complete_dataset())
    assert score.numeric_rmse == 0.0
    assert score.categorical_accuracy == 1.0


def test_score_rejects_unfilled_cells(normalized_dataset):
    masked, plan = mask_cells(normalized_dataset, MASKED_CELLS)
    with pytest.raises(SchemaError, match=r"masked cell \(R3, 2\) was not filled"):
        score_imputation(plan, masked)


def test_score_rejects_a_table_of_other_rows(normalized_dataset):
    # The plan addresses cells by row, so a completed table whose rows
    # are not the masked dataset's would be scored at the wrong cells.
    masked, plan = mask_cells(normalized_dataset, MASKED_CELLS)
    completed = baseline_class_stats(masked)
    with pytest.raises(SchemaError, match="records in order"):
        score_imputation(plan, completed.take(range(len(completed) - 1, -1, -1)))


def per_cell_score(plan: MaskPlan, completed: Dataset) -> tuple[float | None, float | None]:
    """The scorer as it ran once per masked cell: each cell looked up
    by its record id, a numeric error squared with Python's ** and the
    squares added left to right, a categorical cell a hit or a miss."""
    squared, hits = [], []
    for rid, attr, truth in cells_of(plan):
        value = completed.matrix[completed.ids.index(rid), attr].item()
        if completed.schema.attributes[attr].kind == NUMERIC:
            squared.append((value - truth) ** 2)
        else:
            hits.append(value == truth)
    return (
        math.sqrt(mean(squared)) if squared else None,
        sum(hits) / len(hits) if hits else None,
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(12, 80),
    st.integers(0, 10_000),
    st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3]),
    st.sampled_from(ALL_METHODS),
    st.integers(0, 10_000),
)
def test_the_array_scorer_equals_the_per_cell_scorer(records, seed, rate, method, method_seed):
    masked, plan = inject_mcar(make_synthetic_dataset(records, seed), rate, seed)
    try:
        completed = _METHODS[method](masked, method_seed)
    except InsufficientDataError:
        assume(False)
    score = score_imputation(plan, completed)
    assert (score.numeric_rmse, score.categorical_accuracy) == per_cell_score(plan, completed)


# --- baselines ---


def test_class_stats_baseline_mean_and_mode():
    completed = baseline_class_stats(two_column_dataset())
    assert completed.is_complete
    # R4's class-A categorical pool is {1, 1}: mode 1.
    assert completed.record("R4").cells[1] == 1.0
    # R5's class-A numeric pool is {2, 4}: mean 3.
    assert completed.record("R5").cells[0] == 3.0


def test_class_stats_falls_back_to_all_donors_for_unlabeled_query():
    ds = two_column_dataset()
    records = tuple(
        Record(r.id, r.cells, None if r.id == "R5" else r.label) for r in ds.records
    )
    completed = baseline_class_stats(dataset_of(ds.schema, records))
    # Pool is every complete record: mean of 2, 4, 9.
    assert completed.record("R5").cells[0] == pytest.approx(5.0)


def per_cell_class_stats(dataset: Dataset) -> np.ndarray:
    """The per-class baseline as it ran once per missing cell: the
    cell's class pool, or every complete row, gathered for each cell."""
    X, labels = dataset.matrix, dataset.labels
    complete = np.flatnonzero(~np.isnan(X).any(axis=1)).tolist()
    filled = X.copy()
    for row, attr in zip(*np.nonzero(np.isnan(X))):
        pool = [i for i in complete if labels[row] is not None and labels[i] == labels[row]] or complete
        filled[row, attr] = _pool_value(X[pool, attr].tolist(), dataset.schema.attributes[attr])[0]
    return filled


def test_class_stats_computes_each_statistic_once(monkeypatch):
    masked, plan = inject_mcar(make_synthetic_dataset(1000), 0.05, seed=2)
    calls = []
    for module in (cmimpute.impute, cmimpute.evaluate):
        original = module._pool_value
        monkeypatch.setattr(module, "_pool_value", lambda *a, f=original: calls.append(a[1].name) or f(*a))
    completed = baseline_class_stats(masked)
    assert len(plan) == 350
    assert len(calls) <= (masked.n_classes + 1) * masked.schema.arity
    assert np.array_equal(completed.matrix, per_cell_class_stats(masked))


def test_class_stats_match_a_per_cell_pool_bit_for_bit():
    # Unlabeled queries and a class whose every row has a hole take
    # the pool of all complete rows; the rest take their class's pool.
    masked, _ = inject_mcar(make_synthetic_dataset(200), 0.1, seed=4)
    holed = np.isnan(masked.matrix).any(axis=1)
    labels = [
        None if i % 5 == 0 else "lone" if holed[i] and i % 5 == 1 else label for i, label in enumerate(masked.labels)
    ]
    relabeled = Dataset(masked.schema, masked.ids, labels, masked.matrix)
    assert np.array_equal(baseline_class_stats(relabeled).matrix, per_cell_class_stats(relabeled))


def test_knn_donor_baseline_uses_observed_coordinates():
    ds = two_column_dataset()
    completed = baseline_knn_donor(ds)
    # R5 observes only c=2: nearest complete record by that coordinate
    # is R3 (exact match), so its x donates.
    assert completed.record("R5").cells[0] == 9.0
    # R4 observes x=1: nearest is R1 at distance 1.
    assert completed.record("R4").cells[1] == 1.0


@pytest.mark.parametrize("donors", [40, 50_000])
def test_knn_donor_blocks_match_one_kernel_call_per_query(donors):
    # 50,000 donors of 3 cells make blocks of 6 queries, so 31 queries
    # end in a partial block.  Cells from {0, .., 3}: donors tie often,
    # and the earliest must win.
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, (donors + 31, 3)).astype(float)
    for row in range(donors, donors + 31):
        X[row, rng.choice(3, rng.integers(1, 3), replace=False)] = math.nan
    schema = Schema(tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(3)), "class")
    dataset = Dataset(schema, [f"R{i}" for i in range(len(X))], [None] * len(X), X)
    expected = X.copy()
    for row in range(donors, donors + 31):
        donor = int(squared_distances(X[:donors], X[row : row + 1]).argmin())
        expected[row] = np.where(np.isnan(X[row]), X[donor], X[row])
    assert np.array_equal(baseline_knn_donor(dataset).matrix, expected)


def test_baselines_need_at_least_one_complete_record():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(schema, (rec("R1", None, 1, label="a"), rec("R2", 2, None, label="a")))
    with pytest.raises(NoDonorsError):
        baseline_class_stats(ds)
    with pytest.raises(NoDonorsError):
        baseline_knn_donor(ds)


def test_knn_donor_baseline_names_a_record_with_no_observed_cell():
    schema = Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC)), "class")
    ds = dataset_of(schema, (rec("R1", 1, 2, label="a"), rec("R2", None, None, label="a")))
    with pytest.raises(NoDonorsError, match="record R2 has no observed values"):
        baseline_knn_donor(ds)


def test_baselines_are_identity_on_complete_data(normalized_dataset):
    assert baseline_class_stats(normalized_dataset) is normalized_dataset
    assert baseline_knn_donor(normalized_dataset) is normalized_dataset


# One term and sixteen that each round away against it: left to right
# they add to 1.0, a compensated sum() gives 1 + 2**-50.
SPREAD = [1.0] + [2.0**-54] * 16


def test_means_add_left_to_right_on_every_python(compensated_sum):
    assert sum(SPREAD) != 1.0
    mean = 1.0 / len(SPREAD)

    x = Schema((AttributeSpec("x", NUMERIC),), "class")
    donors = tuple(rec(f"R{i}", v, label="A") for i, v in enumerate(SPREAD))
    filled = baseline_class_stats(dataset_of(x, donors + (rec("Q", None, label="A"),)))
    assert filled.record("Q").cells == (mean,)

    # Squared errors 1 and 2**-54, from errors 1 and 2**-27.
    rows = np.arange(len(donors))
    plan = MaskPlan(tuple(r.id for r in donors), rows, np.zeros_like(rows), np.zeros(len(donors)))
    errors = dataset_of(x, tuple(rec(r.id, math.sqrt(v), label="A") for r, v in zip(donors, SPREAD)))
    assert score_imputation(plan, errors).numeric_rmse == math.sqrt(mean)

    rows = tuple(TrialResult("m", 0.1, t, 0, 1, v, None, None) for t, v in enumerate(SPREAD))
    report = EvaluationReport(("m",), (0.1,), len(rows), 0, 0.2, rows)
    assert report.aggregates()["m"]["numeric_rmse"] == mean


# --- the synthetic generator ---


def test_synthetic_dataset_shape():
    ds = make_synthetic_dataset(60, seed=7)
    assert len(ds) == 60
    assert ds.is_complete
    assert ds.classes == ("C1", "C2", "C3")
    cat = [a for a in ds.schema.attributes if a.kind == CATEGORICAL]
    assert len(cat) == 1 and set(cat[0].encoding) == {"b1", "b2", "b3", "b4", "b5", "b6"}


def test_synthetic_dataset_deterministic_and_seed_sensitive():
    assert make_synthetic_dataset(24, seed=1) == make_synthetic_dataset(24, seed=1)
    assert make_synthetic_dataset(24, seed=1) != make_synthetic_dataset(24, seed=2)


def test_synthetic_dataset_minimum_size():
    with pytest.raises(ConfigError, match="12"):
        make_synthetic_dataset(11, seed=0)


# --- experiment driver ---


def test_experiment_config_validation(normalized_dataset):
    with pytest.raises(ConfigError, match="unknown methods"):
        ExperimentConfig(normalized_dataset, methods=("who",))
    with pytest.raises(ConfigError, match="at least one method"):
        ExperimentConfig(normalized_dataset, methods=())
    with pytest.raises(ConfigError, match="rates"):
        ExperimentConfig(normalized_dataset, rates=(1.5,))
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(normalized_dataset, trials=-1)
    with pytest.raises(ConfigError, match=r"^trials must be an integer, got 1\.5$"):
        ExperimentConfig(normalized_dataset, trials=1.5)
    with pytest.raises(ConfigError, match="^master_seed must be non-negative, got -1$"):
        ExperimentConfig(normalized_dataset, master_seed=-1)
    with pytest.raises(ConfigError, match="holdout"):
        ExperimentConfig(normalized_dataset, holdout_fraction=1.0)
    # Each rate and the holdout fraction must be a real number, not a
    # string or a bool, and the rates are kept as floats.
    with pytest.raises(ConfigError, match="^rate must be a number, got '0.1'$"):
        ExperimentConfig(normalized_dataset, rates=("0.1",))
    with pytest.raises(ConfigError, match="^holdout_fraction must be a number, got '0.2'$"):
        ExperimentConfig(normalized_dataset, holdout_fraction="0.2")
    with pytest.raises(ConfigError, match="^holdout_fraction must be a number, got False$"):
        ExperimentConfig(normalized_dataset, holdout_fraction=False)
    assert ExperimentConfig(normalized_dataset, rates=[1 / 2]).rates == (0.5,)
    with pytest.raises(ConfigError, match="plan"):
        ExperimentConfig(normalized_dataset, plan=())
    # methods, rates and plan are lists or tuples, and each plan cell a pair.
    with pytest.raises(ConfigError, match="^'methods' must be a list$"):
        ExperimentConfig(normalized_dataset, methods="raw-knn-donor")
    with pytest.raises(ConfigError, match="^'rates' must be a list$"):
        ExperimentConfig(normalized_dataset, rates=0.1)
    for plan in ((("R1",),), (("R1", 0, 1),)):
        with pytest.raises(ConfigError, match=r"^'plan' must be a list of \[record_id, attr_index\] pairs$"):
            ExperimentConfig(normalized_dataset, plan=plan)


def test_experiment_requires_complete_labeled_input(missing_dataset):
    with pytest.raises(ConfigError, match="complete"):
        ExperimentConfig(missing_dataset)
    unlabeled = dataset_of(
        Schema((AttributeSpec("x", NUMERIC), AttributeSpec("y", NUMERIC))),
        (rec("R1", 1, 2), rec("R2", 3, 4)),
    )
    with pytest.raises(ConfigError, match="labeled"):
        ExperimentConfig(unlabeled)


def test_zero_trials_gives_empty_wellformed_report():
    config = ExperimentConfig(make_synthetic_dataset(12, seed=4), trials=0)
    report = run_experiment(config)
    assert report.results == ()
    payload = json.loads(report.to_json())
    assert payload["results"] == []
    assert set(payload["aggregates"]) == set(ALL_METHODS)


def test_experiment_rows_cover_every_method_rate_trial():
    config = ExperimentConfig(
        make_synthetic_dataset(20, seed=9),
        methods=(METHOD_ABSOLUTE, METHOD_CLASS_STATS),
        rates=(0.1, 0.2),
        trials=2,
        master_seed=11,
    )
    report = run_experiment(config)
    keys = {(r.method, r.rate, r.trial) for r in report.results}
    assert keys == {
        (m, rate, t)
        for m in config.methods
        for rate in config.rates
        for t in range(2)
    }
    for row in report.results:
        assert row.n_masked > 0
        if row.numeric_rmse is not None:
            assert row.numeric_rmse >= 0
        if row.categorical_accuracy is not None:
            assert 0 <= row.categorical_accuracy <= 1
        if row.downstream_accuracy is not None:
            assert 0 <= row.downstream_accuracy <= 1


def test_experiment_is_bit_reproducible():
    # Sized so every trial keeps enough complete donors: with 24
    # records and the default 0.2 holdout, rate 0.1 masks at most 14
    # cells, so at least 5 of ~19 training records stay complete.
    config = ExperimentConfig(
        make_synthetic_dataset(24, seed=6),
        rates=(0.1,),
        trials=3,
        master_seed=27,
    )
    assert run_experiment(config).to_json() == run_experiment(config).to_json()


def test_experiment_report_is_pinned():
    # The sha256 of the report as the per-cluster k-means scan, the
    # record-based scorer and the per-query classifier selection wrote
    # it; rate 0.3 would leave fewer complete records than classes.
    config = ExperimentConfig(make_synthetic_dataset(60, seed=7), rates=(0.1, 0.2), trials=3, master_seed=11)
    text = run_experiment(config).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == "be838c31d21600065e3868b9ba326694b9444856356f2c179f64fa402947cff4"


def test_an_experiment_builds_no_record(monkeypatch):
    dataset = make_synthetic_dataset(60, seed=7)
    built = []
    original = Record.__new__

    def counting(cls, *args, **kwargs):
        built.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Record, "__new__", counting)
    report = run_experiment(ExperimentConfig(dataset, rates=(0.1,), trials=2, master_seed=3))
    assert len(report.results) == 2 * len(ALL_METHODS)
    assert built == []
    assert dataset.take([0]).records and built == ["R1"]  # the count sees a record view


def test_an_experiment_report_deep_copies_nothing(monkeypatch):
    # dataclasses.asdict and astuple deep-copy every field they read.
    copies = []
    original = copy.deepcopy

    def counting(obj, *args, **kwargs):
        copies.append(obj)
        return original(obj, *args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", counting)
    report = run_experiment(ExperimentConfig(make_synthetic_dataset(60, seed=7), rates=(0.1,), trials=1))
    report.to_json()
    report.summary_csv()
    assert len(report.results) == len(ALL_METHODS)
    assert copies == []


def mixed_complete_dataset() -> Dataset:
    """The complete reference table under its mixed-type schema, so a
    plan can mask one categorical and one numeric cell."""
    schema = schema_from_dict(json.loads(fixture_text("schema_missing.json")))
    return parse_dataset(fixture_text("table01_raw.csv"), schema)


def test_explicit_plan_runs_one_deterministic_pass():
    config = ExperimentConfig(
        mixed_complete_dataset(),
        methods=(METHOD_SIGNED,),
        plan=MASKED_CELLS,
        master_seed=0,
    )
    report = run_experiment(config)
    assert len(report.results) == 1
    row = report.results[0]
    assert row.rate is None and row.mask_seed is None
    assert row.n_masked == 2
    # Both reference cells come back exactly, so the scores pin to
    # their ideal values.
    assert row.numeric_rmse == 0.0
    assert row.categorical_accuracy == 1.0


def test_plan_mode_report_and_summary_are_pinned():
    # The sha256 of both outputs as the per-cell scorer and the
    # hand-written report rows wrote them, over all four methods.
    report = run_experiment(ExperimentConfig(mixed_complete_dataset(), plan=MASKED_CELLS, master_seed=0))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "4ace04ba4a18df8437396ab07aa4e0999ac4e6da8ecec6b10ccd8a6e8f305bfd"
    )
    assert hashlib.sha256(report.summary_csv().encode()).hexdigest() == (
        "73de4a97cdb80e52a287e8bf3e7b36f54a3552ad3ff5d62ef0eb49d8208e5f31"
    )


def test_a_method_that_runs_out_of_data_names_its_trial():
    config = ExperimentConfig(make_synthetic_dataset(60, seed=7), rates=(0.1, 0.3), trials=3, master_seed=11)
    with pytest.raises(InsufficientDataError) as excinfo:
        run_experiment(config)
    assert str(excinfo.value) == "rate 0.3, trial 0, cluster-map-paper-signed: 2 complete records cannot form 3 clusters"
    # A plan that holes every record leaves no donor; the error keeps its type.
    every_record = tuple((f"R{i + 1}", 0) for i in range(12))
    config = ExperimentConfig(make_synthetic_dataset(12, seed=0), methods=(METHOD_KNN_DONOR,), plan=every_record)
    with pytest.raises(NoDonorsError) as excinfo:
        run_experiment(config)
    assert str(excinfo.value) == "plan, raw-knn-donor: no complete records to donate"


def test_plan_mode_ignores_trial_and_rate_settings():
    config = ExperimentConfig(
        mixed_complete_dataset(),
        methods=(METHOD_SIGNED, METHOD_ABSOLUTE),
        rates=(0.1, 0.3),
        trials=5,
        plan=MASKED_CELLS,
    )
    report = run_experiment(config)
    assert len(report.results) == 2  # one pass per method


def test_summary_csv_has_one_row_per_result():
    config = ExperimentConfig(
        make_synthetic_dataset(15, seed=8), methods=(METHOD_KNN_DONOR,), trials=2
    )
    report = run_experiment(config)
    lines = report.summary_csv().strip().splitlines()
    assert lines[0].startswith("method,rate,trial")
    assert len(lines) == 1 + len(report.results)


def test_derive_seed_is_stable_and_path_sensitive():
    assert derive_seed(42, 0, 1, 2) == derive_seed(42, 0, 1, 2)
    assert derive_seed(42, 0, 1, 2) != derive_seed(42, 0, 1, 3)
    assert derive_seed(42, 0, 1, 2) != derive_seed(43, 0, 1, 2)


def test_absolute_mode_beats_class_mean_on_most_trials():
    # Empirical smoke floor on the bundled synthetic generator: the
    # mapping imputer's numeric error should undercut the per-class
    # mean baseline in at least half of 30 masking trials.
    config = ExperimentConfig(
        make_synthetic_dataset(60, seed=7),
        methods=(METHOD_ABSOLUTE, METHOD_CLASS_STATS),
        rates=(0.1,),
        trials=30,
        master_seed=42,
    )
    report = run_experiment(config)
    by_trial: dict[int, dict[str, float]] = {}
    for row in report.results:
        if row.numeric_rmse is not None:
            by_trial.setdefault(row.trial, {})[row.method] = row.numeric_rmse
    wins = sum(
        1
        for scores in by_trial.values()
        if len(scores) == 2 and scores[METHOD_ABSOLUTE] <= scores[METHOD_CLASS_STATS]
    )
    assert len(by_trial) == 30
    assert wins >= 15


# --- config loading ---


def test_load_experiment_config_synthetic(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "synthetic": {"records": 20, "seed": 3},
                "methods": [METHOD_ABSOLUTE],
                "rates": [0.2],
                "trials": 4,
                "master_seed": 99,
                "holdout_fraction": 0.25,
            }
        )
    )
    config = experiment_from_spec(*read_experiment_spec(str(path)))
    assert len(config.dataset) == 20
    assert config.methods == (METHOD_ABSOLUTE,)
    assert config.rates == (0.2,)
    assert config.trials == 4
    assert config.master_seed == 99
    assert config.holdout_fraction == 0.25
    assert config.plan is None


def test_load_experiment_config_with_dataset_paths(tmp_path):
    (tmp_path / "data.csv").write_text(fixture_text("table01_raw.csv"))
    (tmp_path / "schema.json").write_text(fixture_text("schema_missing.json"))
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "dataset": "data.csv",
                "schema": "schema.json",
                "plan": [["R3", 2], ["R5", 3]],
                "methods": [METHOD_SIGNED],
            }
        )
    )
    config = experiment_from_spec(*read_experiment_spec(str(path)))
    assert config.plan == (("R3", 2), ("R5", 3))
    report = run_experiment(config)
    assert report.results[0].categorical_accuracy == 1.0
    assert report.results[0].numeric_rmse == 0.0


def test_load_experiment_config_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        experiment_from_spec(*read_experiment_spec(str(bad_json)))

    not_object = tmp_path / "arr.json"
    not_object.write_text("[]")
    with pytest.raises(ConfigError, match="object"):
        experiment_from_spec(*read_experiment_spec(str(not_object)))

    no_source = tmp_path / "none.json"
    no_source.write_text("{}")
    with pytest.raises(ConfigError, match="synthetic"):
        experiment_from_spec(*read_experiment_spec(str(no_source)))

    bad_plan = tmp_path / "plan.json"
    bad_plan.write_text(json.dumps({"synthetic": {}, "plan": ["R3"]}))
    with pytest.raises(ConfigError, match="plan"):
        experiment_from_spec(*read_experiment_spec(str(bad_plan)))
