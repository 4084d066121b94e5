"""Degenerate-input fuzzing: run configs of any JSON shape, thin
clustering grids, constant columns and magnitudes up to the parse
bound, and mutated data and schema files.  Each must give a documented
exit code, a typed error or a finite result, never an internal error
or a NaN."""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cmimpute.casestudy import CLASSIFICATION_PARTITION, IMPUTATION_PARTITION, fixture_text
from cmimpute.classify import classify_mapped, classify_mapped_all, classify_raw_knn
from cmimpute.cli import EXIT_INSUFFICIENT, EXIT_INTERNAL, EXIT_OK, EXIT_UNLABELED, EXIT_USAGE, main
from cmimpute.dataset import (
    CATEGORICAL,
    MAX_MAGNITUDE,
    NUMERIC,
    AttributeSpec,
    Dataset,
    Record,
    Schema,
    dataset_to_csv,
    parse_dataset,
    split_groups,
)
import cmimpute.errors
from cmimpute.errors import CannotClassifyError, ConfigError, InsufficientDataError, SchemaError
from cmimpute.evaluate import (
    ALL_METHODS,
    EvaluationReport,
    ExperimentConfig,
    inject_mcar,
    make_synthetic_dataset,
    mask_cells,
    run_experiment,
)
from cmimpute.impute import MODES, ImputeConfig, impute_dataset
from cmimpute.kmeans import ClusterModel, FarthestFirst, FixedPartition, SeededRandom, cluster
from cmimpute.mapping import build_mapping

# --- (a) run configs ---

FIXTURES = (
    "table03_missing_raw.csv",
    "table16_classification.csv",
    "schema_missing.json",
    "schema_classification.json",
)
# Complete query files under each fixture schema's attributes.
QUERY_FILES = {
    "query.csv": "P1,P2,P3,P4\n2,5,2,9\n",
    "query_missing.csv": "A1,A2,A3,A4\nc12,6,d31,8\n",
}

# A data file whose last field is one character longer than the csv
# module accepts.
OVERSIZED = "oversized.csv"


def oversized_text() -> str:
    return fixture_text("table03_missing_raw.csv") + "c11,5,d31,10," + "x" * (csv.field_size_limit() + 1) + "\n"


# Short strings over an alphabet that spells ".", "..", "" and a NUL
# byte: paths that are directories, missing, or not paths at all.
short_text = st.text(alphabet="ab.\0", max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | short_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(short_text, inner, max_size=3),
    max_leaves=6,
)
paths = st.sampled_from(FIXTURES + tuple(QUERY_FILES) + (OVERSIZED, "out.csv", ".", "no/such/dir.csv"))
partitions = st.sampled_from((IMPUTATION_PARTITION, CLASSIFICATION_PARTITION, (("R1",), ("R2", "R99"))))
inits = st.one_of(
    st.fixed_dictionaries(
        {"policy": st.sampled_from(["farthest-first", "seeded-random"]), "seed": st.integers(-2, 50)}
    ),
    partitions.map(lambda p: {"policy": "fixed-partition", "groups": [list(g) for g in p]}),
)
# Per key: a plausible value, so runs get deep into the pipeline, or any JSON.
OPTIONS = {
    "data": paths,
    "schema": paths,
    "train": paths,
    "query": paths,
    "out": paths,
    "report": paths,
    "mode": st.sampled_from(MODES),
    "seed": st.integers(-1, 50),
    "k": st.integers(0, 10),
    "init": inits,
    "verbose": st.booleans(),
    "with_knn_baseline": st.booleans(),
    "tolerance": st.floats(0, 1),
}
run_configs = st.fixed_dictionaries(
    {}, optional={key: st.one_of(plausible, json_values) for key, plausible in OPTIONS.items()}
)

# Evaluate specs.  Their integers stay small, because a plausible spec
# with a huge record or trial count is a long run, not an error; only a
# record count past the float range, which is an error, is drawn large.
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(allow_nan=False) | short_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(short_text, inner, max_size=3),
    max_leaves=6,
)
SPEC_FIELDS = {
    "synthetic": st.fixed_dictionaries(
        {},
        optional={
            "records": st.one_of(st.integers(0, 40), st.integers(10**309, 10**400), small_json),
            "seed": st.one_of(st.integers(-1, 50), small_json),
        },
    ),
    "dataset": paths,
    "schema": paths,
    "methods": st.lists(st.sampled_from(ALL_METHODS + ("telepathy",)), max_size=4),
    "rates": st.lists(st.floats(0, 1), max_size=2),
    "trials": st.integers(-1, 2),
    "master_seed": st.integers(-1, 50),
    "holdout_fraction": st.floats(0, 1),
    "plan": st.lists(
        st.tuples(st.sampled_from(["R1", "R3", "R5", "R99"]), st.integers(-1, 5)).map(list), max_size=3
    ),
}
evaluate_specs = st.fixed_dictionaries(
    {}, optional={key: st.one_of(plausible, small_json) for key, plausible in SPEC_FIELDS.items()}
)
CONFIGS = {"evaluate": evaluate_specs}


def run_in_scratch_dir(command: str, config: dict) -> int:
    """main() on `command --config run.json`, in a fresh directory
    holding the bundled fixtures, the complete query files and the
    data file with an oversized field."""
    cwd = os.getcwd()
    files = {name: fixture_text(name) for name in FIXTURES} | QUERY_FILES | {OVERSIZED: oversized_text()}
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files.items():
            with open(os.path.join(scratch, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(scratch, "run.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        os.chdir(scratch)
        try:
            return main([command, "--config", "run.json"])
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("command", ["impute", "classify", "casestudy", "evaluate"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_no_run_config_is_an_internal_error(command, data):
    """A run config, or for evaluate an experiment spec."""
    config = data.draw(CONFIGS.get(command, run_configs))
    assert run_in_scratch_dir(command, config) != EXIT_INTERNAL


def tuples_of_lists(value):
    """value with every list in it, and in its lists, made a tuple."""
    return tuple(map(tuples_of_lists, value)) if isinstance(value, list) else value


# ExperimentConfig's keyword arguments: a spec's option fields, each
# drawn plausible or as any small JSON value, with lists or tuples.
experiment_options = st.fixed_dictionaries(
    {},
    optional={
        key: st.one_of(SPEC_FIELDS[key], small_json).flatmap(lambda v: st.sampled_from((v, tuples_of_lists(v))))
        for key in ("methods", "rates", "trials", "master_seed", "holdout_fraction", "plan")
    },
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(options=experiment_options)
def test_a_library_experiment_gives_a_report_or_a_typed_error(options):
    dataset = make_synthetic_dataset(12, seed=3)
    try:
        report = run_experiment(ExperimentConfig(dataset, **options))
    except (ConfigError, InsufficientDataError, CannotClassifyError):
        return
    assert isinstance(report, EvaluationReport)


# cmimpute's own exception types: every failure a library call may raise.
LIBRARY_ERRORS = tuple(
    value for value in vars(cmimpute.errors).values() if isinstance(value, type) and issubclass(value, Exception)
)
# A masked synthetic table, and its complete rows, which a fixed
# partition drawn below splits into one to four groups.
MASKED = inject_mcar(make_synthetic_dataset(12, seed=3), 0.1, seed=0)[0]
COMPLETE = split_groups(MASKED).g1
id_partitions = st.permutations(COMPLETE.ids).flatmap(
    lambda ids: st.integers(1, 4).map(lambda k: [list(ids[i::k]) for i in range(k)])
)
# ImputeConfig's and cluster's options, each drawn plausible or as any
# small JSON value; an init policy is built from either, or is the value.
pipeline_modes = st.one_of(st.sampled_from(MODES), small_json)
pipeline_ks = st.one_of(st.none(), st.integers(-1, 8), small_json)
seeds = st.one_of(st.integers(-2, 50), small_json)
groups = st.one_of(id_partitions, small_json).flatmap(lambda v: st.sampled_from((v, tuples_of_lists(v))))
pipeline_inits = st.one_of(
    st.builds(SeededRandom, seeds), st.builds(FarthestFirst, seeds), st.builds(FixedPartition, groups), small_json
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mode=pipeline_modes, k=pipeline_ks, init=pipeline_inits, cluster_k=pipeline_ks)
def test_a_library_pipeline_gives_a_result_or_a_typed_error(mode, k, init, cluster_k):
    try:
        result = impute_dataset(MASKED, ImputeConfig(mode, k, init))
    except LIBRARY_ERRORS:
        pass
    else:
        assert result.dataset.is_complete
    try:
        model = cluster(COMPLETE, cluster_k, init)
    except LIBRARY_ERRORS:
        return
    assert sorted(set(model.assignment.values())) == list(range(len(model.centroids)))


# Matrix cells: a few values drawn often, so cells and rows repeat, the
# magnitude bound and the first values past it, huge and infinite
# values, a missing cell, and any float.
PAST_BOUND = math.nextafter(MAX_MAGNITUDE, math.inf)
matrix_cells = st.one_of(
    st.sampled_from(
        (0.0, 1.0, 2.0, MAX_MAGNITUDE, -MAX_MAGNITUDE, PAST_BOUND, -PAST_BOUND, 1e300, -1e300, math.inf, -math.inf)
    ),
    st.just(math.nan),
    st.floats(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.integers(1, 8), n=st.integers(1, 3), data=st.data())
def test_a_library_dataset_gives_a_result_or_a_typed_error(m, n, data):
    """A matrix built in code, then imputed, masked by mask_cells cells
    of any small JSON shape, and clustered and classified against
    itself; and a model built in code, of zero to three centroids of any
    cells and of arity n - 1 to n + 1 each, clustering the dataset's own
    records or others, used to classify and to map.  A call that
    succeeds with such a model must have been given a usable one."""
    schema = Schema(tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(n)), label_column="class")
    ids = [f"R{i + 1}" for i in range(m)]
    labels = data.draw(st.lists(st.sampled_from(("A", "B", None)), min_size=m, max_size=m))
    matrix = data.draw(st.lists(st.lists(matrix_cells, min_size=n, max_size=n), min_size=m, max_size=m))
    bounded = all(abs(v) <= MAX_MAGNITUDE for row in matrix for v in row if v == v)
    try:
        dataset = Dataset(schema, ids, labels, matrix)
    except SchemaError:
        assert not bounded
        return
    assert bounded
    pairs = st.tuples(st.sampled_from(ids + ["R0"]), st.integers(-1, n))
    cells = data.draw(st.one_of(st.lists(st.one_of(pairs, pairs.map(list)), max_size=4), small_json))
    calls = (
        lambda: impute_dataset(dataset).dataset.is_complete,
        lambda: len(mask_cells(dataset, cells)[0]) == m,
        lambda: len(classify_mapped_all(dataset, dataset, cluster(dataset, None, FarthestFirst(0)))) == m,
    )
    for call in calls:
        try:
            assert call()
        except LIBRARY_ERRORS:
            pass
    rows = st.lists(matrix_cells, min_size=n - 1, max_size=n + 1).map(tuple)
    centroids = tuple(data.draw(st.lists(rows, max_size=3)))
    model = ClusterModel(centroids, data.draw(st.sampled_from((dict.fromkeys(ids, 0), {"R0": 0}))))
    usable = centroids and all(len(c) == n and all(abs(v) <= MAX_MAGNITUDE for v in c) for c in centroids)

    def mapping_values():
        maps = build_mapping(*split_groups(dataset), model)
        return maps.donor_values.tolist() + maps.query_values.tolist()

    model_calls = (  # (call, whether its values are mapping values, not a classifier's signed column)
        (lambda: [v for o in classify_mapped_all(dataset, dataset, model) for v in o.table.values()], False),
        (lambda: list(classify_mapped(dataset.records[0], dataset, model).table.values()), False),
        (mapping_values, True),
    )
    for call, mapping in model_calls:
        try:
            values = call()
        except LIBRARY_ERRORS:
            continue
        assert usable
        assert all(math.isfinite(v) and (v >= 0 or not mapping) for v in values)


@settings(max_examples=20, deadline=None)
@given(records=st.integers(10**309, 10**4000))
@example(records=10**309)
def test_a_record_count_past_the_float_range_is_a_usage_error(records):
    assert run_in_scratch_dir("evaluate", {"synthetic": {"records": records}}) == EXIT_USAGE


@pytest.mark.parametrize(
    ("command", "config"),
    [
        ("impute", {"data": OVERSIZED, "schema": "schema_missing.json", "out": "out.csv"}),
        ("classify", {"train": "table16_classification.csv", "schema": "schema_classification.json", "query": OVERSIZED}),
        ("evaluate", {"dataset": OVERSIZED, "schema": "schema_missing.json"}),
    ],
)
def test_an_oversized_field_is_a_usage_error(command, config):
    """The run configs above reach the oversized-field file only now
    and then; these three reach it on purpose."""
    assert run_in_scratch_dir(command, config) == EXIT_USAGE


# --- (b) clustering on thin grids ---


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=10),
    st.integers(1, 6),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_cluster_fails_exactly_when_k_exceeds_the_distinct_points(points, k, seed, farthest):
    records = [Record(f"R{i + 1}", tuple(map(float, p))) for i, p in enumerate(points)]
    init = FarthestFirst(seed) if farthest else SeededRandom(seed)
    if k > len(set(points)):
        with pytest.raises(InsufficientDataError):
            cluster(records, k, init)
        return
    model = cluster(records, k, init)
    assert sorted(set(model.assignment.values())) == list(range(k))
    assert np.isfinite(model.centroids).all()


# --- (c) constant columns and magnitudes up to the parse bound ---

bounded = st.one_of(
    st.sampled_from([MAX_MAGNITUDE, -MAX_MAGNITUDE, 0.0, 1.0]),
    st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE),
)
SCHEMA = Schema(tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(3)), label_column="class")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(bounded, bounded), min_size=4, max_size=10),
    bounded,
    st.data(),
)
def test_constant_columns_and_huge_values_give_finite_results(varying, constant, data):
    """Column x1 is constant; x0 and x2 vary up to the parse bound."""
    m = len(varying)
    holes = data.draw(st.sets(st.tuples(st.integers(0, m - 1), st.sampled_from([0, 2])), max_size=m))
    rows = [
        [repr(a), repr(constant), repr(b), "AB"[i % 2]] for i, (a, b) in enumerate(varying)
    ]
    for i, j in holes:
        rows[i][j] = "?"
    complete = {tuple(r[:3]) for r in rows if "?" not in r}
    assume(len({tuple(map(float, c)) for c in complete}) >= 2)
    text = "x0,x1,x2,class\n" + "".join(",".join(r) + "\n" for r in rows)
    dataset = parse_dataset(text, SCHEMA)

    mode = data.draw(st.sampled_from(MODES))
    result = impute_dataset(dataset, ImputeConfig(mode=mode, init=FarthestFirst(data.draw(st.integers(0, 99)))))
    assert all(math.isfinite(f.value) for f in result.fills)
    train = result.dataset
    assert train.is_complete

    model = cluster(train.records, 2, FarthestFirst(0))
    query = Record("Q1", (data.draw(bounded), constant, data.draw(bounded)))
    for outcome in (classify_mapped(query, train, model, mode), classify_raw_knn(query, train)):
        assert outcome.labels
        assert all(math.isfinite(v) for v in outcome.table.values())


# --- (d) mutated data and schema files ---


def synthetic_files() -> tuple[str, dict]:
    """A small generated table, as text, and its schema as JSON."""
    dataset = make_synthetic_dataset(12, seed=5)
    attributes = [{"name": a.name, "kind": a.kind, "encoding": dict(a.encoding)} for a in dataset.schema.attributes]
    return dataset_to_csv(dataset), {"attributes": attributes, "label_column": "class"}


BASES = {
    data: (fixture_text(data), json.loads(fixture_text(schema)))
    for data, schema in (
        ("table03_missing_raw.csv", "schema_missing.json"),
        ("table01_raw.csv", "schema_missing.json"),
        ("table16_classification.csv", "schema_classification.json"),
    )
} | {"synthetic": synthetic_files()}

# A lone surrogate is written as the byte it escapes (surrogateescape),
# so "\udcff" puts a byte that is not UTF-8 into the file.
FIELD_EDITS = {
    "empty": lambda f: "",
    "marker": lambda f: "?",
    "padded": lambda f: f"  {f} ",
    "nan": lambda f: "nan",
    "inf": lambda f: "-inf",
    "overflow": lambda f: "1e400",
    "word": lambda f: "x7",
    "nul": lambda f: f + "\0",
    "bom": lambda f: "\ufeff" + f,
    "not utf-8": lambda f: f + "\udcff",
}
ROW_EDITS = ("repeat", "drop", "ragged long", "ragged short", "no header")
SCHEMA_EDITS = ("markers", "lose a symbol", "swap kind", "no label", "rename label")
MARKER_LISTS = ([], ["?"], ["NA"], ["?", "NaN", "", "5"], ["?", "1"])

# One edit: its name and two indices (row and column, or attribute and
# symbol or marker list), taken modulo what they index.
edits = st.tuples(
    st.sampled_from(tuple(FIELD_EDITS) + ROW_EDITS + SCHEMA_EDITS), st.integers(0, 60), st.integers(0, 10)
)


def mutate(rows: list[list[str]], schema: dict, edit: tuple) -> None:
    """Apply one edit in place to the rows of text and to schema; an edit
    with nothing to act on does nothing."""
    name, i, j = edit
    attributes = schema["attributes"]
    if name in FIELD_EDITS and rows and rows[i % len(rows)]:
        row = rows[i % len(rows)]
        row[j % len(row)] = FIELD_EDITS[name](row[j % len(row)])
    elif name == "no header" and rows:
        del rows[0]
    elif name in ROW_EDITS and len(rows) > 1:
        k = 1 + i % (len(rows) - 1)
        if name == "repeat":
            rows.insert(k, list(rows[k]))
        elif name == "drop":
            del rows[k]
        elif name == "ragged long":
            rows[k].append("1")
        elif rows[k]:
            rows[k].pop()
    elif name == "markers":
        schema["missing_markers"] = MARKER_LISTS[i % len(MARKER_LISTS)]
    elif name == "lose a symbol" and attributes[i % len(attributes)].get("encoding"):
        encoding = attributes[i % len(attributes)]["encoding"]
        lost = sorted(encoding)[j % len(encoding)]
        kept = sorted((s for s in encoding if s != lost), key=encoding.get)
        attributes[i % len(attributes)]["encoding"] = {s: ordinal for ordinal, s in enumerate(kept, start=1)}
    elif name == "swap kind":
        attribute = attributes[i % len(attributes)]
        attribute["kind"] = CATEGORICAL if attribute["kind"] == NUMERIC else NUMERIC
        attribute.pop("encoding", None)
    elif name == "no label" and "label_column" in schema:
        del schema["label_column"]
        if j % 2:  # the data loses its label column too, and is unlabeled
            for row in rows:
                del row[len(attributes) :]
    elif name == "rename label":
        schema["label_column"] = "Label"


def check_output(path: str, schema: dict, rows: list[list[str]]) -> None:
    """Every attribute cell of a written table is a finite number or a
    known symbol: one of its frozen encoding, or else one of its
    column's input fields.  Label fields are free text."""
    markers = set(schema.get("missing_markers", ["?", "NaN", ""]))
    with open(path, encoding="utf-8", newline="") as fh:
        written = list(csv.reader(fh))[1:]
    assert written
    for j, attribute in enumerate(schema["attributes"]):
        cells = [row[j] for row in written]
        if attribute["kind"] == NUMERIC:
            assert all(math.isfinite(float(cell)) for cell in cells), cells
        else:
            known = attribute.get("encoding") or {row[j].strip() for row in rows[1:]} - markers
            assert set(cells) <= set(known), (cells, known)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BASES)), st.lists(edits, max_size=3))
def test_mutated_data_and_schema_files_exit_with_a_documented_code(base, mutations):
    """impute in both modes, classify with the kNN baseline and evaluate
    read the mutated files: each run exits 0, 2, 3 or 4, never 1, and a
    written table holds finite numbers and known symbols only."""
    text, schema = BASES[base]
    schema = json.loads(json.dumps(schema))
    rows = [line.split(",") for line in text.splitlines()]
    query = [",".join(a["name"] for a in schema["attributes"]), ",".join(rows[1][: len(schema["attributes"])])]
    for edit in mutations:
        mutate(rows, schema, edit)
    with tempfile.TemporaryDirectory() as scratch:
        path = functools.partial(os.path.join, scratch)
        files = {
            "data.csv": "".join(",".join(row) + "\n" for row in rows),
            "schema.json": json.dumps(schema),
            "query.csv": "\n".join(query) + "\n",
            "spec.json": json.dumps({"dataset": "data.csv", "schema": "schema.json", "rates": [0.2]}),
        }
        for name, content in files.items():
            with open(path(name), "wb") as fh:
                fh.write(content.encode("utf-8", "surrogateescape"))
        data, schema_path = path("data.csv"), path("schema.json")
        runs = [
            ["impute", "--data", data, "--schema", schema_path, "--mode", mode, "--out", path(f"{mode}.csv")]
            for mode in MODES
        ] + [
            ["classify", "--train", data, "--schema", schema_path, "--query", path("query.csv"), "--with-knn-baseline",
             "--out", path("labels.csv")],
            ["evaluate", "--config", path("spec.json"), "--out", path("report.json")],
        ]
        for argv in runs:
            code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_INSUFFICIENT, EXIT_UNLABELED), argv
            if code == EXIT_OK and argv[0] == "impute":
                check_output(argv[-1], schema, rows)
