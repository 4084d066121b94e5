"""Parsing, encoding, decoding, and the complete/incomplete split."""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cmimpute.dataset
from cmimpute.casestudy import fixture_text
from cmimpute.dataset import (
    CATEGORICAL,
    MAX_MAGNITUDE,
    NUMERIC,
    AttributeSpec,
    Dataset,
    Record,
    Schema,
    csv_text,
    dataset_to_csv,
    format_number,
    parse_dataset,
    schema_from_dict,
    split_groups,
    write_dataset,
)
from cmimpute.errors import DecodeError, ParseError, SchemaError
from cmimpute.impute import ImputeConfig, impute_dataset
from conftest import dataset_of


def missing_schema() -> Schema:
    return schema_from_dict(json.loads(fixture_text("schema_missing.json")))


def numeric_schema(n: int, label: str | None = "class") -> Schema:
    return Schema(
        tuple(AttributeSpec(f"x{i + 1}", NUMERIC) for i in range(n)),
        label_column=label,
    )


# --- parsing ---


def test_nan_marker_becomes_missing_cell():
    raw = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    r3 = raw.record("R3")
    assert r3.cells == (1.0, 7.0, None, 7.0)
    assert raw.schema.attributes[0].encoding["c11"] == 1
    assert r3.label == "CLASS-1"


def test_question_mark_marker_becomes_missing_cell():
    raw = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    r5 = raw.record("R5")
    assert r5.cells == (3.0, 3.0, 2.0, None)
    a1, _, a3, _ = raw.schema.attributes
    assert (a1.encoding["c13"], a3.encoding["d32"]) == (3, 2)


def test_fully_populated_row_is_complete():
    raw = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    r1 = raw.record("R1")
    assert r1.is_complete
    assert r1.cells == (1.0, 5.0, 1.0, 10.0)
    a1, _, a3, _ = raw.schema.attributes
    assert (a1.encoding["c11"], a3.encoding["d31"]) == (1, 1)


@pytest.mark.parametrize(
    "cells, complete",
    [
        ((1.0, "s", 0.0), True),
        ((float("nan"), 0.0), True),  # NaN is a value; only None is missing
        ((1.0, None), False),
        ((None,), False),
        ((), True),
    ],
)
def test_record_completeness_tests_for_none_only(cells, complete):
    assert Record("R1", cells).is_complete is complete


def test_record_lookup_by_id():
    schema = numeric_schema(1)
    ds = dataset_of(schema, (Record("R1", (1.0,), "a"), Record("R2", (2.0,), "b"), Record("R1", (3.0,), "c")))
    assert ds.record("R2").cells == (2.0,)
    assert ds.record("R1").label == "a"  # the first record wins on a repeated id
    with pytest.raises(KeyError):
        ds.record("R9")


def test_custom_id_prefix():
    text = "x1,class\n1,a\n2,b\n"
    ds = parse_dataset(text, numeric_schema(1), id_prefix="Q")
    assert [r.id for r in ds.records] == ["Q1", "Q2"]


def test_empty_label_field_means_unlabeled():
    text = "x1,class\n1,\n2,b\n"
    ds = parse_dataset(text, numeric_schema(1))
    assert ds.record("R1").label is None
    assert ds.classes == ("b",)


def test_arity_mismatch_names_the_row():
    text = "x1,x2,class\n1,2,a\n1,a\n"
    with pytest.raises(ParseError, match="row 3"):
        parse_dataset(text, numeric_schema(2))


def test_unparseable_numeric_names_the_row():
    text = "x1,class\nbogus,a\n"
    with pytest.raises(ParseError, match="row 2.*bogus"):
        parse_dataset(text, numeric_schema(1))


def test_non_finite_numeric_rejected():
    text = "x1,class\ninf,a\n"
    with pytest.raises(ParseError, match="non-finite"):
        parse_dataset(text, numeric_schema(1))


@pytest.mark.parametrize("field", ["1e300", "-1e300", "1.0000001e100"])
def test_magnitude_above_the_bound_rejected(field):
    with pytest.raises(ParseError, match="row 3.*magnitude bound"):
        parse_dataset(f"x1,class\n1,a\n{field},a\n", numeric_schema(1))


def test_magnitudes_up_to_the_bound_parse():
    ds = parse_dataset("x1,class\n1e99,a\n-1e100,a\n", numeric_schema(1))
    assert [r.cells for r in ds.records] == [(1e99,), (-1e100,)]


def test_header_must_match_schema():
    text = "wrong,class\n1,a\n"
    with pytest.raises(ParseError, match="header"):
        parse_dataset(text, numeric_schema(1))


def test_empty_input_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_dataset("", numeric_schema(1))


def test_unknown_symbol_under_frozen_encoding():
    schema = Schema(
        (AttributeSpec("a", CATEGORICAL, {"x": 1, "y": 2}),), label_column="class"
    )
    with pytest.raises(SchemaError, match="'z'"):
        parse_dataset("a,class\nz,a\n", schema)


def test_custom_missing_markers_override():
    text = "x1,class\nNA,a\n"
    schema = Schema(numeric_schema(1).attributes, "class", missing_markers=frozenset({"NA"}))
    ds = parse_dataset(text, schema)
    assert ds.record("R1").cells == (None,)


# Per header, the schema a row-order case is parsed under.
ROW_ORDER_SCHEMAS = {
    "x1,x2,class": numeric_schema(2),
    "x1,s,class": Schema((AttributeSpec("x1", NUMERIC), AttributeSpec("s", CATEGORICAL, {"a": 1})), "class"),
}


@pytest.mark.parametrize(
    "text, match",
    [
        # The first bad field in row order wins, whatever its column or kind.
        ("x1,x2,class\n1,bogus,a\n1,a\n", "row 2: 'bogus'"),
        ("x1,x2,class\n1,2,a\n1,a\nnan,1,a\n", "row 3: expected 3 fields"),
        ("x1,x2,class\n1,2,a\n1,nan,a\ninf,1,a\n", "row 3: non-finite value 'nan'"),
        ("x1,x2,class\n1,2e100,a\nbogus,1,a\n", "row 2: '2e100' .* magnitude bound"),
        # The same on text that holds a quote, which csv.reader reads.
        ('x1,x2,class\n"1",bogus,a\n1,a\n', "row 2: 'bogus'"),
        ('x1,s,class\n"1",a,b\n1,a\n2,z,b\n', "row 3: expected 3 fields"),
        ('x1,s,class\n"1",z,b\n1,a\n', "row 2: symbol 'z' not in the frozen encoding"),
        # A bad field of each kind below a good row, split and by csv.reader.
        *(
            (text.replace("R", row), match)
            for row in ("1", '"1"')
            for text, match in [
                ("x1,x2,class\nR,2,a\n3,bogus,a\n", "row 3: 'bogus' is not numeric for attribute 'x2'"),
                ("x1,x2,class\nR,2,a\n3,inf,a\n", "row 3: non-finite value 'inf' for attribute 'x2'"),
                ("x1,x2,class\nR,2,a\n3,1e101,a\n", "row 3: '1e101' for attribute 'x2' exceeds"),
                ("x1,s,class\nR,a,b\n3,z,b\n", "row 3: symbol 'z' not in the frozen encoding of attribute 's'"),
            ]
        ),
    ],
)
def test_the_first_bad_field_in_row_order_is_named(text, match):
    error = SchemaError if "frozen encoding" in match else ParseError
    with pytest.raises(error, match=match):
        parse_dataset(text, ROW_ORDER_SCHEMAS[text.split("\n")[0]])


def test_fields_parse_as_python_floats_and_markers_are_stripped():
    ds = parse_dataset("x1,x2,class\n1_000, ? ,a\n -0.0 ,2,b\n", numeric_schema(2))
    assert [r.cells for r in ds.records] == [(1000.0, None), (-0.0, 2.0)]
    assert str(ds.records[1].cells[0]) == "-0.0"


@given(
    st.lists(
        st.lists(st.text(alphabet='ab ,"\r\n?', max_size=3), min_size=3, max_size=3),
        max_size=6,
    ),
    st.integers(1, 3),
)
def test_csv_text_is_what_csv_writer_writes(rows, width):
    rows = [row[:width] for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["h"] * width)
    writer.writerows(rows)
    assert csv_text(["h"] * width, [list(c) for c in zip(*rows)] or [[]] * width) == buf.getvalue()


# --- encoding and decoding ---


def test_encode_reference_symbols():
    ds = parse_dataset(fixture_text("table01_raw.csv"), missing_schema())
    assert ds.record("R2").cells[0] == 3.0  # c13
    assert ds.record("R3").cells[2] == 2.0  # d32
    assert ds.record("R1").cells[3] == 10.0  # numeric pass-through


def test_encode_leaves_missing_cells_missing():
    ds = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    assert ds.record("R3").cells[2] is None
    assert ds.record("R5").cells[3] is None


def test_decode_reference_symbols():
    a1, _, a3, a4 = missing_schema().attributes
    assert a3.decode_value(2.0) == "d32"
    assert a1.decode_value(3.0) == "c13"
    assert a4.decode_value(7.0) == 7.0


def test_decode_rejects_non_ordinal(tmp_path):
    spec = AttributeSpec("a", CATEGORICAL, {"x": 1, "y": 2})
    with pytest.raises(DecodeError):
        spec.decode_value(2.5)
    with pytest.raises(DecodeError):
        spec.decode_value(3.0)
    # The writer decodes before it opens the file, so none is left behind.
    out = tmp_path / "out.csv"
    with pytest.raises(DecodeError, match="value 3.0 is not an ordinal"):
        write_dataset(Dataset(Schema((spec,)), ["R1", "R2"], [None, None], [(1.0,), (3.0,)]), str(out))
    assert not out.exists()


# A frozen categorical attribute whose ordinals are not in sorted
# symbol order, an unfrozen one, and missing cells in both.
MIXED = Schema(
    (
        AttributeSpec("x", NUMERIC),
        AttributeSpec("f", CATEGORICAL, {"hi": 1, "lo": 2, "mid": 3}),
        AttributeSpec("u", CATEGORICAL),
    ),
    label_column="class",
)
MIXED_TEXT = "x,f,u,class\n1,lo,zed,a\n2.5,?,apex,b\n?,hi,?,a\n3,mid,mid,\n"


def test_decode_encode_round_trip_on_reference_table():
    # Parse stores ordinals and the writer gives the symbols back, on
    # the split parse and on csv.reader's.
    cases = [(fixture_text("table01_raw.csv"), missing_schema()), (MIXED_TEXT, MIXED)]
    for text, schema in cases:
        assert dataset_to_csv(parse_dataset(text, schema)) == text
        with mock.patch.object(cmimpute.dataset, "_split_fields", return_value=None):
            assert dataset_to_csv(parse_dataset(text, schema)) == text
    train = parse_dataset(MIXED_TEXT, MIXED)
    assert [r.cells for r in train.records] == [
        (1.0, 2.0, 3.0),
        (2.5, None, 1.0),
        (None, 1.0, None),
        (3.0, 3.0, 2.0),
    ]
    assert train.schema.attributes[:2] == MIXED.attributes[:2]
    assert train.schema.attributes[2].encoding == {"apex": 1, "mid": 2, "zed": 3}
    # A query file read under the training schema gets the training
    # ordinals, not ones built from its own symbols.
    query_schema = Schema(train.schema.attributes, None, train.schema.missing_markers)
    queries = parse_dataset("x,f,u\n4,mid,mid\n", query_schema, id_prefix="Q")
    assert queries.record("Q1").cells == (4.0, 3.0, 2.0)
    assert queries.schema == query_schema


def test_auto_encoding_uses_sorted_symbol_order():
    schema = Schema((AttributeSpec("a", CATEGORICAL),), label_column="class")
    ds = parse_dataset("a,class\nmid,x\nzed,x\napex,x\n", schema)
    assert dict(ds.schema.attributes[0].encoding) == {"apex": 1, "mid": 2, "zed": 3}
    assert [r.cells[0] for r in ds.records] == [2.0, 3.0, 1.0]


def test_explicit_encoding_wins_over_data_order():
    # The frozen map is authoritative even when it disagrees with
    # sorted order, so table reproductions never depend on naming.
    schema = Schema(
        (AttributeSpec("a", CATEGORICAL, {"zed": 1, "apex": 2}),), label_column="class"
    )
    ds = parse_dataset("a,class\napex,x\nzed,x\n", schema)
    assert [r.cells[0] for r in ds.records] == [2.0, 1.0]


def test_encoding_ordinals_must_be_contiguous_from_one():
    with pytest.raises(SchemaError, match="contiguous"):
        AttributeSpec("a", CATEGORICAL, {"x": 1, "y": 3})


def test_numeric_attribute_rejects_encoding():
    with pytest.raises(SchemaError):
        AttributeSpec("a", NUMERIC, {"x": 1})


# --- the group split ---


def test_split_reference_dataset():
    ds = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    split = split_groups(ds)
    assert split.g1.ids == ("R1", "R2", "R4", "R6", "R7", "R8", "R9")
    assert split.g2.ids == ("R3", "R5")


def test_split_complete_dataset_has_empty_g2():
    ds = parse_dataset(fixture_text("table01_raw.csv"), missing_schema())
    split = split_groups(ds)
    assert len(split.g2) == 0
    assert split.g1 == ds


def test_split_all_records_incomplete_has_empty_g1():
    ds = dataset_of(
        numeric_schema(2),
        (Record("R1", (None, 1.0)), Record("R2", (2.0, None))),
    )
    split = split_groups(ds)
    assert len(split.g1) == 0
    assert split.g2 == ds


@given(
    st.lists(
        st.lists(
            st.one_of(st.none(), st.floats(-50, 50, allow_nan=False)),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_split_partitions_every_record(rows):
    records = tuple(
        Record(f"R{i + 1}", tuple(row)) for i, row in enumerate(rows)
    )
    ds = dataset_of(numeric_schema(3, label=None), records)
    split = split_groups(ds)
    assert len(split.g1) + len(split.g2) == len(records)
    g1_ids = set(split.g1.ids)
    g2_ids = set(split.g2.ids)
    assert g1_ids.isdisjoint(g2_ids)
    assert g1_ids | g2_ids == {r.id for r in records}
    assert split.g1.is_complete
    assert all(not r.is_complete for r in split.g2.records)


def test_parse_encode_split_is_deterministic():
    text = fixture_text("table03_missing_raw.csv")
    first = parse_dataset(text, missing_schema())
    second = parse_dataset(text, missing_schema())
    assert first == second
    assert dataset_to_csv(first) == dataset_to_csv(second)



def test_dataset_equality_builds_no_record(monkeypatch):
    built = []
    original = Record.__new__

    def counting(cls, *args, **kwargs):
        built.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Record, "__new__", counting)
    text = fixture_text("table03_missing_raw.csv")
    raw, raw_again = (parse_dataset(text, missing_schema()) for _ in range(2))
    assert raw == raw_again  # missing cells equal each other
    assert raw == Dataset(raw.schema, raw.ids, raw.labels, raw.matrix)  # field texts are not compared
    assert raw != Dataset(raw.schema, raw.ids, raw.labels[::-1], raw.matrix)
    holed = raw.matrix.copy()
    holed[0, 0] = np.nan
    assert raw != Dataset(raw.schema, raw.ids, raw.labels, holed)
    assert built == []


def test_dataset_equality_reads_cells_as_the_record_view_does():
    schema = numeric_schema(2)
    plain = Dataset(schema, ["R1", "R2"], ["a", None], np.array([[0.0, 1.0], [np.nan, 2.0]]))
    assert plain == Dataset(schema, ["R1", "R2"], ["a", None], np.array([[-0.0, 1.0], [np.nan, 2.0]]))
    # The constructor reads a sequence of rows, None as NaN.
    assert plain == Dataset(schema, ["R1", "R2"], ["a", None], [(0.0, 1.0), (None, 2.0)])
    assert plain != Dataset(schema, ["R1", "R2"], ["a", None], [(0.0, 1.0), (1.0, 2.0)])
    assert plain != Dataset(schema, ["R1", "R3"], ["a", None], plain.matrix)
    assert (plain == "R1") is False


def test_dataset_stores_one_read_only_matrix_of_its_shape():
    schema = numeric_schema(2)
    plain = Dataset(schema, ["R1", "R2"], ["a", None], [(0.0, 1.0), (None, 2.0)])
    # A matrix of another shape, or labels of another length, is refused.
    with pytest.raises(SchemaError, match=r"^a \(2, 2\) dataset got a \(2, 1\) matrix and 2 labels$"):
        Dataset(schema, ["R1", "R2"], ["a", None], plain.matrix[:, :1])
    with pytest.raises(SchemaError, match=r"a \(2, 2\) matrix and 1 labels"):
        Dataset(schema, ["R1", "R2"], ["a"], plain.matrix)
    with pytest.raises(SchemaError, match=r"got a \(3, 2\) matrix"):
        Dataset(schema, ["R1", "R2"], ["a", None], [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)])
    # A Fortran-ordered matrix and nested rows holding None are both
    # stored as one read-only, C-contiguous float64 matrix.
    for cells in (np.asfortranarray([[0.0, 1.0], [np.nan, 2.0]]), [[0, 1], [None, 2]]):
        stored = Dataset(schema, ["R1", "R2"], ["a", None], cells).matrix
        assert stored.dtype == np.float64 and stored.shape == (2, 2)
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert np.array_equal(stored, plain.matrix, equal_nan=True) and math.isnan(stored[1, 0])
    assert Dataset(schema, [], [], []).matrix.shape == (0, 2)


# --- schema config and serialization ---


def test_schema_from_dict_reads_every_field():
    assert missing_schema() == Schema(
        (
            AttributeSpec("A1", CATEGORICAL, {"c11": 1, "c12": 2, "c13": 3}),
            AttributeSpec("A2", NUMERIC),
            AttributeSpec("A3", CATEGORICAL, {"d31": 1, "d32": 2}),
            AttributeSpec("A4", NUMERIC),
        ),
        label_column="Class",
        missing_markers=frozenset({"?", "NaN", ""}),
    )
    assert schema_from_dict({"attributes": [{"name": "x", "kind": "numeric"}]}) == Schema(
        (AttributeSpec("x", NUMERIC),)
    )


def test_schema_from_dict_validates_shape():
    with pytest.raises(SchemaError):
        schema_from_dict([])
    with pytest.raises(SchemaError):
        schema_from_dict({"attributes": []})
    with pytest.raises(SchemaError):
        schema_from_dict({"attributes": [{"name": "a"}]})
    with pytest.raises(SchemaError):
        schema_from_dict({"attributes": [{"name": "a", "kind": "numeric"}], "missing_markers": "?"})


def test_schema_rejects_duplicate_names_and_label_collision():
    specs = (AttributeSpec("a", NUMERIC), AttributeSpec("a", NUMERIC))
    with pytest.raises(SchemaError, match="duplicate"):
        Schema(specs)
    with pytest.raises(SchemaError, match="collides"):
        Schema((AttributeSpec("a", NUMERIC),), label_column="a")


def test_dataset_to_csv_renders_missing_and_integral_cells():
    ds = dataset_of(
        numeric_schema(2),
        (Record("R1", (1.0, None), "a"), Record("R2", (2.5, 3.0), None)),
    )
    assert dataset_to_csv(ds) == "x1,x2,class\n1,?,a\n2.5,3,\n"


# --- kept field text: the canonical mask, the writer and the split parse ---


def canonical(fields: list[str]) -> list[bool]:
    return cmimpute.dataset._canonical_fields("\n".join(fields), len(fields)).tolist()


@pytest.mark.parametrize(
    "field, kept",
    [
        ("0", True),
        ("7", True),
        ("-12", True),
        ("1.5", True),
        ("-0.5", True),
        ("0.0001", True),
        ("123456789012345", True),
        ("-0", False),
        ("0.0", False),
        ("-0.0", False),
        ("1.50", False),
        ("5.", False),
        (".5", False),
        ("007", False),
        ("00.5", False),
        ("0.00001", False),
        ("-0.00001", False),
        ("1e5", False),
        ("+1", False),
        (" 1", False),
        ("1 ", False),
        ("1-2", False),
        ("1.2.3", False),
        ("-", False),
        ("", False),
        ("?", False),
        ("\u0661", False),  # an Arabic-Indic one: float() reads it, format_number writes "1"
        ("1234567890123456", False),
    ],
)
def test_the_canonical_mask_on_pinned_fields(field, kept):
    assert canonical([field]) == [kept]
    assert canonical(["1", field, "2.5"]) == [True, kept, True]


float_fields = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(-1e6, 1e6), st.integers(0, 12)).map(lambda p: f"{p[0]:.{p[1]}f}"),
    st.integers(-(10**17), 10**17).map(str),
    st.text(alphabet="-0123456789. e+", max_size=8),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(float_fields, min_size=1, max_size=6))
def test_every_canonical_field_is_what_format_number_writes(fields):
    for field, kept in zip(fields, canonical(fields)):
        if kept:
            assert format_number(float(field)) == field


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e17, 1e17))
def test_format_number_output_is_canonical_when_short_and_plain(value):
    text = format_number(value)
    assert canonical([text]) == [len(text) <= 15 and "e" not in text]


MARKED = Schema(
    (AttributeSpec("x1", NUMERIC), AttributeSpec("s", CATEGORICAL), AttributeSpec("x2", NUMERIC)),
    label_column="class",
    missing_markers=frozenset({"?", "0", "-1"}),
)


def rendered(dataset: Dataset) -> str:
    """dataset_to_csv with every cell rendered: a dataset built from a
    matrix without its field texts renders every cell."""
    return dataset_to_csv(Dataset(dataset.schema, dataset.ids, dataset.labels, dataset.matrix))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(float_fields, st.sampled_from(["?", "0", "-1", " 2.5 ", "1_000"])),
            st.sampled_from(["a", "b", "?"]),
            st.one_of(float_fields, st.sampled_from(["?", "0", "-1"])),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_writing_kept_text_equals_rendering_every_cell(rows):
    text = "x1,s,x2,class\n" + "".join(f"{a},{s},{b},c\n" for a, s, b in rows)
    try:
        ds = parse_dataset(text, MARKED)
    except ParseError:
        return  # a field float() rejects, or one past the magnitude bound
    assert ds.field_texts[0] is not None and ds.field_texts[1] is None
    assert dataset_to_csv(ds) == rendered(ds)


def test_a_field_holding_a_line_break_leaves_its_column_no_canonical_field():
    ds = parse_dataset('x1,x2,class\n"1\n",1.50,a\n2.5,7,b\n', numeric_schema(2))
    assert ds.field_texts[0].canonical.tolist() == [False, False]
    assert ds.field_texts[1].canonical.tolist() == [False, True]
    assert dataset_to_csv(ds) == rendered(ds) == "x1,x2,class\n1,1.5,a\n2.5,7,b\n"


def test_writing_kept_text_after_imputation_equals_rendering_every_cell():
    rng = np.random.default_rng(5)
    lines = ["x1,s,x2,class"]
    for i in range(120):
        a, b = rng.normal(3.0, 2.0, 2).tolist()
        fields = [repr(round(a, 3)), "abc"[i % 3], f"{b:.2f}", "c1c2"[2 * (i % 2) : 2 * (i % 2) + 2]]
        if i % 7 == 3:
            fields[i % 3] = ["?", "a", "0"][i % 3] if i % 3 else "-1"  # markers, numeric-looking ones too
        lines.append(",".join(fields))
    ds = parse_dataset("\n".join(lines) + "\n", MARKED)
    result = impute_dataset(ds, ImputeConfig(k=2))
    completed = result.dataset
    assert result.fills and completed.field_texts == ds.field_texts
    assert dataset_to_csv(completed) == rendered(completed)
    assert "?" not in dataset_to_csv(completed)


def parse_outcome(text: str, schema: Schema):
    """What parse_dataset makes of the text: the error, or the dataset
    as ids, cell reprs (so -0.0 differs from 0.0), labels, written text
    and kept field texts."""
    try:
        ds = parse_dataset(text, schema)
    except (ParseError, SchemaError) as exc:
        return type(exc).__name__, str(exc)
    cells = [tuple(map(repr, r.cells)) for r in ds.records]
    return ds.ids, cells, ds.labels, dataset_to_csv(ds), [t and t.text for t in ds.field_texts]


def read_by_csv_reader(text: str, schema: Schema):
    with mock.patch.object(cmimpute.dataset, "_split_fields", return_value=None):
        return parse_outcome(text, schema)


def read_field_by_field(text: str, schema: Schema):
    """A reference for parse_dataset on unquoted text whose columns are
    numeric but for the label: the rows' cell reprs, or the error for
    the first bad field in row order.  Each field is stripped; a marker
    is a missing cell, and anything else goes through float()."""
    rows = [line.split(",") for line in text.split("\n")[1:] if line]
    cells = []
    for rownum, row in enumerate(rows, start=2):
        record = []
        for spec, field in zip(schema.attributes, row):
            t, where = field.strip(), f"row {rownum}: "
            if t in schema.missing_markers:
                record.append(None)
                continue
            try:
                value = float(t)
            except ValueError:
                return "ParseError", f"{where}{t!r} is not numeric for attribute {spec.name!r}"
            if not math.isfinite(value):
                return "ParseError", f"{where}non-finite value {t!r} for attribute {spec.name!r}"
            if abs(value) > MAX_MAGNITUDE:
                return "ParseError", f"{where}{t!r} for attribute {spec.name!r} exceeds the magnitude bound 1e+100"
            record.append(value)
        cells.append(tuple(map(repr, record)))
    return cells


def parsed_cells(text: str, schema: Schema):
    """parse_outcome's error, or else its cell reprs."""
    outcome = parse_outcome(text, schema)
    return outcome if outcome[0] in ("ParseError", "SchemaError") else outcome[1]


# Marker sets: the default, a blank-padded marker, markers that read as
# NaN, and a marker that reads as a number.
MARKER_SETS = [
    frozenset({"?", "NaN", ""}),
    frozenset({"?", " x "}),
    frozenset({"NA", "nan", "-nan"}),
    frozenset({"?", "0"}),
]
PINNED_FIELDS = [
    "1_000", " 2 ", " 4 ", "\u0661\u0662", "1e500", "nan", "-0", "1e-320",  # float() accepts
    "0x10", "1__0", " ",  # float() rejects
    " ? ", "?", " NaN ", "NaN", " x ", "x", " 0 ", "0", "-0.0", "\u00a01\u00a0", "-nan", "inf", "-1e101", "",
]


@pytest.mark.parametrize("markers", MARKER_SETS, ids=["default", "padded", "nan", "numeric"])
@pytest.mark.parametrize("field", PINNED_FIELDS)
def test_one_cast_per_column_reads_what_strip_and_float_read(field, markers):
    schema = Schema(numeric_schema(2).attributes, "class", markers)
    for text in (f"x1,x2,class\n{field},1,a\n", f"x1,x2,class\n1,2.5,a\n-3,{field},b\n"):
        assert parsed_cells(text, schema) == read_field_by_field(text, schema)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.text(alphabet="0123456789.-+e_ ?xnaNI\u0661\u00a0", max_size=5), min_size=2, max_size=2), max_size=5),
    st.sampled_from(MARKER_SETS),
)
def test_one_cast_and_strip_and_float_parses_agree(rows, markers):
    schema = Schema(numeric_schema(2).attributes, "class", markers)
    text = "x1,x2,class\n" + "".join(f"{a},{b},c\n" for a, b in rows)
    assert parsed_cells(text, schema) == read_field_by_field(text, schema)


SPLIT = Schema((AttributeSpec("x1", NUMERIC), AttributeSpec("s", CATEGORICAL)), label_column="class")
LIMIT = csv.field_size_limit()
BLOCK = cmimpute.dataset.BLOCK
FROZEN_SPLIT = Schema((AttributeSpec("x1", NUMERIC), AttributeSpec("s", CATEGORICAL, {"m": 1, "n": 2})), "class")
# A header line and body lines of 16 characters each, so BLOCK (a
# multiple of 16) characters end a line: the first block holds the line
# at BLOCK too, the header and 2,048 rows.
HEADER16 = "x1,s,class".ljust(15) + "\n"
FULL_BLOCK_ROWS = BLOCK // 16


def row16(i: int, symbol: str = "", x: str = "") -> str:
    return f"{x or f'{i:011d}'},{symbol or 'mn'[i % 2]},c\n"


@pytest.mark.parametrize(
    "text, split",
    [
        pytest.param("x1,s,class\n1,a,b\n2.5,c,d\n", True, id="plain"),
        pytest.param("x1,s,class\n1,a,b\n2.5,c,d", True, id="no-trailing-newline"),
        pytest.param("\nx1,s,class\n\n1,a,b\n\n\n2,c,\n\n", True, id="blank-lines"),
        pytest.param("x1,s,class\n 1 , a ,b\n-0 ,?,\n", True, id="padded-fields"),
        pytest.param("x1,s,class\n1,\u00e9,b\n\u0661,\u00fc,c\n", True, id="non-ascii"),
        pytest.param("x1,s,class\n", True, id="header-only"),
        pytest.param("x1,s,class\n1,a,b\nbogus,a,b\n", True, id="bad-field"),
        pytest.param("x1,s,class\n1,a\n2,b,c,d\n", False, id="widths-that-cancel"),
        pytest.param("x1,s,class\n1,a,b,c\n", False, id="wide-row"),
        pytest.param("x1,class\n1,a,b\n", False, id="short-header"),
        pytest.param("x1,s,class\r1,a,b\r", False, id="cr"),
        pytest.param("x1,s,class\r\n1,a,b\r\n2,c,d\r\n", False, id="crlf"),
        pytest.param('x1,s,class\n"1",a,b\n', False, id="quoted-field"),
        pytest.param('x1,s,class\n"1,5",a,b\n', False, id="quoted-comma"),
        pytest.param('x1,s,class\n1,"a\nb",c\n', False, id="quoted-newline"),
        pytest.param("x1,s,class\n1,a,b\n2," + "x" * (LIMIT + 1) + ",c\n", False, id="over-limit-field"),
        pytest.param("x1,s,class\n1,a," + "x" * LIMIT + "\n", False, id="long-line-within-limit"),
        pytest.param("", False, id="empty"),
        pytest.param("\n\n", False, id="blank"),
    ],
)
def test_the_split_parse_reads_what_csv_reader_reads(text, split):
    assert (cmimpute.dataset._split_fields(text, 3) is not None) == split
    assert parse_outcome(text, SPLIT) == read_by_csv_reader(text, SPLIT)


csv_fields = st.one_of(
    st.text(alphabet="0123456789.- ?xa\u00e9", max_size=4),
    st.text(alphabet='0123456789,"\r\n ', max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(csv_fields, min_size=1, max_size=4), max_size=5),
    st.sampled_from(["", "\n", "\r\n", "\n\n"]),
    st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(-2, 2))),
)
def test_split_and_csv_reader_parses_agree(rows, end, cut):
    """The drawn rows; with a cut drawn, rows that split are put after
    the first few drawn ones, so the rest lie around the first cut."""
    body = list(map(",".join, rows))
    if cut is not None:
        at, shift = cut
        before = len("x1,s,class\n") + sum(len(line) + 1 for line in body[:at])
        body[at:at] = [row16(i)[:-1] for i in range(max(0, (BLOCK - before) // 16 + shift))]
    text = "x1,s,class\n" + "\n".join(body) + end
    assert parse_outcome(text, SPLIT) == read_by_csv_reader(text, SPLIT)


def test_parsing_an_unquoted_table_allocates_no_list_per_row():
    text = "x1,x2,class\n" + "".join(f"{i / 8},{i % 7},c{i % 3}\n" for i in range(4000))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def collections_while(parse):
        enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        collections.clear()
        gc.callbacks.append(count)
        try:
            parse()
        finally:
            gc.callbacks.remove(count)
            if not enabled:
                gc.disable()
        return len(collections)

    # 4,000 live row lists pass the collector's first threshold (700 by
    # default) several times over; the split parse keeps far fewer.
    assert collections_while(lambda: parse_dataset(text, numeric_schema(2))) == 0
    with mock.patch.object(cmimpute.dataset, "_split_fields", return_value=None):
        assert collections_while(lambda: parse_dataset(text, numeric_schema(2))) > 0


@pytest.mark.parametrize("split", [cmimpute.dataset._split_fields, lambda text, width: None], ids=["split", "csv-reader"])
def test_a_parsed_dataset_holds_no_object_per_field(split):
    text = "x1,x2,class\n" + "".join(f"{i / 8:g},{i % 7},c{i % 3}\n" for i in range(4000))
    with mock.patch.object(cmimpute.dataset, "_split_fields", split):
        ds = parse_dataset(text, numeric_schema(2))
    for kept in ds.field_texts:
        # One text per column, and no list or tuple of fields beside it.
        assert sorted(type(v).__name__ for v in vars(kept).values()) == ["ndarray", "str"]
        assert kept.text.count("\n") == len(ds) - 1
    assert ds.classes == ("c0", "c1", "c2")
    assert len({id(label) for label in ds.labels}) == 3  # one object per class name
    assert dataset_to_csv(ds) == text


# --- parsing a block of lines at a time ---


def table16(rows: int, **last) -> str:
    """The header, then the rows; the last one's symbol or first field as given."""
    return HEADER16 + "".join(row16(i) for i in range(rows - 1)) + row16(rows - 1, **last)


def blocks_split(text: str, schema: Schema) -> int:
    """How many blocks parse_dataset splits the text into."""
    with mock.patch.object(cmimpute.dataset, "_split_fields", wraps=cmimpute.dataset._split_fields) as split:
        try:
            parse_dataset(text, schema)
        except (ParseError, SchemaError):
            pass
    return split.call_count


OVER_LIMIT = "x" * (LIMIT + 1)
LATE = 2 * FULL_BLOCK_ROWS + 500  # rows: the last lies in the third block


@pytest.mark.parametrize(
    "text, schema, blocks",
    [
        pytest.param(table16(10), SPLIT, 1, id="one-block"),
        pytest.param(table16(FULL_BLOCK_ROWS), SPLIT, 1, id="one-full-block"),
        pytest.param(table16(FULL_BLOCK_ROWS) + "\n\n", SPLIT, 1, id="one-full-block-then-blank-lines"),
        pytest.param(table16(FULL_BLOCK_ROWS + 1), SPLIT, 2, id="one-row-over"),
        pytest.param(table16(LATE), SPLIT, 3, id="several-blocks"),
        pytest.param(table16(LATE, symbol="a"), SPLIT, 3, id="new-symbol-in-the-last-block"),
        pytest.param(table16(LATE, symbol="?"), SPLIT, 3, id="marker-in-the-last-block"),
        pytest.param(table16(LATE), FROZEN_SPLIT, 3, id="frozen"),
        pytest.param(table16(LATE, symbol="a"), FROZEN_SPLIT, 3, id="frozen-unknown-symbol-in-the-last-block"),
        pytest.param(table16(LATE, x="bogus"), SPLIT, 3, id="bad-field-in-the-last-block"),
        pytest.param(table16(LATE, x="1e101"), SPLIT, 3, id="too-large-in-the-last-block"),
        pytest.param(table16(LATE, symbol="a,b"), SPLIT, 3, id="wide-row-in-the-last-block"),
        pytest.param(table16(LATE)[:-3] + "\n", SPLIT, 3, id="short-row-in-the-last-block"),
        pytest.param(table16(LATE, symbol=OVER_LIMIT), SPLIT, 3, id="over-limit-line-in-the-last-block"),
        pytest.param(table16(LATE, symbol='"a"'), SPLIT, 3, id="quote-in-the-last-block"),
        pytest.param(
            table16(FULL_BLOCK_ROWS + 1) + "\n" + table16(FULL_BLOCK_ROWS)[len(HEADER16) :], SPLIT, 3,
            id="blank-line-at-a-cut",
        ),
        pytest.param(
            table16(FULL_BLOCK_ROWS) + "\n" * BLOCK + table16(9)[len(HEADER16) :], SPLIT, 2, id="a-block-of-blank-lines"
        ),
        pytest.param(HEADER16 + "\n" * BLOCK + table16(9)[len(HEADER16) :], SPLIT, 2, id="blank-lines-after-header"),
        pytest.param(HEADER16[:-1] + " " * BLOCK + "\n" + table16(9)[len(HEADER16) :], SPLIT, 2, id="a-long-header"),
        pytest.param(HEADER16 + "".join(f"{i:011d},?,c\n" for i in range(LATE)), SPLIT, 3, id="marker-only-column"),
        pytest.param(HEADER16 + "?," * 2 + "c\n" + table16(LATE)[len(HEADER16) :], SPLIT, 3, id="marker-only-row"),
        # A bad field or header in the first block with a block that does
        # not split after it: csv.reader reads the text, and its error wins.
        pytest.param(
            table16(3, x="bogus") + table16(LATE, symbol=OVER_LIMIT)[len(HEADER16) :], SPLIT, 3,
            id="bad-field-then-over-limit",
        ),
        pytest.param(
            table16(3, x="bogus") + table16(LATE, symbol="a,b")[len(HEADER16) :], SPLIT, 3, id="bad-field-then-wide"
        ),
        pytest.param(
            table16(LATE, symbol=OVER_LIMIT).replace("class", "label", 1), SPLIT, 1, id="bad-header-then-over-limit"
        ),
    ],
)
def test_a_table_parsed_a_block_at_a_time_reads_what_csv_reader_reads(text, schema, blocks):
    assert blocks_split(text, schema) == blocks
    assert parse_outcome(text, schema) == read_by_csv_reader(text, schema)


def test_block_cuts_leave_one_text_per_column_and_one_sorted_encoding():
    text = table16(LATE, symbol="a")
    ds = parse_dataset(text, SPLIT)
    assert ds.schema.attributes[1].encoding == {"a": 1, "m": 2, "n": 3}  # "a" is first seen in the last block
    assert ds.matrix[:, 1].tolist() == [2.0, 3.0] * (LATE // 2 - 1) + [2.0, 1.0]
    assert ds.field_texts[0].text == "\n".join(line.split(",")[0] for line in text.split("\n")[1:-1])
    assert not ds.matrix.flags.writeable and not ds.field_texts[0].values.flags.writeable


def test_parsing_a_large_table_peaks_below_twice_what_it_keeps():
    """tracemalloc's peak during the parse of a 16k-row mixed table is at
    most twice what the parsed dataset holds: the split and cast fields
    of one block are alive at a time, not those of the whole table."""
    rng = random.Random(0)
    schema = Schema(
        tuple(AttributeSpec(f"x{j}", NUMERIC) for j in range(6)) + (AttributeSpec("seg", CATEGORICAL),), "class"
    )
    lines = [",".join(a.name for a in schema.attributes) + ",class"]
    for _ in range(16_000):
        fields = [repr(round(rng.uniform(0.0, 1.0), 6)) for _ in range(6)] + [f"s{rng.randrange(6)}"]
        lines.append(",".join("?" if rng.random() < 0.05 else f for f in fields) + f",C{rng.randrange(3)}")
    text = "\n".join(lines) + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        ds = parse_dataset(text, schema)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 16_000
    assert peak <= 2 * kept, (peak, kept)
