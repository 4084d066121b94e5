"""Parsing, encoding, decoding, and the complete/incomplete split."""

from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, strategies as st

from cmimpute.casestudy import fixture_text
from cmimpute.dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    Dataset,
    Record,
    Schema,
    csv_text,
    dataset_to_csv,
    decode_dataset,
    encode,
    parse_dataset,
    schema_from_dict,
    split_groups,
)
from cmimpute.errors import DecodeError, ParseError, SchemaError


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
    assert r3.cells == ("c11", 7.0, None, 7.0)
    assert r3.missing_indices == (2,)
    assert r3.label == "CLASS-1"


def test_question_mark_marker_becomes_missing_cell():
    raw = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    r5 = raw.record("R5")
    assert r5.cells == ("c13", 3.0, "d32", None)
    assert r5.missing_indices == (3,)


def test_fully_populated_row_is_complete():
    raw = parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema())
    r1 = raw.record("R1")
    assert r1.is_complete
    assert r1.cells == ("c11", 5.0, "d31", 10.0)


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


def test_encoded_flag_matches_cell_types():
    schema = numeric_schema(2)
    assert Dataset(schema, (Record("R1", (1.0, None)), Record("R2", (2.0, 3.0)))).is_encoded
    assert not Dataset(schema, (Record("R1", (1.0, None)), Record("R2", ("a", 3.0)))).is_encoded


def test_record_lookup_by_id():
    schema = numeric_schema(1)
    ds = Dataset(schema, (Record("R1", (1.0,), "a"), Record("R2", (2.0,), "b"), Record("R1", (3.0,), "c")))
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


@pytest.mark.parametrize(
    "text, match",
    [
        # The first bad field in row order wins, whatever its column or kind.
        ("x1,x2,class\n1,bogus,a\n1,a\n", "row 2: 'bogus'"),
        ("x1,x2,class\n1,2,a\n1,a\nnan,1,a\n", "row 3: expected 3 fields"),
        ("x1,x2,class\n1,2,a\n1,nan,a\ninf,1,a\n", "row 3: non-finite value 'nan'"),
        ("x1,x2,class\n1,2e100,a\nbogus,1,a\n", "row 2: '2e100' .* magnitude bound"),
    ],
)
def test_the_first_bad_field_in_row_order_is_named(text, match):
    with pytest.raises(ParseError, match=match):
        parse_dataset(text, numeric_schema(2))


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
    ds = encode(parse_dataset(fixture_text("table01_raw.csv"), missing_schema()))
    assert ds.record("R2").cells[0] == 3.0  # c13
    assert ds.record("R3").cells[2] == 2.0  # d32
    assert ds.record("R1").cells[3] == 10.0  # numeric pass-through


def test_encode_leaves_missing_cells_missing():
    ds = encode(parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema()))
    assert ds.record("R3").cells[2] is None
    assert ds.record("R5").cells[3] is None


def test_decode_reference_symbols():
    a1, _, a3, a4 = missing_schema().attributes
    assert a3.decode_value(2.0) == "d32"
    assert a1.decode_value(3.0) == "c13"
    assert a4.decode_value(7.0) == 7.0


def test_decode_rejects_non_ordinal():
    spec = AttributeSpec("a", CATEGORICAL, {"x": 1, "y": 2})
    with pytest.raises(DecodeError):
        spec.decode_value(2.5)
    with pytest.raises(DecodeError):
        spec.decode_value(3.0)


def test_decode_encode_round_trip_on_reference_table():
    raw = parse_dataset(fixture_text("table01_raw.csv"), missing_schema())
    assert decode_dataset(encode(raw)) == raw


def test_auto_encoding_uses_sorted_symbol_order():
    schema = Schema((AttributeSpec("a", CATEGORICAL),), label_column="class")
    ds = encode(parse_dataset("a,class\nmid,x\nzed,x\napex,x\n", schema))
    assert dict(ds.schema.attributes[0].encoding) == {"apex": 1, "mid": 2, "zed": 3}
    assert [r.cells[0] for r in ds.records] == [2.0, 3.0, 1.0]


def test_explicit_encoding_wins_over_data_order():
    # The frozen map is authoritative even when it disagrees with
    # sorted order, so table reproductions never depend on naming.
    schema = Schema(
        (AttributeSpec("a", CATEGORICAL, {"zed": 1, "apex": 2}),), label_column="class"
    )
    ds = encode(parse_dataset("a,class\napex,x\nzed,x\n", schema))
    assert [r.cells[0] for r in ds.records] == [2.0, 1.0]


def test_encoding_ordinals_must_be_contiguous_from_one():
    with pytest.raises(SchemaError, match="contiguous"):
        AttributeSpec("a", CATEGORICAL, {"x": 1, "y": 3})


def test_numeric_attribute_rejects_encoding():
    with pytest.raises(SchemaError):
        AttributeSpec("a", NUMERIC, {"x": 1})


# --- the group split ---


def test_split_reference_dataset():
    ds = encode(parse_dataset(fixture_text("table03_missing_raw.csv"), missing_schema()))
    split = split_groups(ds)
    assert split.g1.ids == ("R1", "R2", "R4", "R6", "R7", "R8", "R9")
    assert split.g2.ids == ("R3", "R5")


def test_split_complete_dataset_has_empty_g2():
    ds = encode(parse_dataset(fixture_text("table01_raw.csv"), missing_schema()))
    split = split_groups(ds)
    assert len(split.g2) == 0
    assert split.g1 == ds


def test_split_all_records_incomplete_has_empty_g1():
    ds = Dataset(
        numeric_schema(2),
        (Record("R1", (None, 1.0)), Record("R2", (2.0, None))),
    )
    split = split_groups(ds)
    assert len(split.g1) == 0
    assert split.g2 == ds


def test_split_requires_encoded_dataset():
    ds = Dataset(
        Schema((AttributeSpec("a", CATEGORICAL),), label_column=None),
        (Record("R1", ("sym",)),),
    )
    with pytest.raises(ValueError, match="encoded"):
        split_groups(ds)


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
    ds = Dataset(numeric_schema(3, label=None), records)
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
    first = encode(parse_dataset(text, missing_schema()))
    second = encode(parse_dataset(text, missing_schema()))
    assert first == second
    assert dataset_to_csv(first) == dataset_to_csv(second)


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
    ds = Dataset(
        numeric_schema(2),
        (Record("R1", (1.0, None), "a"), Record("R2", (2.5, 3.0), None)),
    )
    assert dataset_to_csv(ds) == "x1,x2,class\n1,?,a\n2.5,3,\n"
